package sphere

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/channel"
	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/rng"
)

func makeInstance(r *rng.Rand, c *constellation.Constellation, n, m int, snrDB float64) (*cmatrix.Matrix, cmatrix.Vector, float64, []int) {
	h := channel.Rayleigh(r, n, m)
	idx := make([]int, m)
	s := make(cmatrix.Vector, m)
	for i := range idx {
		idx[i] = r.Intn(c.Size())
		s[i] = c.Symbol(idx[i])
	}
	noiseVar := channel.NoiseVariance(channel.PerTransmitSymbol, snrDB, m)
	y := channel.Transmit(r, h, s, noiseVar)
	return h, y, noiseVar, idx
}

var exactStrategies = []Strategy{SortedDFS, PlainDFS, BestFS}

func TestNewValidation(t *testing.T) {
	c := constellation.New(constellation.QAM4)
	if _, err := New(Config{}); err == nil {
		t.Error("missing constellation accepted")
	}
	if _, err := New(Config{Const: c, InitialRadiusSq: -1}); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := New(Config{Const: c, Strategy: Strategy(99)}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := New(Config{Const: c, KBest: -2}); err == nil {
		t.Error("negative KBest accepted")
	}
	if _, err := New(Config{Const: c, RadiusScale: -1}); err == nil {
		t.Error("negative radius scale accepted")
	}
	d, err := New(Config{Const: c})
	if err != nil {
		t.Fatal(err)
	}
	if d.Config().MaxNodes == 0 || d.Config().RadiusScale == 0 {
		t.Error("defaults not applied")
	}
}

func TestNames(t *testing.T) {
	c := constellation.New(constellation.QAM4)
	if got := MustNew(Config{Const: c}).Name(); got != "SD-SortedDFS" {
		t.Errorf("name = %q", got)
	}
	if got := MustNew(Config{Const: c, UseGEMM: true}).Name(); got != "SD-SortedDFS+GEMM" {
		t.Errorf("name = %q", got)
	}
	if got := MustNew(Config{Const: c, Strategy: BFS}).Name(); got != "SD-BFS" {
		t.Errorf("name = %q", got)
	}
}

// TestExactStrategiesMatchML is the central correctness property: every
// exact strategy must return the ML metric on random instances.
func TestExactStrategiesMatchML(t *testing.T) {
	r := rng.New(1)
	for _, mod := range []constellation.Modulation{constellation.BPSK, constellation.QAM4, constellation.QAM16} {
		c := constellation.New(mod)
		ml := decoder.NewML(c)
		dims := [][2]int{{3, 3}, {5, 4}, {4, 4}}
		if mod == constellation.QAM16 {
			dims = [][2]int{{3, 3}, {4, 3}}
		}
		for _, dim := range dims {
			for _, strat := range exactStrategies {
				for _, useGEMM := range []bool{false, true} {
					sd := MustNew(Config{Const: c, Strategy: strat, UseGEMM: useGEMM})
					for trial := 0; trial < 6; trial++ {
						h, y, nv, _ := makeInstance(r, c, dim[0], dim[1], 8)
						want, err := ml.Decode(h, y, nv)
						if err != nil {
							t.Fatal(err)
						}
						got, err := sd.Decode(h, y, nv)
						if err != nil {
							t.Fatalf("%v/%v/%v gemm=%v: %v", mod, dim, strat, useGEMM, err)
						}
						if math.Abs(got.Metric-want.Metric) > 1e-6*(1+want.Metric) {
							t.Fatalf("%v/%v/%v gemm=%v trial %d: SD metric %v, ML %v",
								mod, dim, strat, useGEMM, trial, got.Metric, want.Metric)
						}
					}
				}
			}
		}
	}
}

func TestExactStrategyQuick(t *testing.T) {
	c := constellation.New(constellation.QAM4)
	ml := decoder.NewML(c)
	sd := MustNew(Config{Const: c, Strategy: SortedDFS, UseGEMM: true})
	f := func(seed uint64) bool {
		r := rng.New(seed)
		h, y, nv, _ := makeInstance(r, c, 4, 4, 6)
		want, err := ml.Decode(h, y, nv)
		if err != nil {
			return true // skip singular draws
		}
		got, err := sd.Decode(h, y, nv)
		if err != nil {
			return false
		}
		return math.Abs(got.Metric-want.Metric) <= 1e-6*(1+want.Metric)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGEMMAndScalarAgree(t *testing.T) {
	r := rng.New(2)
	c := constellation.New(constellation.QAM16)
	for _, strat := range []Strategy{SortedDFS, BFS, FSD} {
		a := MustNew(Config{Const: c, Strategy: strat, UseGEMM: false})
		b := MustNew(Config{Const: c, Strategy: strat, UseGEMM: true})
		for trial := 0; trial < 10; trial++ {
			h, y, nv, _ := makeInstance(r, c, 5, 4, 10)
			ra, errA := a.Decode(h, y, nv)
			rb, errB := b.Decode(h, y, nv)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%v: error divergence %v vs %v", strat, errA, errB)
			}
			if errA != nil {
				continue
			}
			if math.Abs(ra.Metric-rb.Metric) > 1e-6*(1+ra.Metric) {
				t.Fatalf("%v: scalar %v vs GEMM %v", strat, ra.Metric, rb.Metric)
			}
			// The traversal must be identical, so tree-shape counters match.
			if ra.Counters.NodesExpanded != rb.Counters.NodesExpanded ||
				ra.Counters.LeavesReached != rb.Counters.LeavesReached {
				t.Fatalf("%v: node counts differ: %+v vs %+v", strat,
					ra.Counters.NodesExpanded, rb.Counters.NodesExpanded)
			}
			if rb.Counters.GEMMCalls == 0 || rb.Counters.GEMMFlops == 0 {
				t.Fatalf("%v: GEMM variant recorded no GEMM work", strat)
			}
			if ra.Counters.GEMMCalls != 0 {
				t.Fatalf("%v: scalar variant recorded GEMM work", strat)
			}
		}
	}
}

func TestBFSLevelBatchedGEMM(t *testing.T) {
	// The GEMM BFS issues one matrix product per tree level (the [1]
	// batching), so GEMMCalls must be far below NodesExpanded and bounded
	// by M per attempt — while PDs (and hence the whole traversal) are
	// identical to the scalar path (checked by TestGEMMAndScalarAgree).
	r := rng.New(45)
	c := constellation.New(constellation.QAM4)
	sd := MustNew(Config{Const: c, Strategy: BFS, UseGEMM: true, RadiusScale: 8})
	for trial := 0; trial < 5; trial++ {
		h, y, nv, _ := makeInstance(r, c, 8, 8, 6)
		res, info, err := sd.DecodeTraced(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		maxCalls := int64(8 * (info.Retries + 1))
		if res.Counters.GEMMCalls > maxCalls {
			t.Fatalf("trial %d: %d GEMM calls for %d levels (%d retries)",
				trial, res.Counters.GEMMCalls, 8, info.Retries)
		}
		if res.Counters.GEMMCalls >= res.Counters.NodesExpanded && res.Counters.NodesExpanded > 8 {
			t.Fatalf("trial %d: GEMM calls (%d) not batched below node count (%d)",
				trial, res.Counters.GEMMCalls, res.Counters.NodesExpanded)
		}
	}
}

func TestNoiselessRecovery(t *testing.T) {
	// With zero noise every strategy (even suboptimal ones) must recover
	// the transmitted vector exactly.
	r := rng.New(3)
	c := constellation.New(constellation.QAM16)
	for _, strat := range []Strategy{SortedDFS, PlainDFS, BestFS, BFS, FSD} {
		sd := MustNew(Config{Const: c, Strategy: strat})
		for trial := 0; trial < 5; trial++ {
			h, y, _, idx := makeInstance(r, c, 6, 4, 300)
			res, err := sd.Decode(h, y, 1e-30)
			if err != nil {
				t.Fatalf("%v: %v", strat, err)
			}
			for i := range idx {
				if res.SymbolIdx[i] != idx[i] {
					t.Fatalf("%v: antenna %d decoded %d, sent %d", strat, i, res.SymbolIdx[i], idx[i])
				}
			}
		}
	}
}

func TestSortedDFSExploresFewerNodesThanPlain(t *testing.T) {
	// The Geosphere claim: sorting children accelerates radius shrinkage,
	// so the sorted traversal expands no more nodes than the unsorted one
	// on average.
	r := rng.New(4)
	c := constellation.New(constellation.QAM4)
	sorted := MustNew(Config{Const: c, Strategy: SortedDFS})
	plain := MustNew(Config{Const: c, Strategy: PlainDFS})
	var nodesSorted, nodesPlain int64
	for trial := 0; trial < 40; trial++ {
		h, y, nv, _ := makeInstance(r, c, 8, 8, 8)
		rs, err := sorted.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := plain.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		nodesSorted += rs.Counters.NodesExpanded
		nodesPlain += rp.Counters.NodesExpanded
	}
	if nodesSorted > nodesPlain {
		t.Fatalf("sorted DFS expanded %d nodes, plain %d", nodesSorted, nodesPlain)
	}
}

func TestBFSExploresManyMoreNodes(t *testing.T) {
	// The effect behind Fig. 11: BFS cannot shrink the radius early, and a
	// GPU implementation must size the initial sphere conservatively (a
	// missed solution costs a full device round-trip), so it explores far
	// more nodes than sorted DFS at the same SNR.
	r := rng.New(5)
	c := constellation.New(constellation.QAM4)
	sorted := MustNew(Config{Const: c, Strategy: SortedDFS})
	bfs := MustNew(Config{Const: c, Strategy: BFS, RadiusScale: 8})
	var nodesSorted, nodesBFS int64
	for trial := 0; trial < 10; trial++ {
		h, y, nv, _ := makeInstance(r, c, 8, 8, 4)
		rs, err := sorted.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := bfs.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		nodesSorted += rs.Counters.NodesExpanded
		nodesBFS += rb.Counters.NodesExpanded
	}
	if nodesBFS < 5*nodesSorted {
		t.Fatalf("BFS %d nodes vs sorted %d: expected a large gap", nodesBFS, nodesSorted)
	}
}

func TestBFSFindsMLWithGenerousRadius(t *testing.T) {
	// BFS with a radius that certainly contains the ML point is exact.
	r := rng.New(6)
	c := constellation.New(constellation.QAM4)
	ml := decoder.NewML(c)
	for trial := 0; trial < 10; trial++ {
		h, y, nv, _ := makeInstance(r, c, 4, 4, 10)
		want, err := ml.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		bfs := MustNew(Config{Const: c, Strategy: BFS, InitialRadiusSq: want.Metric*2 + 1})
		got, err := bfs.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Metric-want.Metric) > 1e-6*(1+want.Metric) {
			t.Fatalf("trial %d: BFS %v vs ML %v", trial, got.Metric, want.Metric)
		}
	}
}

func TestBFSRetryGrowsRadius(t *testing.T) {
	// Start with an absurdly small sphere; the retry loop must recover.
	r := rng.New(7)
	c := constellation.New(constellation.QAM4)
	h, y, nv, _ := makeInstance(r, c, 5, 4, 10)
	sd := MustNew(Config{Const: c, Strategy: BFS, InitialRadiusSq: 1e-12})
	res, info, err := sd.DecodeTraced(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if info.Retries == 0 {
		t.Fatal("expected radius-doubling retries")
	}
	if res.Metric <= 0 {
		t.Fatal("no solution metric")
	}
}

func TestNoLeafErrorWhenRetryDisabled(t *testing.T) {
	r := rng.New(8)
	c := constellation.New(constellation.QAM4)
	h, y, nv, _ := makeInstance(r, c, 5, 4, 10)
	sd := MustNew(Config{Const: c, Strategy: SortedDFS, InitialRadiusSq: 1e-12, DisableRetry: true})
	if _, err := sd.Decode(h, y, nv); !errors.Is(err, ErrNoLeaf) {
		t.Fatalf("err = %v, want ErrNoLeaf", err)
	}
}

func TestBudgetExceededHard(t *testing.T) {
	r := rng.New(9)
	c := constellation.New(constellation.QAM16)
	h, y, nv, _ := makeInstance(r, c, 8, 8, 2)
	sd := MustNew(Config{Const: c, Strategy: BFS, MaxNodes: 5, HardBudget: true})
	if _, err := sd.Decode(h, y, nv); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// TestBudgetExceededDegrades is the anytime contract: a search killed by its
// node budget still returns a flagged decision whose metric is never worse
// than the zero-forcing floor on the same link.
func TestBudgetExceededDegrades(t *testing.T) {
	r := rng.New(9)
	c := constellation.New(constellation.QAM16)
	zf := decoder.NewZF(c)
	for trial := 0; trial < 50; trial++ {
		h, y, nv, _ := makeInstance(r, c, 8, 8, 2)
		for _, strat := range []Strategy{SortedDFS, PlainDFS, BestFS, BFS} {
			sd := MustNew(Config{Const: c, Strategy: strat, MaxNodes: 5})
			res, err := sd.Decode(h, y, nv)
			if err != nil {
				t.Fatalf("%v: degraded decode failed: %v", strat, err)
			}
			if !res.Quality.Degraded() {
				t.Fatalf("%v: budget-killed search reported quality %v", strat, res.Quality)
			}
			if res.DegradedBy != decoder.DegradedByBudget {
				t.Fatalf("%v: DegradedBy = %q", strat, res.DegradedBy)
			}
			zres, err := zf.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metric > zres.Metric*(1+1e-9) {
				t.Fatalf("%v: degraded metric %v worse than ZF floor %v", strat, res.Metric, zres.Metric)
			}
			if len(res.SymbolIdx) != 8 {
				t.Fatalf("%v: degraded result has %d symbols", strat, len(res.SymbolIdx))
			}
		}
	}
}

// TestDegradedQualityProvenance checks the BestEffort/Fallback distinction:
// a tiny budget that cannot reach a leaf must report QualityFallback, and
// quality on an unconstrained search stays QualityExact.
func TestDegradedQualityProvenance(t *testing.T) {
	r := rng.New(19)
	c := constellation.New(constellation.QAM16)
	h, y, nv, _ := makeInstance(r, c, 10, 10, 4)
	// BFS expands level-synchronously: 3 expansions cannot reach depth 10,
	// so no leaf exists and the fallback point must be used.
	sd := MustNew(Config{Const: c, Strategy: BFS, MaxNodes: 3})
	res, err := sd.Decode(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality != decoder.QualityFallback {
		t.Fatalf("leafless truncation: quality %v, want fallback", res.Quality)
	}
	exact, err := MustNew(Config{Const: c, Strategy: SortedDFS}).Decode(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Quality != decoder.QualityExact || exact.DegradedBy != "" {
		t.Fatalf("unconstrained search flagged degraded: %v/%q", exact.Quality, exact.DegradedBy)
	}
}

// TestDeadlineDegrades drives the wall-clock deadline: a deadline that has
// effectively already passed must cut the search and still yield a decision.
func TestDeadlineDegrades(t *testing.T) {
	r := rng.New(29)
	c := constellation.New(constellation.QAM16)
	h, y, nv, _ := makeInstance(r, c, 10, 10, 0)
	sd := MustNew(Config{Const: c, Strategy: SortedDFS, Deadline: time.Nanosecond})
	res, err := sd.Decode(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quality.Degraded() {
		t.Fatalf("1 ns deadline produced quality %v", res.Quality)
	}
	if res.DegradedBy != decoder.DegradedByDeadline {
		t.Fatalf("DegradedBy = %q, want %q", res.DegradedBy, decoder.DegradedByDeadline)
	}
	if res.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded under a deadline")
	}
	// Hard mode keeps the old error contract.
	hard := MustNew(Config{Const: c, Strategy: SortedDFS, Deadline: time.Nanosecond, HardBudget: true})
	if _, err := hard.Decode(h, y, nv); !errors.Is(err, ErrDeadline) {
		t.Fatalf("hard deadline err = %v, want ErrDeadline", err)
	}
}

// TestDecodeFallback exercises the batch scheduler's shed path directly.
func TestDecodeFallback(t *testing.T) {
	r := rng.New(39)
	c := constellation.New(constellation.QAM4)
	zf := decoder.NewZF(c)
	for trial := 0; trial < 30; trial++ {
		h, y, nv, _ := makeInstance(r, c, 6, 6, 8)
		sd := MustNew(Config{Const: c, Strategy: SortedDFS})
		res, err := sd.DecodeFallback(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if res.Quality != decoder.QualityFallback {
			t.Fatalf("fallback quality %v", res.Quality)
		}
		zres, err := zf.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metric > zres.Metric*(1+1e-9) {
			t.Fatalf("fallback metric %v worse than ZF %v", res.Metric, zres.Metric)
		}
	}
}

func TestKBestCapsFrontier(t *testing.T) {
	r := rng.New(10)
	c := constellation.New(constellation.QAM4)
	h, y, nv, _ := makeInstance(r, c, 8, 8, 2)
	unlimited := MustNew(Config{Const: c, Strategy: BFS})
	capped := MustNew(Config{Const: c, Strategy: BFS, KBest: 16})
	ru, err := unlimited.Decode(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := capped.Decode(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Counters.MaxListLen > 16 {
		t.Fatalf("K-best frontier reached %d", rc.Counters.MaxListLen)
	}
	if rc.Counters.NodesExpanded >= ru.Counters.NodesExpanded {
		t.Fatalf("K-best (%d) expanded no fewer nodes than unlimited (%d)",
			rc.Counters.NodesExpanded, ru.Counters.NodesExpanded)
	}
	// K-best metric can be suboptimal but never better than exact.
	if rc.Metric < ru.Metric-1e-9 {
		t.Fatal("capped search produced an impossibly better metric")
	}
}

func TestFSDFixedComplexity(t *testing.T) {
	// FSD must expand exactly 1 + |Ω|·(M−1) nodes regardless of SNR.
	r := rng.New(11)
	c := constellation.New(constellation.QAM4)
	sd := MustNew(Config{Const: c, Strategy: FSD})
	m := 6
	want := int64(1 + c.Size()*(m-1))
	for _, snr := range []float64{0, 10, 30} {
		h, y, nv, _ := makeInstance(r, c, m, m, snr)
		res, err := sd.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.NodesExpanded != want {
			t.Fatalf("SNR %v: FSD expanded %d nodes, want %d", snr, res.Counters.NodesExpanded, want)
		}
	}
}

func TestFSDNeverBeatsML(t *testing.T) {
	r := rng.New(12)
	c := constellation.New(constellation.QAM4)
	ml := decoder.NewML(c)
	sd := MustNew(Config{Const: c, Strategy: FSD})
	for trial := 0; trial < 15; trial++ {
		h, y, nv, _ := makeInstance(r, c, 4, 4, 6)
		want, err := ml.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sd.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if got.Metric < want.Metric-1e-9 {
			t.Fatalf("FSD metric %v beats ML %v", got.Metric, want.Metric)
		}
	}
}

func TestTraceConservation(t *testing.T) {
	// ChildrenGenerated == NodesExpanded·|Ω| for full-branching strategies,
	// and every generated child is pruned, pushed, or a leaf.
	r := rng.New(13)
	c := constellation.New(constellation.QAM4)
	for _, strat := range []Strategy{SortedDFS, PlainDFS, BestFS, BFS} {
		sd := MustNew(Config{Const: c, Strategy: strat})
		h, y, nv, _ := makeInstance(r, c, 6, 6, 8)
		res, err := sd.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		cnt := res.Counters
		if cnt.ChildrenGenerated != cnt.NodesExpanded*int64(c.Size()) {
			t.Errorf("%v: %d children from %d expansions", strat, cnt.ChildrenGenerated, cnt.NodesExpanded)
		}
		if cnt.LeavesReached == 0 || cnt.RadiusUpdates == 0 {
			t.Errorf("%v: no leaves or radius updates recorded", strat)
		}
		if cnt.RadiusUpdates > cnt.LeavesReached {
			t.Errorf("%v: more radius updates (%d) than leaves (%d)", strat, cnt.RadiusUpdates, cnt.LeavesReached)
		}
	}
}

func TestMSTIntegrityAfterSearch(t *testing.T) {
	r := rng.New(14)
	c := constellation.New(constellation.QAM16)
	sd := MustNew(Config{Const: c, Strategy: SortedDFS})
	h, y, nv, _ := makeInstance(r, c, 5, 5, 8)
	_, info, err := sd.DecodeTraced(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if err := info.MST.Validate(); err != nil {
		t.Fatal(err)
	}
	pop := info.MST.DepthPopulation()
	if pop[0] != 1 {
		t.Fatalf("root population %d", pop[0])
	}
}

func TestMetricMatchesResidual(t *testing.T) {
	// Reported metric must equal ‖y − H·ŝ‖² recomputed directly.
	r := rng.New(15)
	c := constellation.New(constellation.QAM4)
	sd := MustNew(Config{Const: c, Strategy: SortedDFS, UseGEMM: true})
	for trial := 0; trial < 10; trial++ {
		h, y, nv, _ := makeInstance(r, c, 7, 5, 8)
		res, err := sd.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		want := cmatrix.Norm2Sq(cmatrix.VecSub(y, cmatrix.MulVec(h, res.Symbols)))
		if math.Abs(res.Metric-want) > 1e-6*(1+want) {
			t.Fatalf("metric %v, residual %v", res.Metric, want)
		}
	}
}

func TestNodesDecreaseWithSNR(t *testing.T) {
	// The mechanism behind every execution-time figure: higher SNR ⇒
	// tighter first leaf ⇒ fewer expansions. Compare aggregate counts at
	// 0 dB vs 20 dB.
	r := rng.New(16)
	c := constellation.New(constellation.QAM4)
	sd := MustNew(Config{Const: c, Strategy: SortedDFS})
	var lowSNR, highSNR int64
	for trial := 0; trial < 30; trial++ {
		h, y, nv, _ := makeInstance(r, c, 8, 8, 0)
		res, err := sd.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		lowSNR += res.Counters.NodesExpanded
		h, y, nv, _ = makeInstance(r, c, 8, 8, 20)
		res, err = sd.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		highSNR += res.Counters.NodesExpanded
	}
	if highSNR >= lowSNR {
		t.Fatalf("nodes at 20 dB (%d) not below 0 dB (%d)", highSNR, lowSNR)
	}
}

func TestUserRadiusPrunesHarder(t *testing.T) {
	// A tight (but valid) user radius must reduce work relative to +Inf.
	r := rng.New(17)
	c := constellation.New(constellation.QAM4)
	inf := MustNew(Config{Const: c, Strategy: SortedDFS})
	h, y, nv, _ := makeInstance(r, c, 8, 8, 6)
	resInf, err := inf.Decode(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	tight := MustNew(Config{Const: c, Strategy: SortedDFS, InitialRadiusSq: resInf.Metric * 1.01})
	resTight, err := tight.Decode(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if resTight.Counters.NodesExpanded > resInf.Counters.NodesExpanded {
		t.Fatalf("tight radius expanded more nodes (%d > %d)",
			resTight.Counters.NodesExpanded, resInf.Counters.NodesExpanded)
	}
	if math.Abs(resTight.Metric-resInf.Metric) > 1e-6*(1+resInf.Metric) {
		t.Fatalf("tight radius changed the solution: %v vs %v", resTight.Metric, resInf.Metric)
	}
}

func TestBabaiRadiusExactAndNeverRetries(t *testing.T) {
	// The Babai-initialized sphere always contains the Babai leaf, so the
	// search needs no retries and still returns the ML solution.
	r := rng.New(31)
	c := constellation.New(constellation.QAM4)
	ml := decoder.NewML(c)
	sd := MustNew(Config{Const: c, Strategy: SortedDFS, BabaiRadius: true})
	for trial := 0; trial < 20; trial++ {
		h, y, nv, _ := makeInstance(r, c, 5, 5, float64(2+trial%12))
		want, err := ml.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		got, info, err := sd.DecodeTraced(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if info.Retries != 0 {
			t.Fatalf("trial %d: Babai radius retried %d times", trial, info.Retries)
		}
		if math.Abs(got.Metric-want.Metric) > 1e-6*(1+want.Metric) {
			t.Fatalf("trial %d: Babai-radius SD %v vs ML %v", trial, got.Metric, want.Metric)
		}
	}
}

func TestBabaiRadiusReducesNodes(t *testing.T) {
	r := rng.New(32)
	c := constellation.New(constellation.QAM4)
	inf := MustNew(Config{Const: c, Strategy: SortedDFS})
	babai := MustNew(Config{Const: c, Strategy: SortedDFS, BabaiRadius: true})
	var nodesInf, nodesBabai int64
	for trial := 0; trial < 30; trial++ {
		h, y, nv, _ := makeInstance(r, c, 8, 8, 6)
		ri, err := inf.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := babai.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		nodesInf += ri.Counters.NodesExpanded
		nodesBabai += rb.Counters.NodesExpanded
	}
	if nodesBabai > nodesInf {
		t.Fatalf("Babai radius expanded more nodes: %d vs %d", nodesBabai, nodesInf)
	}
}

func TestBabaiRadiusNoiseless(t *testing.T) {
	// With zero noise the Babai point equals the transmitted vector and
	// the sphere collapses to (near) zero — the decode must still succeed.
	r := rng.New(33)
	c := constellation.New(constellation.QAM16)
	sd := MustNew(Config{Const: c, Strategy: SortedDFS, BabaiRadius: true})
	h, y, _, idx := makeInstance(r, c, 5, 5, 300)
	res, err := sd.Decode(h, y, 1e-30)
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx {
		if res.SymbolIdx[i] != idx[i] {
			t.Fatalf("antenna %d: %d vs %d", i, res.SymbolIdx[i], idx[i])
		}
	}
}

func TestDecodeRejectsBadInputs(t *testing.T) {
	c := constellation.New(constellation.QAM4)
	sd := MustNew(Config{Const: c})
	h := channel.Rayleigh(rng.New(18), 4, 4)
	if _, err := sd.Decode(h, make(cmatrix.Vector, 3), 0.1); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := sd.Decode(h, make(cmatrix.Vector, 4), -0.5); err == nil {
		t.Error("negative noise variance accepted")
	}
	if _, err := sd.Decode(h, make(cmatrix.Vector, 4), math.NaN()); err == nil {
		t.Error("NaN noise variance accepted")
	}
	singular := cmatrix.FromSlice(4, 2, []complex128{1, 1, 2, 2, 3, 3, 4, 4})
	if _, err := sd.Decode(singular, make(cmatrix.Vector, 4), 0.1); err == nil {
		t.Error("singular channel accepted")
	}
}

func TestStrategyStrings(t *testing.T) {
	names := map[Strategy]string{
		SortedDFS: "SD-SortedDFS", PlainDFS: "SD-PlainDFS",
		BestFS: "SD-BestFS", BFS: "SD-BFS", FSD: "FSD",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if Strategy(42).String() == "" {
		t.Error("unknown strategy should render")
	}
}

// TestRadiusTrajectory: on a heavy frame, where the LIFO searches truncate
// their improving leaves out of the MST, every trajectory still has one
// entry per radius update, is strictly decreasing, and ends at the final
// radius, which is the reported solution's reduced metric.
func TestRadiusTrajectory(t *testing.T) {
	c := constellation.New(constellation.QAM16)
	h, y, nv := heavyInstance(t, c, 8, 4)
	for _, strat := range lifoStrategies {
		res, info, err := MustNew(Config{Const: c, Strategy: strat}).DecodeTraced(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		traj := info.RadiusTrajectory()
		if len(traj) == 0 || int64(len(traj)) != res.Counters.RadiusUpdates {
			t.Fatalf("%v: trajectory length %d, radius updates %d", strat, len(traj), res.Counters.RadiusUpdates)
		}
		for i := 1; i < len(traj); i++ {
			if traj[i] >= traj[i-1] {
				t.Fatalf("%v: trajectory not strictly decreasing at %d: %v", strat, i, traj)
			}
		}
		if last := traj[len(traj)-1]; last != info.FinalRadiusSq || last > res.Metric+1e-9 {
			t.Fatalf("%v: last trajectory entry %v, final radius² %v, metric %v", strat, last, info.FinalRadiusSq, res.Metric)
		}
	}
	if (&SearchInfo{}).RadiusTrajectory() != nil {
		t.Fatal("empty SearchInfo should yield nil trajectory")
	}
}

func TestMSTBasics(t *testing.T) {
	mst := NewMST(3)
	a := mst.Add(mst.Root(), 2, 1.5)
	b := mst.Add(a, 1, 2.5)
	leaf := mst.Add(b, 0, 3.0)
	if mst.Depth(leaf) != 3 || mst.Symbol(leaf) != 0 || mst.PD(leaf) != 3.0 {
		t.Fatal("bad leaf record")
	}
	if mst.Parent(leaf) != b || mst.Parent(mst.Root()) != -1 {
		t.Fatal("bad parent links")
	}
	dst := make([]int, 3)
	visited := mst.PathSymbols(leaf, 3, dst)
	if visited != 3 {
		t.Fatalf("visited %d records", visited)
	}
	// depth1 node decided antenna 2, depth2 antenna 1, depth3 antenna 0.
	if dst[2] != 2 || dst[1] != 1 || dst[0] != 0 {
		t.Fatalf("path symbols %v", dst)
	}
	if err := mst.Validate(); err != nil {
		t.Fatal(err)
	}
	if mst.Len() != 4 {
		t.Fatalf("len %d", mst.Len())
	}
	// Truncation drops b's subtree; the freed id is reused and the
	// per-depth population stays cumulative.
	mst.Truncate(int(b) + 1)
	if mst.Len() != 3 {
		t.Fatalf("len %d after truncating to %d", mst.Len(), b+1)
	}
	if c := mst.Add(b, 3, 4); c != leaf || mst.Symbol(c) != 3 {
		t.Fatalf("reused id %d holds symbol %d", c, mst.Symbol(c))
	}
	if pop := mst.DepthPopulation(); pop[3] != 2 {
		t.Fatalf("depth-3 population %d, want the cumulative 2", pop[3])
	}
}

func TestMSTValidateDetectsCorruption(t *testing.T) {
	mst := NewMST(2)
	a := mst.Add(mst.Root(), 0, 1.0)
	mst.Add(a, 1, 0.5) // PD decreased along an edge: invalid
	if err := mst.Validate(); err == nil {
		t.Fatal("corrupt MST validated")
	}
}

func TestMSTDepthOverflowPanics(t *testing.T) {
	mst := NewMST(1)
	a := mst.Add(mst.Root(), 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("overdeep Add did not panic")
		}
	}()
	mst.Add(a, 0, 2)
}
