package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/fpga"
	"repro/internal/mimo"
	"repro/internal/rng"
	"repro/internal/sphere"
	"repro/internal/trace"
)

// repeatedChannelBatch builds a batch whose frames all share one channel
// matrix (one coherence block), with independent observations.
func repeatedChannelBatch(t *testing.T, cfg mimo.Config, snr float64, n int, seed uint64) []BatchInput {
	t.Helper()
	inputs, _ := batchFor(t, cfg, snr, n, seed)
	h := inputs[0].H
	for i := range inputs {
		inputs[i].H = h
	}
	return inputs
}

// TestParallelBatchBitExact: the worker-pool batch path must be
// indistinguishable from the serial path — same symbols, metrics, aggregate
// counters, and therefore the same modeled hardware time.
func TestParallelBatchBitExact(t *testing.T) {
	cfg := cfg4()
	serial := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{ScalarEval: true})
	par := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{ScalarEval: true, Workers: 4})
	inputs, _ := batchFor(t, cfg, 8, 24, 401)
	rs, err := serial.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := par.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Results) != len(rs.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(rp.Results), len(rs.Results))
	}
	for i := range rs.Results {
		if rp.Results[i].Metric != rs.Results[i].Metric {
			t.Fatalf("frame %d: metric %v vs %v", i, rp.Results[i].Metric, rs.Results[i].Metric)
		}
		for j := range rs.Results[i].SymbolIdx {
			if rp.Results[i].SymbolIdx[j] != rs.Results[i].SymbolIdx[j] {
				t.Fatalf("frame %d: symbols differ", i)
			}
		}
		if rp.Results[i].Counters != rs.Results[i].Counters {
			t.Fatalf("frame %d: counters differ", i)
		}
	}
	if rp.Counters != rs.Counters {
		t.Fatalf("aggregate counters differ:\nparallel: %+v\n  serial: %+v", rp.Counters, rs.Counters)
	}
	if rp.SimulatedTime != rs.SimulatedTime {
		t.Fatalf("simulated time differs: %v vs %v", rp.SimulatedTime, rs.SimulatedTime)
	}
}

// TestBatchSharedQRCharge: a batch under one coherence block charges the QR
// factorization exactly once; with reuse disabled it is charged per frame.
// Decoded symbols are identical either way.
func TestBatchSharedQRCharge(t *testing.T) {
	cfg := cfg4()
	reuse := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{ScalarEval: true})
	noReuse := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{ScalarEval: true, DisableQRReuse: true})
	const frames = 10
	inputs := repeatedChannelBatch(t, cfg, 8, frames, 402)
	rr, err := reuse.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := noReuse.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	n, m := int64(cfg.Rx), int64(cfg.Tx)
	qr := 32 * n * m * m
	if diff := rn.Counters.TotalFlops() - rr.Counters.TotalFlops(); diff != qr*(frames-1) {
		t.Fatalf("flop delta %d, want %d (QR charged once vs %d times)", diff, qr*(frames-1), frames)
	}
	if rr.Counters.NodesExpanded != rn.Counters.NodesExpanded {
		t.Fatal("QR reuse changed the search")
	}
	for i := range rr.Results {
		for j := range rr.Results[i].SymbolIdx {
			if rr.Results[i].SymbolIdx[j] != rn.Results[i].SymbolIdx[j] {
				t.Fatalf("frame %d: decoded symbols differ under QR reuse", i)
			}
		}
	}
}

// TestBatchSharedQRByContent: content-equal channels under distinct
// pointers (as a deserializing server produces) still share one
// factorization via the fingerprint cache.
func TestBatchSharedQRByContent(t *testing.T) {
	cfg := cfg4()
	a := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{ScalarEval: true})
	const frames = 6
	inputs := repeatedChannelBatch(t, cfg, 8, frames, 403)
	shared, err := a.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	cloned := make([]BatchInput, frames)
	for i, in := range inputs {
		cloned[i] = BatchInput{H: in.H.Clone(), Y: in.Y, NoiseVar: in.NoiseVar}
	}
	cl, err := a.DecodeBatch(cloned)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Counters != shared.Counters {
		t.Fatalf("pointer-shared and content-shared batches traced differently:\n%+v\n%+v",
			shared.Counters, cl.Counters)
	}
}

// TestSingleDecodeCacheHits: repeated single-frame decodes under one
// channel hit the accelerator's preprocessing cache while leaving the trace
// (and thus the modeled hardware time) unchanged.
func TestSingleDecodeCacheHits(t *testing.T) {
	cfg := cfg4()
	cached := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{ScalarEval: true})
	uncached := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{ScalarEval: true, DisableQRReuse: true})
	inputs := repeatedChannelBatch(t, cfg, 8, 5, 404)
	for i, in := range inputs {
		rc, err := cached.Decode(in.H, in.Y, in.NoiseVar)
		if err != nil {
			t.Fatal(err)
		}
		ru, err := uncached.Decode(in.H, in.Y, in.NoiseVar)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Counters != ru.Counters {
			t.Fatalf("frame %d: cache changed the trace", i)
		}
	}
	hits, misses := cached.PreprocessCacheStats()
	if misses != 1 || hits != 4 {
		t.Fatalf("cache stats %d hits / %d misses, want 4/1", hits, misses)
	}
	if h, m := uncached.PreprocessCacheStats(); h != 0 || m != 0 {
		t.Fatalf("disabled cache reported traffic: %d/%d", h, m)
	}
}

// TestParallelNodeBudget: the worker-shared atomic node budget must cover
// every frame, flag the shed ones, and stay in the budget's neighbourhood
// (overshoot is bounded by the frames in flight when the pool empties).
func TestParallelNodeBudget(t *testing.T) {
	cfg := cfg4()
	a := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{ScalarEval: true, Workers: 4})
	inputs, _ := batchFor(t, cfg, 6, 16, 405)
	full, err := a.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	budget := full.Counters.NodesExpanded / 8
	if budget < 1 {
		budget = 1
	}
	rep, err := a.DecodeBatch(inputs, WithBudget(BatchBudget{NodeBudget: budget}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(inputs) {
		t.Fatalf("%d/%d results", len(rep.Results), len(inputs))
	}
	if !rep.Degraded {
		t.Fatal("starved parallel batch not flagged degraded")
	}
	// Each in-flight frame searches with a snapshot of the remaining pool,
	// so total spend is bounded by workers × budget in the worst case.
	if rep.Counters.NodesExpanded > 4*budget {
		t.Fatalf("spent %d nodes on a %d budget across 4 workers", rep.Counters.NodesExpanded, budget)
	}
	for i, res := range rep.Results {
		if len(res.SymbolIdx) != cfg.Tx {
			t.Fatalf("frame %d: %d symbols", i, len(res.SymbolIdx))
		}
		if res.Quality.Degraded() && res.DegradedBy == "" {
			t.Fatalf("frame %d degraded without attribution", i)
		}
	}
	total := 0
	for _, n := range rep.QualityCounts {
		total += n
	}
	if total != len(inputs) {
		t.Fatalf("quality histogram covers %d/%d frames", total, len(inputs))
	}
}

// TestAcceleratorConcurrentHammer drives one Accelerator from many
// goroutines mixing single decodes and parallel batches; under -race this
// is the thread-safety check for the shared cache + pooled search state.
// It runs at the default cache size, at one smaller than the channel set
// (so released handles are evicted and recycled under load), and with the
// cross-batch cache off (pooled batch-local caches).
func TestAcceleratorConcurrentHammer(t *testing.T) {
	cfg := cfg4()
	inputs, _ := batchFor(t, cfg, 8, 8, 406)
	for _, entries := range []int{0, 4, -1} {
		a := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{ScalarEval: true, Workers: 2, PreprocessCacheEntries: entries})
		want, err := a.DecodeBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rng.New(uint64(500 + w))
				for i := 0; i < 10; i++ {
					if w%2 == 0 {
						rep, err := a.DecodeBatch(inputs)
						if err != nil {
							t.Error(err)
							return
						}
						if rep.Counters != want.Counters {
							t.Errorf("cache entries %d: concurrent batch diverged", entries)
							return
						}
						for j, res := range rep.Results {
							if res.Metric != want.Results[j].Metric {
								t.Errorf("cache entries %d: frame %d metric %g, want %g", entries, j, res.Metric, want.Results[j].Metric)
								return
							}
						}
					} else {
						f, err := mimo.GenerateFrame(r, cfg, 8)
						if err != nil {
							t.Error(err)
							return
						}
						if _, err := a.Decode(f.H, f.Y, f.NoiseVar); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestWorkersOption resolves the Workers knob.
func TestWorkersOption(t *testing.T) {
	cfg := cfg4()
	auto := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{Workers: -1})
	if auto.workers < 1 {
		t.Fatalf("negative Workers resolved to %d", auto.workers)
	}
	one := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{})
	if one.workers != 1 {
		t.Fatalf("default Workers resolved to %d", one.workers)
	}
}

// minAllocs is testing.AllocsPerRun's best of three attempts, so a GC that
// empties the search pool mid-measurement does not count against the path.
func minAllocs(f func()) float64 {
	best := math.Inf(1)
	for range 3 {
		best = min(best, testing.AllocsPerRun(20, f))
	}
	return best
}

// TestBatchAllocParity: a budget or a trace changes how long the frame loop
// runs, not what it allocates. Under a node budget or a modeled-time
// deadline that never binds, and with tracing minus the trace objects
// themselves, a 32-frame batch allocates exactly what the plain batch does.
func TestBatchAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const frames = 32
	cfg := mimo.Config{Tx: 4, Rx: 4, Mod: constellation.QAM4}
	inputs, _ := batchFor(t, cfg, 10, frames, 407)
	for _, st := range []sphere.Strategy{sphere.SortedDFS, sphere.RealSE} {
		a := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{Strategy: st})
		decode := func(opts ...BatchOption) func() {
			return func() {
				if _, err := a.DecodeBatch(inputs, opts...); err != nil {
					t.Fatal(err)
				}
			}
		}
		decode()() // warm the QR cache
		plain := minAllocs(decode())
		for _, mode := range []struct {
			name string
			opt  BatchOption
		}{
			{"node-budget", WithBudget(BatchBudget{NodeBudget: math.MaxInt64 / 2})},
			{"deadline", WithBudget(BatchBudget{Deadline: time.Hour})},
		} {
			if got := minAllocs(decode(mode.opt)); got != plain {
				t.Errorf("%v %s: %.2f allocs/frame, plain %.2f", st, mode.name, got/frames, plain/frames)
			}
		}

		// The traced batch's own trace objects: the batch trace with its two
		// phase spans and frame slice, and one SearchTrace per frame replayed
		// through the same recorder calls that allocate.
		ref := trace.NewBatchTrace()
		if _, err := a.DecodeBatch(inputs, WithTrace(ref)); err != nil {
			t.Fatal(err)
		}
		traceObjects := minAllocs(func() {
			bt := trace.NewBatchTrace()
			bt.AddPhase("preprocess", time.Time{}, time.Time{})
			bt.Frames = make([]*trace.SearchTrace, frames)
			for i, rf := range ref.Frames {
				ft := trace.NewSearchTrace()
				ft.SearchStart(rf.M, rf.Alphabet, rf.InitialRadiusSq)
				for _, p := range rf.Radius {
					ft.RadiusUpdate(p.RadiusSq)
				}
				bt.Frames[i] = ft
			}
			bt.AddPhase("search", time.Time{}, time.Time{})
		})
		traced := minAllocs(func() {
			if _, err := a.DecodeBatch(inputs, WithTrace(trace.NewBatchTrace())); err != nil {
				t.Fatal(err)
			}
		})
		if got := traced - traceObjects; got != plain {
			t.Errorf("%v traced: %.2f allocs/frame beyond its trace objects, plain %.2f", st, got/frames, plain/frames)
		}
		t.Logf("%v: %.2f allocs/frame", st, plain/frames)
	}
}
