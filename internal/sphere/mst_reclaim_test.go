package sphere

import (
	"math"
	"testing"
	"time"

	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/rng"
)

// lifoStrategies are the strict-LIFO searches whose MST truncates on pop.
var lifoStrategies = []Strategy{SortedDFS, PlainDFS, RealSE}

// heavyInstance draws n×n frames of c at snrDB from a fixed seed until one
// costs the sorted DFS at least 1000 expansions.
func heavyInstance(t *testing.T, c *constellation.Constellation, n int, snrDB float64) (*cmatrix.Matrix, cmatrix.Vector, float64) {
	t.Helper()
	r := rng.New(7)
	d := MustNew(Config{Const: c})
	for i := 0; i < 20; i++ {
		h, y, nv, _ := makeInstance(r, c, n, n, snrDB)
		res, err := d.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.NodesExpanded >= 1000 {
			return h, y, nv
		}
	}
	t.Fatal("no heavy frame in 20 draws")
	return nil, nil, 0
}

// arenaBound is the LIFO arena's capacity: the root plus one sibling batch
// per level of the search tree.
func arenaBound(d *SD, m int) int {
	if d.cfg.Strategy == RealSE {
		return 1 + 2*m*len(d.pam)
	}
	return 1 + m*d.cfg.Const.Size()
}

// TestLIFOArenaBounded: on a heavy 8×8 16-QAM frame every LIFO search ends
// with at most 1 + height·branching MST records, although it created far
// more, and the table still passes its structural checks. The peak,
// sampled at every expansion through OnExpand, obeys the same bound.
func TestLIFOArenaBounded(t *testing.T) {
	c := constellation.New(constellation.QAM16)
	h, y, nv := heavyInstance(t, c, 8, 4)
	pre, err := Preprocess(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range lifoStrategies {
		d := MustNew(Config{Const: c, Strategy: strat})
		bound := arenaBound(d, 8)
		res, info, err := d.DecodeTraced(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.NodesExpanded < 1000 {
			t.Fatalf("%v: %d expansions, want a heavy frame (≥1000)", strat, res.Counters.NodesExpanded)
		}
		if n := info.MST.Len(); n > bound {
			t.Errorf("%v: final MST holds %d records, bound %d", strat, n, bound)
		}
		if err := info.MST.Validate(); err != nil {
			t.Errorf("%v: %v", strat, err)
		}
		var created int64
		for _, n := range info.MST.DepthPopulation() {
			created += n
		}
		if created <= int64(bound) {
			t.Errorf("%v: only %d records created; the frame does not exercise reclamation", strat, created)
		}

		// Peak occupancy: drive the pooled search directly so OnExpand can
		// read its live table.
		cfg := d.cfg
		var st *search
		peak := 0
		cfg.OnExpand = func(int) { peak = max(peak, st.mst.Len()) }
		if strat == RealSE {
			st = acquireRealSearch(&cfg, pre.Real(), d.pam, Limits{})
			st.computeRealYbar(pre, y)
		} else {
			st = acquireSearch(&cfg, pre.complexR(), Limits{})
			st.computeYbar(pre, y)
		}
		if _, _, err := st.runAttempts(math.Inf(1), time.Time{}, 0, 0); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, st.mst.Len())
		st.release()
		if peak > bound {
			t.Errorf("%v: peak MST occupancy %d records, bound %d", strat, peak, bound)
		}
	}
}

// TestLIFOStrategiesMatchExhaustiveML: over 240 seeded small instances at
// low to moderate SNR (deep enough trees that truncated ids get reused at
// the depth they were freed from), every LIFO search returns the
// exhaustive ML decision. This pins updatePath writing the popped node's
// own path entry even when a stale entry carries the same id.
func TestLIFOStrategiesMatchExhaustiveML(t *testing.T) {
	type shape struct {
		mod  constellation.Modulation
		n, m int
	}
	shapes := []shape{{constellation.QAM4, 5, 5}, {constellation.QAM16, 3, 3}}
	for _, sh := range shapes {
		c := constellation.New(sh.mod)
		ml := decoder.NewML(c)
		decs := make([]*SD, len(lifoStrategies))
		for i, strat := range lifoStrategies {
			decs[i] = MustNew(Config{Const: c, Strategy: strat})
		}
		r := rng.New(uint64(200 + sh.m))
		for trial := 0; trial < 120; trial++ {
			snr := float64(trial%4) * 3 // 0, 3, 6, 9 dB
			h, y, nv, _ := makeInstance(r, c, sh.n, sh.m, snr)
			want, err := ml.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range decs {
				got, err := d.Decode(h, y, nv)
				if err != nil {
					t.Fatalf("%v %v trial %d: %v", sh.mod, lifoStrategies[i], trial, err)
				}
				if math.Abs(got.Metric-want.Metric) > 1e-9*(1+want.Metric) {
					t.Fatalf("%v %v trial %d: SD metric %v, ML %v", sh.mod, lifoStrategies[i], trial, got.Metric, want.Metric)
				}
				for k := range want.SymbolIdx {
					if got.SymbolIdx[k] != want.SymbolIdx[k] {
						t.Fatalf("%v %v trial %d: symbols %v, ML %v", sh.mod, lifoStrategies[i], trial, got.SymbolIdx, want.SymbolIdx)
					}
				}
			}
		}
	}
}
