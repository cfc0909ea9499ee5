package sphere

import (
	"math"
	"testing"

	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestRealSENoiseScaledStartMatchesML: ℓ² RealSE starts from the sphere
// r² = 2·N·σ² by default, and must still return the exhaustive ML decision
// at every SNR, including noiseless links. Low-SNR instances put the ML
// point outside the first sphere, so some decodes must take radius-doubling
// retries — the path that keeps the small start exact.
func TestRealSENoiseScaledStartMatchesML(t *testing.T) {
	r := rng.New(2024)
	cases := []struct {
		mod  constellation.Modulation
		n, m int
	}{
		{constellation.QAM4, 3, 3},
		{constellation.QAM4, 4, 4},
		{constellation.QAM16, 3, 3},
	}
	snrs := []float64{0, 6, 14, 30, math.Inf(1)} // +Inf: NoiseVar 0
	const trials = 14
	instances, retried := 0, 0
	for _, tc := range cases {
		c := constellation.New(tc.mod)
		ml := decoder.NewML(c)
		d := MustNew(Config{Const: c, Strategy: RealSE})
		for _, snr := range snrs {
			for trial := 0; trial < trials; trial++ {
				h, y, nv, _ := makeInstance(r, c, tc.n, tc.m, snr)
				if math.IsInf(snr, 1) && nv != 0 {
					t.Fatalf("noiseless instance has noise variance %v", nv)
				}
				want, err := ml.Decode(h, y, nv)
				if err != nil {
					t.Fatal(err)
				}
				got, info, err := d.DecodeTraced(h, y, nv)
				if err != nil {
					t.Fatalf("%v %dx%d %v dB trial %d: %v", tc.mod, tc.n, tc.m, snr, trial, err)
				}
				if got.Quality != decoder.QualityExact {
					t.Fatalf("%v %dx%d %v dB trial %d: quality %v", tc.mod, tc.n, tc.m, snr, trial, got.Quality)
				}
				if math.Abs(got.Metric-want.Metric) > 1e-6*(1+want.Metric) {
					t.Fatalf("%v %dx%d %v dB trial %d: SD metric %v, ML %v",
						tc.mod, tc.n, tc.m, snr, trial, got.Metric, want.Metric)
				}
				instances++
				if info.Retries > 0 {
					retried++
				}
			}
		}
	}
	if instances < 200 {
		t.Fatalf("only %d instances", instances)
	}
	if retried == 0 {
		t.Fatalf("no instance out of %d took a radius-doubling retry; the test does not reach the retry path", instances)
	}
	t.Logf("%d instances, %d retried", instances, retried)
}

// TestRealSETraceStartsAtNoiseScaledSphere: a traced ℓ² RealSE decode
// announces its search at 2·N·σ², and the first improving leaf lies inside
// the sphere of the attempt that found it.
func TestRealSETraceStartsAtNoiseScaledSphere(t *testing.T) {
	r := rng.New(31)
	c := constellation.New(constellation.QAM16)
	rec := trace.NewSearchTrace()
	d := MustNew(Config{Const: c, Strategy: RealSE, Recorder: rec})
	const n, m = 6, 6
	for trial := 0; trial < 20; trial++ {
		h, y, nv, _ := makeInstance(r, c, n, m, 12)
		_, info, err := d.DecodeTraced(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		start := 2 * n * nv
		if math.Abs(rec.InitialRadiusSq-start) > 1e-12*start {
			t.Fatalf("trial %d: search started at r² = %v, want 2·N·σ² = %v", trial, rec.InitialRadiusSq, start)
		}
		// The improving leaves lie inside the sphere of the attempt that
		// found them, the start doubled once per retry.
		inside := start * math.Ldexp(1, info.Retries)
		traj := info.RadiusTrajectory()
		if len(traj) == 0 || traj[0] >= inside {
			t.Fatalf("trial %d: trajectory %v does not start inside r² = %v", trial, traj, inside)
		}
	}
}

// TestDefaultStartPerStrategy pins which searches start unbounded: the
// complex depth-first strategies the paper reproduces, ℓ∞ RealSE, and any
// search given InitialRadiusSq = +Inf explicitly.
func TestDefaultStartPerStrategy(t *testing.T) {
	c := constellation.New(constellation.QAM4)
	const n, m = 4, 4
	h, y, nv, _ := makeInstance(rng.New(5), c, n, m, 10)
	cases := []struct {
		name string
		cfg  Config
		want float64
	}{
		{"sorted-dfs", Config{Strategy: SortedDFS}, math.Inf(1)},
		{"plain-dfs", Config{Strategy: PlainDFS}, math.Inf(1)},
		{"best-fs", Config{Strategy: BestFS}, math.Inf(1)},
		{"rvd-se-linf", Config{Strategy: RealSE, Norm: NormLInf}, math.Inf(1)},
		{"rvd-se-unbounded", Config{Strategy: RealSE, InitialRadiusSq: math.Inf(1)}, math.Inf(1)},
		{"rvd-se", Config{Strategy: RealSE}, 2 * n * nv},
		{"rvd-se-scaled", Config{Strategy: RealSE, RadiusScale: 3}, 3 * n * nv},
	}
	for _, tc := range cases {
		rec := trace.NewSearchTrace()
		cfg := tc.cfg
		cfg.Const, cfg.Recorder = c, rec
		_, _, err := MustNew(cfg).DecodeTraced(h, y, nv)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := tc.want; rec.InitialRadiusSq != want && math.Abs(rec.InitialRadiusSq-want) > 1e-12*want {
			t.Errorf("%s: search started at r² = %v, want %v", tc.name, rec.InitialRadiusSq, want)
		}
	}
}

// TestRealSEBudgetBeforeFirstLeaf: a node budget too small to reach the
// first leaf from the noise-scaled start degrades to the linear floor — a
// flagged, non-exact decision no worse than ZF — and never errors.
func TestRealSEBudgetBeforeFirstLeaf(t *testing.T) {
	r := rng.New(41)
	c := constellation.New(constellation.QAM16)
	zf := decoder.NewZF(c)
	const n, m = 6, 6
	d := MustNew(Config{Const: c, Strategy: RealSE, MaxNodes: 2 * m / 3}) // the real tree is 2M deep
	for _, snr := range []float64{2, 14} {
		for trial := 0; trial < 20; trial++ {
			h, y, nv, _ := makeInstance(r, c, n, m, snr)
			res, err := d.Decode(h, y, nv)
			if err != nil {
				t.Fatalf("%v dB trial %d: %v", snr, trial, err)
			}
			if res.Quality != decoder.QualityFallback || res.DegradedBy != decoder.DegradedByBudget {
				t.Fatalf("%v dB trial %d: quality %v/%q, want fallback/budget", snr, trial, res.Quality, res.DegradedBy)
			}
			zres, err := zf.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metric > zres.Metric*(1+1e-9) {
				t.Fatalf("%v dB trial %d: metric %v worse than ZF %v", snr, trial, res.Metric, zres.Metric)
			}
		}
	}
}

// TestRealSETinyNoiseDecodesExactly: a noiseless link reported with a tiny
// positive noise variance puts the noise-scaled start far below the
// floating-point residual of the transmitted point. The retries must end in
// an unbounded attempt that decodes the frame exactly, as a +Inf start
// would, never in ErrNoLeaf.
func TestRealSETinyNoiseDecodesExactly(t *testing.T) {
	r := rng.New(17)
	c := constellation.New(constellation.QAM16)
	d := MustNew(Config{Const: c, Strategy: RealSE})
	const n, m = 6, 6
	for trial := 0; trial < 5; trial++ {
		h, y, _, want := makeInstance(r, c, n, m, math.Inf(1))
		res, info, err := d.DecodeTraced(h, y, 1e-300)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Quality != decoder.QualityExact {
			t.Fatalf("trial %d: quality %v", trial, res.Quality)
		}
		if !math.IsInf(info.FinalRadiusSq, 1) && info.Retries <= maxRadiusDoublings {
			t.Fatalf("trial %d: %d retries ending at r² = %v; the start was not too small", trial, info.Retries, info.FinalRadiusSq)
		}
		for j := range want {
			if res.SymbolIdx[j] != want[j] {
				t.Fatalf("trial %d: symbols %v, sent %v", trial, res.SymbolIdx, want)
			}
		}
	}
}

// expansionCounter is a recorder that counts every expansion it is told
// about, whatever the search announces in between.
type expansionCounter struct{ nodes int64 }

func (c *expansionCounter) SearchStart(m, alphabet int, radiusSq float64) {}
func (c *expansionCounter) NodeExpanded(depth int)                        { c.nodes++ }
func (c *expansionCounter) Children(depth, pruned, kept int)              {}
func (c *expansionCounter) RadiusUpdate(radiusSq float64)                 {}
func (c *expansionCounter) Degraded(reason string)                        {}
func (c *expansionCounter) SearchEnd(finalRadiusSq float64, retries int)  {}

// TestNodeBudgetSpansRetries: MaxNodes caps a decode's expansions summed
// over its radius-doubling attempts, not each attempt's, and the counters
// report that sum.
func TestNodeBudgetSpansRetries(t *testing.T) {
	r := rng.New(23)
	c := constellation.New(constellation.QAM16)
	const n, m, budget = 6, 6, 40
	for _, strat := range []Strategy{RealSE, SortedDFS} {
		retried := 0
		for trial := 0; trial < 20; trial++ {
			h, y, nv, _ := makeInstance(r, c, n, m, 14)
			rec := &expansionCounter{}
			d := MustNew(Config{Const: c, Strategy: strat, InitialRadiusSq: 1e-9, MaxNodes: budget, Recorder: rec})
			res, info, err := d.DecodeTraced(h, y, nv)
			if err != nil {
				t.Fatalf("%v trial %d: %v", strat, trial, err)
			}
			if info.Retries > 0 {
				retried++
			}
			if rec.nodes > budget {
				t.Fatalf("%v trial %d: %d expansions over %d attempts, budget %d",
					strat, trial, rec.nodes, info.Retries+1, budget)
			}
			if res.Counters.NodesExpanded != rec.nodes {
				t.Fatalf("%v trial %d: counters report %d expansions, recorder saw %d",
					strat, trial, res.Counters.NodesExpanded, rec.nodes)
			}
		}
		if retried == 0 {
			t.Fatalf("%v: no decode retried from r² = 1e-9; the test does not reach the retry path", strat)
		}
	}
}
