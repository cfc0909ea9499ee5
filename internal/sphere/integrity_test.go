package sphere

import (
	"math"
	"testing"

	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/integrity"
	"repro/internal/rng"
)

// residualL2Sq recomputes ‖y − H·ŝ‖₂² directly from the original inputs —
// the independent re-encode every reported ℓ² metric must match.
func residualL2Sq(h *cmatrix.Matrix, y cmatrix.Vector, syms cmatrix.Vector) float64 {
	return cmatrix.Norm2Sq(cmatrix.VecSub(y, cmatrix.MulVec(h, syms)))
}

// residualLInfSq recomputes the reduced-domain ℓ∞ metric from a fresh
// factorization: max over real-embedded coordinates of (ȳr − Rr·ŝr)².
func residualLInfSq(t *testing.T, h *cmatrix.Matrix, y cmatrix.Vector, syms cmatrix.Vector) float64 {
	t.Helper()
	pre, err := Preprocess(h)
	if err != nil {
		t.Fatal(err)
	}
	rp := pre.Real()
	ybar := pre.rotate(make(cmatrix.Vector, pre.N), y)
	dim := rp.Dim
	rybar := make([]float64, dim)
	sr := make([]float64, dim)
	for k := 0; k < len(ybar); k++ {
		rybar[2*k], rybar[2*k+1] = real(ybar[k]), imag(ybar[k])
		sr[2*k], sr[2*k+1] = real(syms[k]), imag(syms[k])
	}
	worst := 0.0
	for k := 0; k < dim; k++ {
		diff := rybar[k]
		row := rp.R[k*dim : (k+1)*dim]
		for j := k; j < dim; j++ {
			diff -= row[j] * sr[j]
		}
		if d2 := diff * diff; d2 > worst {
			worst = d2
		}
	}
	return worst
}

// TestMetricMatchesReEncodedResidual is the metric-integrity property: for
// every strategy × norm combination, the reported metric of an exact decode
// equals the independently recomputed residual of the returned symbol vector
// (ℓ²: complex-domain re-encode; ℓ∞: reduced-domain re-encode from a fresh
// factorization), and a budget-truncated decode reports a metric that is
// still the honest residual of whatever point it returned — never below the
// exact decode's.
func TestMetricMatchesReEncodedResidual(t *testing.T) {
	c := constellation.New(constellation.QAM16)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"SortedDFS-l2", Config{Const: c, Strategy: SortedDFS, UseGEMM: true}},
		{"PlainDFS-l2", Config{Const: c, Strategy: PlainDFS}},
		{"BestFS-l2", Config{Const: c, Strategy: BestFS, UseGEMM: true}},
		{"BFS-l2", Config{Const: c, Strategy: BFS, UseGEMM: true}},
		{"FSD-l2", Config{Const: c, Strategy: FSD}},
		{"RealSE-l2", Config{Const: c, Strategy: RealSE}},
		{"RealSE-linf", Config{Const: c, Strategy: RealSE, Norm: NormLInf}},
		{"SortedDFS-l2-verify", Config{Const: c, Strategy: SortedDFS, VerifyGEMM: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := MustNew(tc.cfg)
			r := rng.New(97)
			for trial := 0; trial < 25; trial++ {
				h, y, nv, _ := makeInstance(r, c, 6, 6, 10)
				res, err := d.Decode(h, y, nv)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				resL2 := residualL2Sq(h, y, res.Symbols)
				tol := 1e-9 * (cmatrix.Norm2Sq(y) + resL2 + 1)
				if tc.cfg.Norm == NormLInf {
					want := residualLInfSq(t, h, y, res.Symbols)
					if math.Abs(res.Metric-want) > tol {
						t.Fatalf("trial %d: linf metric %g vs re-encoded %g", trial, res.Metric, want)
					}
					if res.Metric > resL2+tol {
						t.Fatalf("trial %d: linf metric %g exceeds l2 residual %g", trial, res.Metric, resL2)
					}
				} else if math.Abs(res.Metric-resL2) > tol {
					t.Fatalf("trial %d: metric %g vs re-encoded residual %g (quality %v)",
						trial, res.Metric, resL2, res.Quality)
				}
			}
		})
	}
}

// TestMetricHonestUnderTruncation pins the best-effort half of the property:
// a starved search still reports the true residual of the point it returns,
// which is ≥ the exact decode's metric.
func TestMetricHonestUnderTruncation(t *testing.T) {
	c := constellation.New(constellation.QAM16)
	for _, strat := range []Strategy{SortedDFS, BestFS, BFS, RealSE} {
		exact := MustNew(Config{Const: c, Strategy: strat})
		starved := MustNew(Config{Const: c, Strategy: strat, MaxNodes: 3})
		r := rng.New(131)
		sawDegraded := false
		for trial := 0; trial < 30; trial++ {
			h, y, nv, _ := makeInstance(r, c, 8, 8, 6)
			want, err := exact.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			got, err := starved.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			if got.Quality.Degraded() {
				sawDegraded = true
			}
			resL2 := residualL2Sq(h, y, got.Symbols)
			tol := 1e-9 * (cmatrix.Norm2Sq(y) + resL2 + 1)
			if math.Abs(got.Metric-resL2) > tol {
				t.Fatalf("%v trial %d: truncated metric %g vs residual %g",
					strat, trial, got.Metric, resL2)
			}
			if got.Metric < want.Metric-tol {
				t.Fatalf("%v trial %d: truncated metric %g beats exact %g",
					strat, trial, got.Metric, want.Metric)
			}
		}
		if !sawDegraded {
			t.Fatalf("%v: MaxNodes=3 never degraded a decode; the truncation half of the property went untested", strat)
		}
	}
}

// TestCacheEvictsCorruptedEntry is the verify-on-hit regression test: a
// cached factorization poisoned after construction (NaN write or plain bit
// flip in R) must be evicted and refactored on the next hit — never served —
// and the eviction must be counted.
func TestCacheEvictsCorruptedEntry(t *testing.T) {
	r := rng.New(7)
	c := constellation.New(constellation.QAM4)
	cache := NewPreprocessCache(4)
	h, _, _, _ := makeInstance(r, c, 6, 6, 8)

	pre, err := cache.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	// Poison the cached R with NaN — the exact failure the old bit-compare
	// of H could never see.
	pre.rp.R[3] = math.NaN()
	fresh, err := cache.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == pre {
		t.Fatal("poisoned cache entry served again")
	}
	for _, x := range fresh.Real().R {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("refactored entry still non-finite")
		}
	}
	if got := cache.SDCEvictions(); got != 1 {
		t.Fatalf("SDCEvictions = %d, want 1", got)
	}

	// A subtle flip (no NaN) must be caught the same way.
	if !cache.CorruptEntry(5) {
		t.Fatal("CorruptEntry found nothing to corrupt")
	}
	again, err := cache.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	if again == fresh {
		t.Fatal("bit-flipped cache entry served again")
	}
	if got := cache.SDCEvictions(); got != 2 {
		t.Fatalf("SDCEvictions = %d, want 2", got)
	}
	hits, misses := cache.Stats()
	if hits != 0 || misses != 3 {
		t.Fatalf("stats (hits=%d, misses=%d), want (0, 3)", hits, misses)
	}

	// The corrupted real factor is caught too.
	pre3, err := cache.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	rp := pre3.Real()
	rp.R[2] = math.Float64frombits(math.Float64bits(rp.R[2]) ^ (1 << 51))
	pre4, err := cache.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	if pre4 == pre3 {
		t.Fatal("entry with corrupted real factor served again")
	}
}

// TestVerifyGEMMDetectsAndRepairs drives decodes with the chaos GEMM-fault
// hook armed on every product: ABFT must catch each injected flip, repair it
// in place, and still return the ML answer with an honest metric.
func TestVerifyGEMMDetectsAndRepairs(t *testing.T) {
	c := constellation.New(constellation.QAM4)
	r := rng.New(11)
	clean := MustNew(Config{Const: c, Strategy: SortedDFS, UseGEMM: true})
	armed := MustNew(Config{
		Const:      c,
		Strategy:   SortedDFS,
		VerifyGEMM: true,
		GEMMFault:  func() bool { return true },
	})
	if !armed.Config().UseGEMM {
		t.Fatal("VerifyGEMM did not imply UseGEMM")
	}
	for trial := 0; trial < 20; trial++ {
		h, y, nv, _ := makeInstance(r, c, 6, 6, 8)
		want, err := clean.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		got, err := armed.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters.SDCDetected == 0 {
			t.Fatalf("trial %d: no corruption detected despite armed fault hook", trial)
		}
		if got.Counters.SDCRecovered != got.Counters.SDCDetected {
			t.Fatalf("trial %d: detected %d but recovered %d", trial,
				got.Counters.SDCDetected, got.Counters.SDCRecovered)
		}
		if got.Metric > want.Metric*(1+1e-9)+1e-12 {
			t.Fatalf("trial %d: repaired decode metric %g worse than clean %g",
				trial, got.Metric, want.Metric)
		}
		resL2 := residualL2Sq(h, y, got.Symbols)
		if math.Abs(got.Metric-resL2) > 1e-9*(cmatrix.Norm2Sq(y)+1) {
			t.Fatalf("trial %d: repaired metric %g vs residual %g", trial, got.Metric, resL2)
		}
	}

	// A clean verified decoder detects nothing and stays exact.
	verified := MustNew(Config{Const: c, Strategy: SortedDFS, VerifyGEMM: true})
	h, y, nv, _ := makeInstance(r, c, 6, 6, 8)
	res, err := verified.Decode(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SDCDetected != 0 {
		t.Fatalf("clean decode reported %d false SDC detections", res.Counters.SDCDetected)
	}
	if res.Quality != decoder.QualityExact {
		t.Fatalf("clean verified decode quality %v", res.Quality)
	}

	// BFS exercises the frontier-batched product's verify path.
	bfsArmed := MustNew(Config{
		Const: c, Strategy: BFS, VerifyGEMM: true,
		GEMMFault: func() bool { return true },
	})
	res, err = bfsArmed.Decode(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SDCDetected == 0 || res.Counters.SDCRecovered != res.Counters.SDCDetected {
		t.Fatalf("BFS verify: detected=%d recovered=%d",
			res.Counters.SDCDetected, res.Counters.SDCRecovered)
	}

	// The detection-site label must exist for consumers.
	if integrity.SiteGEMM == "" {
		t.Fatal("missing site label")
	}
}
