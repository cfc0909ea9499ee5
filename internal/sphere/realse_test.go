package sphere

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/rng"
)

// interleavedEmbed builds the interleaved real embedding of a complex n×m
// matrix (row pairs [Re; Im] per receive dim, column pairs [Re, Im] per
// transmit dim). Test-local: the production path derives its factor from the
// complex QR instead of ever materializing this matrix.
func interleavedEmbed(h *cmatrix.Matrix) (rows, cols int, a []float64) {
	n, m := h.Rows, h.Cols
	rows, cols = 2*n, 2*m
	a = make([]float64, rows*cols)
	for i := 0; i < n; i++ {
		top := a[(2*i)*cols : (2*i+1)*cols]
		bot := a[(2*i+1)*cols : (2*i+2)*cols]
		for j := 0; j < m; j++ {
			v := h.At(i, j)
			top[2*j], top[2*j+1] = real(v), -imag(v)
			bot[2*j], bot[2*j+1] = imag(v), real(v)
		}
	}
	return rows, cols, a
}

// realReducedSetup returns the interleaved real factor and rotated receive
// vector for one instance — the reduced system the RealSE tree searches.
func realReducedSetup(t *testing.T, h *cmatrix.Matrix, y cmatrix.Vector) (*RealPre, []float64) {
	t.Helper()
	pre, err := Preprocess(h)
	if err != nil {
		t.Fatal(err)
	}
	rp := pre.Real()
	ybarC := pre.rotate(make(cmatrix.Vector, pre.N), y)
	rybar := make([]float64, rp.Dim)
	for k, v := range ybarC {
		rybar[2*k], rybar[2*k+1] = real(v), imag(v)
	}
	return rp, rybar
}

// realMetric evaluates the reduced-domain metric of a candidate symbol
// vector under the given norm: ‖ȳr − Rr·sr‖² (sum) or the max over
// coordinates of the squared residual (ℓ∞).
func realMetric(rp *RealPre, rybar []float64, c *constellation.Constellation, idx []int, norm Norm) float64 {
	dim := rp.Dim
	vals := make([]float64, dim)
	for j, id := range idx {
		s := c.Symbol(id)
		vals[2*j], vals[2*j+1] = real(s), imag(s)
	}
	metric := 0.0
	for k := 0; k < dim; k++ {
		row := rp.R[k*dim : (k+1)*dim]
		diff := rybar[k]
		for i := k; i < dim; i++ {
			diff -= row[i] * vals[i]
		}
		if norm == NormLInf {
			if diff*diff > metric {
				metric = diff * diff
			}
		} else {
			metric += diff * diff
		}
	}
	return metric
}

// TestRealPreMatchesQRReal pins the derivation the hot path rests on: the
// interleaved embedding of the cached complex factor must BE the real QR
// factor of the interleaved channel embedding (uniqueness of the thin QR
// with positive diagonal), so deriving it by shuffle is exact — no second
// factorization is needed.
func TestRealPreMatchesQRReal(t *testing.T) {
	r := rng.New(91)
	c := constellation.New(constellation.QAM16)
	for trial := 0; trial < 10; trial++ {
		h, y, _, _ := makeInstance(r, c, 6, 5, 10)
		pre, err := Preprocess(h)
		if err != nil {
			t.Fatal(err)
		}
		rp := pre.Real()
		rows, cols, emb := interleavedEmbed(h)
		if rp.Dim != cols {
			t.Fatalf("trial %d: Dim %d, embedding has %d columns", trial, rp.Dim, cols)
		}
		f, err := cmatrix.QRReal(rows, cols, emb)
		if err != nil {
			t.Fatal(err)
		}
		var scale float64
		for _, v := range f.R {
			if math.Abs(v) > scale {
				scale = math.Abs(v)
			}
		}
		for i := 0; i < cols; i++ {
			if rp.R[i*cols+i] <= 0 {
				t.Fatalf("trial %d: derived diagonal %d not positive", trial, i)
			}
			for j := 0; j < cols; j++ {
				if j < i && rp.R[i*cols+j] != 0 {
					t.Fatalf("trial %d: derived factor not triangular at (%d,%d)", trial, i, j)
				}
				if d := math.Abs(rp.R[i*cols+j] - f.R[i*cols+j]); d > 1e-9*scale {
					t.Fatalf("trial %d: R(%d,%d) derived %v vs factored %v",
						trial, i, j, rp.R[i*cols+j], f.R[i*cols+j])
				}
			}
		}
		// The matching rotation identity: interleaving Qᴴy must agree with
		// the real rotation Qrᵀ·yr of the factored embedding.
		_, rybar := realReducedSetup(t, h, y)
		ry := make([]float64, rows)
		for i, v := range y {
			ry[2*i], ry[2*i+1] = real(v), imag(v)
		}
		rybarQR := make([]float64, cols)
		f.QTMulVecInto(rybarQR, ry)
		for k := range rybar {
			if d := math.Abs(rybar[k] - rybarQR[k]); d > 1e-9*(1+math.Abs(rybarQR[k])) {
				t.Fatalf("trial %d: ȳr[%d] interleaved %v vs factored %v", trial, k, rybar[k], rybarQR[k])
			}
		}
	}
}

// TestRealSEMatchesComplexAcrossQAM is the absorption bit-exactness pin:
// under ℓ² both formulations solve the same ML problem exactly, so the
// argmin symbol vector must be identical and the metric equal up to the
// rounding difference of the two factorizations, across the whole square-QAM
// family.
func TestRealSEMatchesComplexAcrossQAM(t *testing.T) {
	r := rng.New(92)
	mods := []constellation.Modulation{
		constellation.QAM4, constellation.QAM16,
		constellation.QAM64, constellation.QAM256,
	}
	for _, mod := range mods {
		c := constellation.New(mod)
		complexSD := MustNew(Config{Const: c, Strategy: SortedDFS})
		realSD := MustNew(Config{Const: c, Strategy: RealSE})
		for trial := 0; trial < 8; trial++ {
			h, y, nv, _ := makeInstance(r, c, 4, 4, 12)
			want, err := complexSD.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			got, err := realSD.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.SymbolIdx {
				if got.SymbolIdx[i] != want.SymbolIdx[i] {
					t.Fatalf("%v trial %d: argmin differs at antenna %d (%d vs %d)",
						mod, trial, i, got.SymbolIdx[i], want.SymbolIdx[i])
				}
			}
			if d := math.Abs(got.Metric - want.Metric); d > 1e-9*(1+want.Metric) {
				t.Fatalf("%v trial %d: metric %v vs %v", mod, trial, got.Metric, want.Metric)
			}
			if got.Quality != decoder.QualityExact {
				t.Fatalf("%v trial %d: quality %v", mod, trial, got.Quality)
			}
		}
	}
}

// TestRealSENoComparatorWork pins the Schnorr–Euchner claim: children are
// generated in ascending-PD order analytically, so the comparator counters
// the sorted strategies burn (the paper's phase-3 hardware sorter) stay at
// exactly zero, as does GEMM (the real path is scalar by construction).
func TestRealSENoComparatorWork(t *testing.T) {
	r := rng.New(93)
	c := constellation.New(constellation.QAM16)
	for _, norm := range []Norm{NormL2, NormLInf} {
		d := MustNew(Config{Const: c, Strategy: RealSE, Norm: norm})
		for trial := 0; trial < 10; trial++ {
			h, y, nv, _ := makeInstance(r, c, 6, 6, 8)
			res, err := d.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			cnt := res.Counters
			if cnt.CompareOps != 0 || cnt.SortedBatches != 0 {
				t.Fatalf("norm %v trial %d: comparator work %d ops / %d batches, want 0",
					norm, trial, cnt.CompareOps, cnt.SortedBatches)
			}
			if cnt.GEMMCalls != 0 || cnt.GEMMFlops != 0 {
				t.Fatalf("norm %v trial %d: GEMM ran on the real path", norm, trial)
			}
			if cnt.ChildrenGenerated != cnt.NodesExpanded*4 {
				t.Fatalf("norm %v trial %d: %d children for %d expansions (PAM size 4)",
					norm, trial, cnt.ChildrenGenerated, cnt.NodesExpanded)
			}
		}
	}
}

// TestLInfPDMonotone: the ℓ∞ partial distance (running max of squared
// residuals) must be monotone non-decreasing down every tree path — the
// property that makes branch-and-bound exact for the ℓ∞ criterion.
func TestLInfPDMonotone(t *testing.T) {
	r := rng.New(94)
	c := constellation.New(constellation.QAM16)
	d := MustNew(Config{Const: c, Strategy: RealSE, Norm: NormLInf})
	for trial := 0; trial < 10; trial++ {
		h, y, nv, _ := makeInstance(r, c, 5, 5, 8)
		_, info, err := d.DecodeTraced(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if err := info.MST.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mst := info.MST
		for id := int32(1); id < int32(mst.Len()); id++ {
			if mst.PD(id) < mst.PD(mst.Parent(id)) {
				t.Fatalf("trial %d: node %d PD %v below parent PD %v",
					trial, id, mst.PD(id), mst.PD(mst.Parent(id)))
			}
		}
	}
}

// TestLInfExactVsBruteForce: SE pruning under the ℓ∞ norm must never
// discard the ℓ∞-optimal leaf — the decoded point must achieve the
// exhaustive minimum of the reduced-domain max-residual metric.
func TestLInfExactVsBruteForce(t *testing.T) {
	r := rng.New(95)
	cases := []struct {
		mod  constellation.Modulation
		n, m int
	}{
		{constellation.QAM4, 3, 3},  // 64 candidates
		{constellation.QAM16, 3, 2}, // 256 candidates
		{constellation.QAM64, 2, 1}, // 64 candidates, deep PAM axis
	}
	for _, tc := range cases {
		c := constellation.New(tc.mod)
		d := MustNew(Config{Const: c, Strategy: RealSE, Norm: NormLInf})
		for trial := 0; trial < 10; trial++ {
			h, y, nv, _ := makeInstance(r, c, tc.n, tc.m, 6)
			res, err := d.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			rp, rybar := realReducedSetup(t, h, y)
			best := math.Inf(1)
			idx := make([]int, tc.m)
			total := 1
			for i := 0; i < tc.m; i++ {
				total *= c.Size()
			}
			for enum := 0; enum < total; enum++ {
				e := enum
				for i := 0; i < tc.m; i++ {
					idx[i] = e % c.Size()
					e /= c.Size()
				}
				if v := realMetric(rp, rybar, c, idx, NormLInf); v < best {
					best = v
				}
			}
			if d := math.Abs(res.Metric - best); d > 1e-9*(1+best) {
				t.Fatalf("%v trial %d: decoded ℓ∞ metric %v, exhaustive optimum %v",
					tc.mod, trial, res.Metric, best)
			}
			// The reported point must itself achieve the reported metric.
			if v := realMetric(rp, rybar, c, res.SymbolIdx, NormLInf); math.Abs(v-res.Metric) > 1e-9*(1+best) {
				t.Fatalf("%v trial %d: decoded point scores %v, result claims %v",
					tc.mod, trial, v, res.Metric)
			}
		}
	}
}

// TestLInfBERGap pins the detection-quality cost of the ℓ∞ criterion on a
// seeded 4×4 4-QAM link: minimizing the max residual instead of the sum is
// suboptimal under Gaussian noise, so its symbol error rate may only be
// worse — but the literature's observation (and the reason an ℓ∞ datapath
// is interesting for hardware) is that the gap stays small. The band pins
// both directions so a regression in either engine trips it.
func TestLInfBERGap(t *testing.T) {
	r := rng.New(96)
	c := constellation.New(constellation.QAM4)
	l2 := MustNew(Config{Const: c, Strategy: RealSE})
	linf := MustNew(Config{Const: c, Strategy: RealSE, Norm: NormLInf})
	const frames = 500
	for _, snrDB := range []float64{8, 14} {
		var symbols, errL2, errLInf int
		for f := 0; f < frames; f++ {
			h := channel.Rayleigh(r, 4, 4)
			idx := make([]int, 4)
			s := make(cmatrix.Vector, 4)
			for i := range idx {
				idx[i] = r.Intn(c.Size())
				s[i] = c.Symbol(idx[i])
			}
			nv := channel.NoiseVariance(channel.PerTransmitSymbol, snrDB, 4)
			y := channel.Transmit(r, h, s, nv)
			a, err := l2.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			b, err := linf.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			for i := range idx {
				symbols++
				if a.SymbolIdx[i] != idx[i] {
					errL2++
				}
				if b.SymbolIdx[i] != idx[i] {
					errLInf++
				}
			}
		}
		serL2 := float64(errL2) / float64(symbols)
		serLInf := float64(errLInf) / float64(symbols)
		t.Logf("snr=%vdB: SER ℓ²=%v ℓ∞=%v (gap %v)", snrDB, serL2, serLInf, serLInf-serL2)
		if serLInf < serL2-0.002 {
			t.Errorf("snr=%vdB: ℓ∞ SER %v beats exact ML %v — impossible, an engine is broken",
				snrDB, serLInf, serL2)
		}
		if serLInf > serL2+0.05 {
			t.Errorf("snr=%vdB: ℓ∞ SER %v more than 5pp worse than ML %v — gap regression",
				snrDB, serLInf, serL2)
		}
	}
}

// TestRealSEAnytimeContract: the real engine honors the same budget /
// quality semantics as the complex strategies, under both norms.
func TestRealSEAnytimeContract(t *testing.T) {
	r := rng.New(97)
	c := constellation.New(constellation.QAM16)
	for _, norm := range []Norm{NormL2, NormLInf} {
		d := MustNew(Config{Const: c, Strategy: RealSE, Norm: norm, MaxNodes: 3})
		for trial := 0; trial < 10; trial++ {
			h, y, nv, _ := makeInstance(r, c, 6, 6, 4)
			res, err := d.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Quality.Degraded() || res.DegradedBy != decoder.DegradedByBudget {
				t.Fatalf("norm %v trial %d: 3-node budget not flagged (%v/%q)",
					norm, trial, res.Quality, res.DegradedBy)
			}
			if math.IsNaN(res.Metric) || math.IsInf(res.Metric, 0) {
				t.Fatalf("norm %v trial %d: degraded metric %v", norm, trial, res.Metric)
			}
			if len(res.SymbolIdx) != 6 {
				t.Fatalf("norm %v trial %d: %d symbols", norm, trial, len(res.SymbolIdx))
			}
		}
		hard := MustNew(Config{Const: c, Strategy: RealSE, Norm: norm, MaxNodes: 3, HardBudget: true})
		h, y, nv, _ := makeInstance(r, c, 6, 6, 4)
		if _, err := hard.Decode(h, y, nv); err == nil {
			t.Fatalf("norm %v: hard budget exhaustion not reported", norm)
		}
	}
}

// TestRealSEConfigValidation covers the strategy/norm wiring surface.
func TestRealSEConfigValidation(t *testing.T) {
	c4 := constellation.New(constellation.QAM4)
	if _, err := New(Config{Const: c4, Strategy: SortedDFS, Norm: NormLInf}); err == nil {
		t.Error("ℓ∞ accepted outside the RealSE strategy")
	}
	if _, err := New(Config{Const: constellation.New(constellation.BPSK), Strategy: RealSE}); err == nil {
		t.Error("RealSE accepted BPSK (no square-QAM geometry)")
	}
	if d := MustNew(Config{Const: c4, Strategy: RealSE, UseGEMM: true}); d.Config().UseGEMM {
		t.Error("UseGEMM not cleared for RealSE")
	}
	if got := MustNew(Config{Const: c4, Strategy: RealSE}).Name(); got != "SD-RVD-SE" {
		t.Errorf("name %q", got)
	}
	if got := MustNew(Config{Const: c4, Strategy: RealSE, Norm: NormLInf}).Name(); got != "SD-RVD-SE+LINF" {
		t.Errorf("ℓ∞ name %q", got)
	}
	for in, want := range map[string]Strategy{
		"sorted-dfs": SortedDFS, "": SortedDFS, "SD-RVD-SE": RealSE,
		"rvd": RealSE, "realse": RealSE, "best-fs": BestFS, "fsd": FSD,
	} {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseStrategy("nonsense"); err == nil {
		t.Error("ParseStrategy accepted nonsense")
	}
	for in, want := range map[string]Norm{"": NormL2, "l2": NormL2, "linf": NormLInf, "max": NormLInf} {
		got, err := ParseNorm(in)
		if err != nil || got != want {
			t.Errorf("ParseNorm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseNorm("l3"); err == nil {
		t.Error("ParseNorm accepted l3")
	}
}

// TestRealSEZeroAllocSteadyState extends the zero-allocation pin to the real
// engine under both norms: after warm-up (which triggers the one-time lazy
// RealPre derivation on the shared handle), a pooled decode must not
// allocate, with or without a heavy frame ahead of the light ones.
func TestRealSEZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := rng.New(98)
	c := constellation.New(constellation.QAM4)
	light := newAllocFrame(t, r, c, 6, 6, 10)
	heavy := heavyAllocFrame(t, c)
	for _, norm := range []Norm{NormL2, NormLInf} {
		d := MustNew(Config{Const: c, Strategy: RealSE, Norm: norm})
		if got := steadyStateAllocs(t, d, light); got != 0 {
			t.Errorf("norm %v: %v allocs/op in steady state, want 0", norm, got)
		}
		if got := steadyStateAllocs(t, d, heavy, light, light); got != 0 {
			t.Errorf("norm %v: %v allocs per heavy+light pass, want 0", norm, got)
		}
	}
}

// The TestRVD* cases below pin the real-valued decomposition itself (the
// 2M-level PAM tree) through the RealSE engine that implements it.

func TestRVDRejectsBPSK(t *testing.T) {
	if _, err := New(Config{Const: constellation.New(constellation.BPSK), Strategy: RealSE}); err == nil {
		t.Fatal("BPSK accepted")
	}
}

func TestRVDPAMLevels(t *testing.T) {
	d := MustNew(Config{Const: constellation.New(constellation.QAM16), Strategy: RealSE})
	if len(d.pam) != 4 || len(d.pamLabels) != 4 || d.axisBits != 2 {
		t.Fatalf("pam=%v labels=%v axisBits=%d", d.pam, d.pamLabels, d.axisBits)
	}
	for i := 1; i < len(d.pam); i++ {
		if d.pam[i] <= d.pam[i-1] {
			t.Fatalf("PAM not ascending: %v", d.pam)
		}
	}
}

func TestRVDMatchesML(t *testing.T) {
	r := rng.New(81)
	for _, mod := range []constellation.Modulation{constellation.QAM4, constellation.QAM16} {
		c := constellation.New(mod)
		ml := decoder.NewML(c)
		rvd := MustNew(Config{Const: c, Strategy: RealSE})
		for trial := 0; trial < 12; trial++ {
			h, y, nv, _ := makeInstance(r, c, 4, 4, 8)
			want, err := ml.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rvd.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Metric-want.Metric) > 1e-6*(1+want.Metric) {
				t.Fatalf("%v trial %d: RVD %v vs ML %v", mod, trial, got.Metric, want.Metric)
			}
		}
	}
}

func TestRVDMatchesComplexSD(t *testing.T) {
	// Both formulations are exact: decoded vectors must agree.
	r := rng.New(82)
	c := constellation.New(constellation.QAM4)
	complexSD := MustNew(Config{Const: c, Strategy: SortedDFS})
	rvd := MustNew(Config{Const: c, Strategy: RealSE})
	for trial := 0; trial < 15; trial++ {
		h, y, nv, _ := makeInstance(r, c, 8, 8, 6)
		a, err := complexSD.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rvd.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.SymbolIdx {
			if a.SymbolIdx[i] != b.SymbolIdx[i] {
				t.Fatalf("trial %d: formulations disagree at antenna %d", trial, i)
			}
		}
	}
}

func TestRVDNoiselessRecovery(t *testing.T) {
	r := rng.New(83)
	c := constellation.New(constellation.QAM16)
	rvd := MustNew(Config{Const: c, Strategy: RealSE})
	h, y, _, idx := makeInstance(r, c, 5, 5, 300)
	res, err := rvd.Decode(h, y, 1e-30)
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx {
		if res.SymbolIdx[i] != idx[i] {
			t.Fatalf("antenna %d: %d vs %d", i, res.SymbolIdx[i], idx[i])
		}
	}
}

func TestRVDTreeShape(t *testing.T) {
	// 16-QAM RVD: branching 4 over 2M levels, so children per expansion is
	// the PAM size, not |Ω|.
	r := rng.New(84)
	c := constellation.New(constellation.QAM16)
	rvd := MustNew(Config{Const: c, Strategy: RealSE})
	h, y, nv, _ := makeInstance(r, c, 4, 4, 10)
	res, err := rvd.Decode(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.ChildrenGenerated != res.Counters.NodesExpanded*4 {
		t.Fatalf("children %d for %d expansions (want ×4)",
			res.Counters.ChildrenGenerated, res.Counters.NodesExpanded)
	}
	// The real tree must be at least 2M deep: the best leaf path visits
	// 2M levels, so at least 2M expansions happened.
	if res.Counters.NodesExpanded < 8 {
		t.Fatalf("only %d expansions for a 2M=8 level tree", res.Counters.NodesExpanded)
	}
}

func TestRVDValidation(t *testing.T) {
	c := constellation.New(constellation.QAM4)
	rvd := MustNew(Config{Const: c, Strategy: RealSE})
	h, y, _, _ := makeInstance(rng.New(85), c, 4, 4, 10)
	if _, err := rvd.Decode(h, y[:3], 0.1); err == nil {
		t.Error("dimension mismatch accepted")
	}
	res, err := MustNew(Config{Const: c, Strategy: RealSE, MaxNodes: 2}).Decode(h, y, 0.1)
	if err != nil {
		t.Fatalf("degraded RVD decode failed: %v", err)
	}
	if !res.Quality.Degraded() || res.DegradedBy != decoder.DegradedByBudget {
		t.Errorf("budget exhaustion not flagged: %v/%q", res.Quality, res.DegradedBy)
	}
	if _, err := MustNew(Config{Const: c, Strategy: RealSE, MaxNodes: 2, HardBudget: true}).Decode(h, y, 0.1); err == nil {
		t.Error("hard budget exhaustion not reported")
	}
}

func TestRVDDegradedUsable(t *testing.T) {
	r := rng.New(86)
	c := constellation.New(constellation.QAM16)
	rvd := MustNew(Config{Const: c, Strategy: RealSE, MaxNodes: 3})
	for trial := 0; trial < 30; trial++ {
		h, y, nv, _ := makeInstance(r, c, 6, 6, 4)
		res, err := rvd.Decode(h, y, nv)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Quality.Degraded() {
			t.Fatalf("trial %d: 3-node budget not degraded", trial)
		}
		if math.IsNaN(res.Metric) || math.IsInf(res.Metric, 0) {
			t.Fatalf("trial %d: degraded metric %v", trial, res.Metric)
		}
		if len(res.SymbolIdx) != 6 {
			t.Fatalf("trial %d: %d symbols", trial, len(res.SymbolIdx))
		}
	}
}
