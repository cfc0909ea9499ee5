package cmatrix

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
)

// relTol compares against the naive reference with a tolerance scaled to the
// inner dimension, since the split kernel accumulates in a different order.
func maxRelErr(got, want *Matrix) float64 {
	worst := 0.0
	for i, w := range want.Data {
		d := cmplx.Abs(got.Data[i] - w)
		if m := cmplx.Abs(w); m > 1 {
			d /= m
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

func TestSplitKernelMatchesNaive(t *testing.T) {
	r := rng.New(11)
	shapes := [][3]int{
		{4, 8, 1024},   // just past the volume gate
		{16, 16, 128},  // square-ish
		{33, 65, 40},   // odd shapes crossing block boundaries
		{64, 64, 64},   // exactly one block
		{70, 130, 65},  // multiple partial blocks
		{128, 96, 100}, // larger
	}
	for _, s := range shapes {
		a := randomMatrix(r, s[0], s[1])
		b := randomMatrix(r, s[1], s[2])
		want := MulNaive(a, b)
		got := NewMatrix(s[0], s[2])
		mulSplitInto(got, a, b, 1)
		if err := maxRelErr(got, want); err > 1e-12 {
			t.Fatalf("split kernel mismatch at shape %v: max rel err %g", s, err)
		}
	}
}

func TestSplitKernelAlpha(t *testing.T) {
	r := rng.New(12)
	a := randomMatrix(r, 8, 64)
	b := randomMatrix(r, 64, 16)
	alpha := complex(2.5, -1.25)
	want := MulNaive(a, b).Scale(alpha)
	got := NewMatrix(8, 16)
	mulSplitInto(got, a, b, alpha)
	if err := maxRelErr(got, want); err > 1e-12 {
		t.Fatalf("split alpha mismatch: max rel err %g", err)
	}
}

func TestSplitKernelParallelMatchesSerial(t *testing.T) {
	r := rng.New(13)
	a := randomMatrix(r, 67, 41)
	b := randomMatrix(r, 41, 53)
	serial := NewMatrix(67, 53)
	mulSplitInto(serial, a, b, 1)
	for _, workers := range []int{1, 2, 3, 7, 16, 100} {
		par := NewMatrix(67, 53)
		mulSplitParallel(par, a, b, workers)
		for i := range par.Data {
			// Row-disjoint workers run the identical per-row kernel, so the
			// result must be bit-exact, not merely close.
			if par.Data[i] != serial.Data[i] {
				t.Fatalf("workers=%d: element %d differs: %v vs %v",
					workers, i, par.Data[i], serial.Data[i])
			}
		}
	}
}

func TestSplitKernelAccumMatchesNaive(t *testing.T) {
	r := rng.New(14)
	a := randomMatrix(r, 16, 64)
	b := randomMatrix(r, 64, 32)
	c0 := randomMatrix(r, 16, 32)
	alpha := complex(0.75, 0.5)

	want := c0.Clone()
	prod := MulNaive(a, b)
	for i := range want.Data {
		want.Data[i] += alpha * prod.Data[i]
	}

	got := c0.Clone()
	gemmSplitAccum(alpha, a, b, got)
	if err := maxRelErr(got, want); err > 1e-12 {
		t.Fatalf("split accum mismatch: max rel err %g", err)
	}
}

func TestUseSplitKernelGate(t *testing.T) {
	// The sphere decoder's per-node product is 1×depth by depth×p: it must
	// stay on the complex path so traced decodes remain allocation-free and
	// bit-exact with the scalar evaluator's accumulation order.
	if useSplitKernel(1, 16, 8) {
		t.Fatal("1-row product should not use split kernel")
	}
	if !useSplitKernel(64, 64, 64) {
		t.Fatal("64^3 product should use split kernel")
	}
	if useSplitKernel(4, 4, 4) {
		t.Fatal("tiny product should not use split kernel")
	}
}

func TestGEMMBetaZeroOverwritesNaN(t *testing.T) {
	// BLAS semantics: beta == 0 means C is write-only. A NaN- or Inf-poisoned
	// C (e.g. reused scratch) must not leak into the product. The old
	// `c *= beta` form produced NaN*0 = NaN here.
	r := rng.New(15)
	a := randomMatrix(r, 3, 4)
	b := randomMatrix(r, 4, 5)
	c := NewMatrix(3, 5)
	for i := range c.Data {
		c.Data[i] = complex(math.NaN(), math.Inf(1))
	}
	GEMM(1, a, b, 0, c)
	if c.HasNaN() {
		t.Fatal("beta==0 GEMM leaked NaN from poisoned C")
	}
	want := MulNaive(a, b)
	if !c.EqualApprox(want, 1e-12) {
		t.Fatalf("beta==0 GEMM result wrong:\n%v\nwant\n%v", c, want)
	}

	// alpha==0, beta==0 must produce exact zeros, again regardless of C.
	for i := range c.Data {
		c.Data[i] = complex(math.Inf(-1), math.NaN())
	}
	GEMM(0, a, b, 0, c)
	for i, v := range c.Data {
		if v != 0 {
			t.Fatalf("alpha=0,beta=0: element %d = %v, want 0", i, v)
		}
	}
}

func TestGEMMSplitPathAlphaBeta(t *testing.T) {
	// Exercise the split-dispatch branch of GEMM (volume above the gate) with
	// nontrivial alpha and beta.
	r := rng.New(16)
	a := randomMatrix(r, 16, 64)
	b := randomMatrix(r, 64, 32)
	c0 := randomMatrix(r, 16, 32)
	alpha, beta := complex(1.5, -0.5), complex(0.25, 2)

	want := c0.Clone()
	prod := MulNaive(a, b)
	for i := range want.Data {
		want.Data[i] = alpha*prod.Data[i] + beta*want.Data[i]
	}

	got := c0.Clone()
	GEMM(alpha, a, b, beta, got)
	if err := maxRelErr(got, want); err > 1e-12 {
		t.Fatalf("GEMM split path mismatch: max rel err %g", err)
	}
}

func TestConjTransposeMulVecInto(t *testing.T) {
	r := rng.New(17)
	a := randomMatrix(r, 6, 4)
	x := NewVector(6)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	want := ConjTransposeMulVec(a, x)
	dst := NewVector(4)
	for i := range dst {
		dst[i] = complex(math.NaN(), math.NaN()) // must be overwritten
	}
	ConjTransposeMulVecInto(dst, a, x)
	for i := range dst {
		if cmplx.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatalf("element %d: %v vs %v", i, dst[i], want[i])
		}
	}
}

func TestFingerprint(t *testing.T) {
	r := rng.New(18)
	a := randomMatrix(r, 5, 7)
	b := a.Clone()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical matrices must share a fingerprint")
	}
	b.Data[17] *= complex(1+1e-15, 0) // one-ulp-scale perturbation flips bits
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("perturbed matrix should (with overwhelming probability) change fingerprint")
	}
	// Shape participates: a 1x4 and 4x1 with the same data differ.
	c := FromSlice(1, 4, []complex128{1, 2, 3, 4})
	d := FromSlice(4, 1, []complex128{1, 2, 3, 4})
	if c.Fingerprint() == d.Fingerprint() {
		t.Fatal("shape must participate in the fingerprint")
	}
	// Fingerprint distinguishes ±0 inputs deterministically (bit patterns).
	e := FromSlice(1, 1, []complex128{complex(0.0, 0)})
	f := FromSlice(1, 1, []complex128{complex(math.Copysign(0, -1), 0)})
	if e.Fingerprint() == f.Fingerprint() {
		t.Fatal("+0 and -0 have different bit patterns and should hash differently")
	}
}

// TestFingerprintMixes checks the word-wise hash's diffusion: every single
// bit of every word moves it, the real and imaginary lanes are not
// interchangeable, and low-entropy channels (QPSK-valued entries) spread
// evenly over both the high and the low bits, which the cache map and the
// shard ring respectively depend on.
func TestFingerprintMixes(t *testing.T) {
	a := FromSlice(3, 3, []complex128{1, 2i, 3, -4, 5 + 5i, 0, 7, 8, -9i})
	base := a.Fingerprint()
	for i := range a.Data {
		for part := 0; part < 2; part++ {
			for bit := 0; bit < 64; bit++ {
				b := a.Clone()
				re, im := math.Float64bits(real(b.Data[i])), math.Float64bits(imag(b.Data[i]))
				if part == 0 {
					re ^= 1 << bit
				} else {
					im ^= 1 << bit
				}
				b.Data[i] = complex(math.Float64frombits(re), math.Float64frombits(im))
				if b.Fingerprint() == base {
					t.Fatalf("flipping bit %d of word %d.%d left the fingerprint unchanged", bit, i, part)
				}
			}
		}
	}
	if FromSlice(1, 1, []complex128{1 + 2i}).Fingerprint() == FromSlice(1, 1, []complex128{2 + 1i}).Fingerprint() {
		t.Fatal("swapping the real and imaginary parts left the fingerprint unchanged")
	}

	qpsk := []complex128{1 + 1i, 1 - 1i, -1 + 1i, -1 - 1i}
	const n = 4096 // every 2×3 QPSK-valued matrix
	var hi, lo [16]int
	for k := 0; k < n; k++ {
		m := NewMatrix(2, 3)
		for i, code := 0, k; i < len(m.Data); i, code = i+1, code/4 {
			m.Data[i] = qpsk[code%4]
		}
		fp := m.Fingerprint()
		hi[fp>>60]++
		lo[fp&15]++
	}
	for b := range hi {
		if hi[b] < n/16*3/4 || hi[b] > n/16*5/4 || lo[b] < n/16*3/4 || lo[b] > n/16*5/4 {
			t.Fatalf("bucket %d: %d high-bit and %d low-bit hits, want %d ± 25%%", b, hi[b], lo[b], n/16)
		}
	}
}

func TestSetFromInterleaveRoundTrip(t *testing.T) {
	r := rng.New(19)
	m := randomMatrix(r, 9, 13)
	var s SplitMatrix
	s.SetFrom(m)
	out := NewMatrix(9, 13)
	s.Interleave(out)
	for i := range m.Data {
		if out.Data[i] != m.Data[i] {
			t.Fatalf("round trip changed element %d", i)
		}
	}
	// Reuse with a smaller matrix must reslice, not leak stale tail data.
	m2 := randomMatrix(r, 2, 3)
	s.SetFrom(m2)
	if s.Rows != 2 || s.Cols != 3 || len(s.Re) != 6 {
		t.Fatalf("SetFrom reuse: got %dx%d len %d", s.Rows, s.Cols, len(s.Re))
	}
}
