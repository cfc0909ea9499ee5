package sphere

import (
	"encoding/binary"
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/channel"
	"repro/internal/cmatrix"
	"repro/internal/rng"
)

// errClass names the error class a factorization returned: the contract the
// serving kernel shares with cmatrix.QR.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, cmatrix.ErrNonFinite):
		return "non-finite"
	case errors.Is(err, cmatrix.ErrSingular):
		return "singular"
	default:
		return "shape"
	}
}

// kernelVsQR factors h with the serving kernel and with cmatrix.QR. It fails
// the test unless both return the same error class, and returns both
// factorizations when they succeed.
func kernelVsQR(t *testing.T, h *cmatrix.Matrix) (*Preprocessed, *cmatrix.QRFactorization) {
	t.Helper()
	f, qerr := cmatrix.QR(h)
	pre, kerr := Preprocess(h)
	if errClass(kerr) != errClass(qerr) {
		t.Fatalf("%dx%d: kernel error %v (%s), cmatrix.QR %v (%s)",
			h.Rows, h.Cols, kerr, errClass(kerr), qerr, errClass(qerr))
	}
	if kerr != nil {
		return nil, nil
	}
	return pre, f
}

// maxAbsDiff returns max_i |a_i − b_i|.
func maxAbsDiff(a, b []complex128) float64 {
	var worst float64
	for i := range a {
		worst = max(worst, cmplx.Abs(a[i]-b[i]))
	}
	return worst
}

// checkFactors compares the kernel's R and ȳ with cmatrix.QR's R and Qᴴy.
func checkFactors(t *testing.T, pre *Preprocessed, f *cmatrix.QRFactorization, h *cmatrix.Matrix, y cmatrix.Vector) {
	t.Helper()
	if d, tol := maxAbsDiff(pre.complexR().Data, f.R.Data), 1e-12*scaledNorm(h.Data); d > tol {
		t.Fatalf("%dx%d: R differs from cmatrix.QR by %g (tolerance %g)", h.Rows, h.Cols, d, tol)
	}
	ybar := pre.rotate(make(cmatrix.Vector, pre.N), y)
	if d, tol := maxAbsDiff(ybar, f.QHMulVec(y)), 1e-12*cmatrix.Norm2(y); d > tol {
		t.Fatalf("%dx%d: ȳ differs from Qᴴy by %g (tolerance %g)", h.Rows, h.Cols, d, tol)
	}
	if !pre.VerifyIntegrity() {
		t.Fatal("fresh handle fails its own checksum")
	}
}

// scaledNorm is ‖v‖₂ computed without underflow or overflow: the tolerance
// scale for channels whose plain sum of squares leaves the float range.
func scaledNorm(v []complex128) float64 {
	var scale float64
	for _, x := range v {
		scale = max(scale, math.Abs(real(x)), math.Abs(imag(x)))
	}
	if scale == 0 || math.IsInf(scale, 0) {
		return scale
	}
	var sum float64
	for _, x := range v {
		re, im := real(x)/scale, imag(x)/scale
		sum += re*re + im*im
	}
	return scale * math.Sqrt(sum)
}

// gram returns AᴴA.
func gram(a *cmatrix.Matrix) *cmatrix.Matrix { return cmatrix.Mul(a.ConjTranspose(), a) }

// TestPreprocessMatchesQR is the differential test of the serving kernel
// against cmatrix.QR over seeded shapes, scaled channels, near-singular
// channels and every error class.
func TestPreprocessMatchesQR(t *testing.T) {
	r := rng.New(2107)
	shapes := [][2]int{{10, 10}, {12, 10}, {4, 4}}
	for _, sh := range shapes {
		n, m := sh[0], sh[1]
		for _, scale := range []float64{1e-100, 1e-8, 1, 1e8, 1e100} {
			for trial := 0; trial < 5; trial++ {
				h := channel.Rayleigh(r, n, m)
				for i := range h.Data {
					h.Data[i] *= complex(scale, 0)
				}
				y := randomVector(r, n)
				pre, f := kernelVsQR(t, h)
				if pre == nil {
					t.Fatalf("%dx%d scale %g: well-conditioned channel refused", n, m, scale)
				}
				checkFactors(t, pre, f, h, y)
			}
		}

		// Near-singular: one column a 1e-9 perturbation of another. The
		// factorization still succeeds and reproduces the Gram matrix.
		for trial := 0; trial < 5; trial++ {
			h := channel.Rayleigh(r, n, m)
			for i := 0; i < n; i++ {
				h.Set(i, m-1, h.At(i, 0)+1e-9*r.ComplexNormal(1))
			}
			pre, f := kernelVsQR(t, h)
			if pre == nil {
				continue // refused by both, at the same class
			}
			checkFactors(t, pre, f, h, randomVector(r, n))
			rhr, hh := gram(pre.complexR()), gram(h)
			normSq := cmatrix.Norm2Sq(h.Data)
			if d := maxAbsDiff(rhr.Data, hh.Data); d > 1e-12*normSq {
				t.Fatalf("%dx%d near-singular: RᴴR differs from HᴴH by %g", n, m, d)
			}
		}
	}

	// The error classes, each of which the kernel must report as QR does.
	base := func() *cmatrix.Matrix { return channel.Rayleigh(r, 6, 6) }
	nan, inf := base(), base()
	nan.Data[7] = complex(1, math.NaN())
	inf.Data[20] = complex(math.Inf(-1), 0)
	zeroCol, dupCol := base(), base()
	for i := 0; i < 6; i++ {
		zeroCol.Set(i, 3, 0)
		dupCol.Set(i, 5, dupCol.At(i, 1))
	}
	overflow := base()
	for i := range overflow.Data {
		overflow.Data[i] *= 1e200
	}
	tiny := cmatrix.FromSlice(1, 1, []complex128{1e-155})
	cases := []struct {
		name string
		h    *cmatrix.Matrix
		want string
	}{
		{"nan", nan, "non-finite"},
		{"inf", inf, "non-finite"},
		{"wide", channel.Rayleigh(r, 4, 6), "shape"},
		{"zero-column", zeroCol, "singular"},
		{"duplicate-column", dupCol, "singular"},
		{"frobenius-overflow", overflow, "singular"},
		{"reflector-overflow", tiny, "non-finite"},
	}
	for _, tc := range cases {
		_, kerr := Preprocess(tc.h)
		if got := errClass(kerr); got != tc.want {
			t.Errorf("%s: kernel error class %s (%v), want %s", tc.name, got, kerr, tc.want)
		}
		kernelVsQR(t, tc.h)
	}
}

func randomVector(r *rng.Rand, n int) cmatrix.Vector {
	y := make(cmatrix.Vector, n)
	for i := range y {
		y[i] = r.ComplexNormal(1)
	}
	return y
}

// FuzzPreprocess drives the serving kernel and cmatrix.QR with the same
// adversarial channel — raw float bits (NaN/Inf, denormals, huge
// magnitudes), seeded Gaussians scaled by 2^shift, and exactly or nearly
// rank-deficient columns, in shapes with N < M as well — and checks that
// both return the same error class, and on success the same R and ȳ.
func FuzzPreprocess(f *testing.F) {
	f.Add(uint8(10), uint8(10), uint8(1), int16(0), uint64(1), []byte{})
	f.Add(uint8(12), uint8(10), uint8(1), int16(-600), uint64(2), []byte{})
	f.Add(uint8(4), uint8(4), uint8(3), int16(0), uint64(3), []byte{})
	f.Add(uint8(4), uint8(4), uint8(5), int16(0), uint64(4), []byte{})
	f.Add(uint8(6), uint8(6), uint8(1), int16(700), uint64(5), []byte{})
	f.Add(uint8(3), uint8(5), uint8(1), int16(0), uint64(6), []byte{})
	f.Add(uint8(2), uint8(2), uint8(0), int16(0), uint64(7), []byte{0, 0, 0, 0, 0, 0, 0xF8, 0x7F})
	f.Add(uint8(1), uint8(1), uint8(0), int16(0), uint64(8), []byte{0x5F, 0x9E, 0x1C, 0xA6, 0x4B, 0x2D, 0xFE, 0x1F})
	f.Fuzz(func(t *testing.T, nRaw, mRaw, mode uint8, shift int16, seed uint64, data []byte) {
		n, m := int(nRaw)%12+1, int(mRaw)%12+1
		r := rng.New(seed)
		h := cmatrix.NewMatrix(n, m)
		for i := range h.Data {
			if mode&1 == 0 && 16*i+16 <= len(data) {
				h.Data[i] = complex(
					math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:])),
					math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:])))
				continue
			}
			h.Data[i] = complex(math.Ldexp(1, int(shift)%1100), 0) * r.ComplexNormal(1)
		}
		if mode&2 != 0 && m > 1 {
			// Column m−1 copies column 0, exactly (mode bit 4 clear) or up
			// to a 1e-10 perturbation.
			for i := 0; i < n; i++ {
				v := h.At(i, 0)
				if mode&4 != 0 {
					v += complex(1e-10*cmplx.Abs(v), 0) * r.ComplexNormal(1)
				}
				h.Set(i, m-1, v)
			}
		}
		pre, fq := kernelVsQR(t, h)
		if pre == nil {
			return
		}
		checkFactors(t, pre, fq, h, randomVector(r, n))
	})
}
