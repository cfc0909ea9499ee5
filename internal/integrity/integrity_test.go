package integrity

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cmatrix"
	"repro/internal/rng"
)

func randMatrix(r *rng.Rand, rows, cols int) *cmatrix.Matrix {
	m := cmatrix.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m
}

// TestVerifyGEMMAcceptsHonestProducts runs the checksum over clean products
// across shapes (including the hot path's 1×k row products) — honest
// floating-point rounding must never trip the tolerance.
func TestVerifyGEMMAcceptsHonestProducts(t *testing.T) {
	r := rng.New(1)
	shapes := [][3]int{{1, 10, 4}, {1, 3, 16}, {4, 7, 5}, {12, 12, 12}, {1, 1, 1}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		for trial := 0; trial < 50; trial++ {
			a, b := randMatrix(r, m, k), randMatrix(r, k, n)
			c := cmatrix.NewMatrix(m, n)
			cmatrix.GEMM(1, a, b, 0, c)
			if !VerifyGEMM(a, b, c) {
				t.Fatalf("shape %dx%dx%d trial %d: clean product rejected", m, k, n, trial)
			}
			if m == 1 && !VerifyRowGEMM(a.Row(0), b, c.Row(0)) {
				t.Fatalf("shape %dx%dx%d trial %d: clean row product rejected", m, k, n, trial)
			}
		}
	}
}

// TestVerifyGEMMDetectsBitFlips flips sign, exponent, and high-mantissa bits
// in single output words and asserts detection — the soft-error classes ABFT
// exists for.
func TestVerifyGEMMDetectsBitFlips(t *testing.T) {
	r := rng.New(2)
	a, b := randMatrix(r, 1, 10), randMatrix(r, 10, 4)
	c := cmatrix.NewMatrix(1, 4)
	cmatrix.GEMM(1, a, b, 0, c)
	for _, bit := range []uint{63, 62, 55, 51} {
		for j := range c.Data {
			orig := c.Data[j]
			c.Data[j] = complex(math.Float64frombits(math.Float64bits(real(orig))^(1<<bit)), imag(orig))
			if VerifyGEMM(a, b, c) {
				t.Fatalf("bit %d flip in output %d undetected", bit, j)
			}
			if VerifyRowGEMM(a.Row(0), b, c.Row(0)) {
				t.Fatalf("bit %d flip in output %d undetected by row form", bit, j)
			}
			c.Data[j] = orig
		}
	}
}

func TestReEncodeAudit(t *testing.T) {
	r := rng.New(4)
	h := randMatrix(r, 8, 6)
	s := make(cmatrix.Vector, 6)
	for i := range s {
		s[i] = complex(float64(1+i%2*2-2), float64(1-i%2*2)) // QAM-ish points
	}
	y := make(cmatrix.Vector, 8)
	for i := 0; i < 8; i++ {
		row := h.Row(i)
		var sum complex128
		for j, hv := range row {
			sum += hv * s[j]
		}
		y[i] = sum + complex(0.1*r.NormFloat64(), 0.1*r.NormFloat64())
	}
	scratch := make(cmatrix.Vector, 8)
	a := ReEncode(h, y, s, scratch)

	if err := a.CheckExactL2(a.ResidualSq); err != nil {
		t.Fatalf("true residual rejected: %v", err)
	}
	if err := a.CheckBound(a.ResidualSq * 0.5); err != nil {
		t.Fatalf("in-bound metric rejected: %v", err)
	}
	for _, bad := range []float64{-1e-3, a.ResidualSq * 4, a.ResidualSq + a.Scale} {
		if err := a.CheckBound(bad); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("CheckBound(%g) = %v, want ErrIntegrity", bad, err)
		}
	}
	if err := a.CheckExactL2(a.ResidualSq * (1 + 1e-3)); !errors.Is(err, ErrIntegrity) {
		t.Fatal("metric off by a tenth of a percent passed the exact check")
	}
	// Sign-flipped metric must fail both checks — the always-reachable
	// corruption the SDC plan injects.
	flipped := math.Float64frombits(math.Float64bits(a.ResidualSq) ^ (1 << 63))
	if err := a.CheckBound(flipped); !errors.Is(err, ErrIntegrity) {
		t.Fatal("sign-flipped metric passed the bound check")
	}

	// Nil scratch allocates but agrees.
	b := ReEncode(h, y, s, nil)
	if math.Abs(b.ResidualSq-a.ResidualSq) > 1e-12*a.Scale {
		t.Fatalf("scratch vs alloc residual mismatch: %g vs %g", b.ResidualSq, a.ResidualSq)
	}
}
