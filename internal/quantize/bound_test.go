package quantize

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/cmatrix"
	"repro/internal/rng"
)

// unitRoundoff is binary16's u = 2^-11: round-to-nearest-even keeps every
// normal value within a relative half-ulp of u.
const unitRoundoff = 1.0 / 2048

// gradedMatrix fills an n×n matrix with unit complex normals whose rows are
// scaled by 10^(spread·(i/(n-1) − ½)) — a row-graded conditioning knob:
// spread 0 is a well-conditioned random matrix, spread 4 puts ~10^4 between
// the largest and smallest row, pushing the condition number up accordingly.
// The grading is centred on 1 so every element stays far inside binary16's
// normal range (min normal 2^-14, max 65504): the error bound is a
// relative-rounding statement and holds only where values neither overflow
// nor go subnormal.
func gradedMatrix(r *rng.Rand, n int, spread float64) *cmatrix.Matrix {
	m := cmatrix.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		scale := 1.0
		if n > 1 {
			scale = math.Pow(10, spread*(float64(i)/float64(n-1)-0.5))
		}
		row := m.Row(i)
		for j := range row {
			row[j] = r.ComplexNormal(1) * complex(scale, 0)
		}
	}
	return m
}

// TestGEMMElementwiseErrorBound pins the forward error of the FP16-storage,
// full-precision-accumulate product (MulFP16 with FP32Accumulate, the
// kernel the precision ablation runs) against the float64 product
// analytically, across sizes and condition numbers:
//
//	|ĉ_ij − c_ij| ≤ 2u(2+2u)·Σ_k |a_ik||b_kj|  +  2u·|c_ij|
//
// The first term is the operand-quantization error carried through the
// (full-precision) accumulation: each complex operand rounds within √2·u ≤
// 2u of itself, and a product of two perturbed factors is off by at most
// (2·2u + (2u)²)|a||b|. The second term is the single output rounding. The
// bound is scale-invariant per row, so it must hold however skewed the row
// grading makes the matrix — that is the property, not a sampled tolerance.
func TestGEMMElementwiseErrorBound(t *testing.T) {
	r := rng.New(11)
	const u = unitRoundoff
	for _, n := range []int{2, 4, 8, 16, 32} {
		for _, spread := range []float64{0, 2, 4} {
			a := gradedMatrix(r, n, spread)
			b := gradedMatrix(r, n, spread)
			exact := cmatrix.MulNaive(a, b)
			got := MulFP16(a, b, FP32Accumulate)

			maxErr := 0.0
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var absSum float64
					for k := 0; k < n; k++ {
						absSum += cmplx.Abs(a.At(i, k)) * cmplx.Abs(b.At(k, j))
					}
					c := exact.At(i, j)
					err := cmplx.Abs(got.At(i, j) - c)
					bound := 2*u*(2+2*u)*absSum + 2*u*cmplx.Abs(c)
					if err > bound {
						t.Fatalf("n=%d spread=%g c[%d,%d]: error %.3g above bound %.3g",
							n, spread, i, j, err, bound)
					}
					if err > maxErr {
						maxErr = err
					}
				}
			}
			if maxErr == 0 {
				t.Errorf("n=%d spread=%g: suspiciously exact (quantization had no effect)", n, spread)
			}
		}
	}
}
