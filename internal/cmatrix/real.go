package cmatrix

import (
	"fmt"
	"math"
)

// RealQR holds the thin QR factors of a real rows×cols matrix (rows >= cols)
// in flat float64 storage: the real-valued-decomposition sphere decoder runs
// its entire hot path on these, so the layout is chosen for the access
// pattern of the search, not for generality.
//
//   - QT is Qᵀ stored cols×rows row-major: row k of QT is column k of Q, so
//     ȳ = Qᵀy is cols contiguous dot products (the SoA-friendly rotation).
//   - R is the cols×cols upper triangle stored row-major with a real,
//     strictly positive diagonal; row k of R is R[k*cols : (k+1)*cols].
type RealQR struct {
	Rows, Cols int
	QT         []float64
	R          []float64
}

// QRReal computes the thin Householder QR factorization of the real rows×cols
// matrix a (row-major). It mirrors the complex QR's contract: rows >= cols,
// ErrNonFinite for NaN/Inf input, ErrSingular when a diagonal of R underflows
// relative to the matrix scale, and a non-negative diagonal on success.
func QRReal(rows, cols int, a []float64) (*RealQR, error) {
	if rows < cols {
		return nil, fmt.Errorf("cmatrix: QRReal requires rows >= cols, got %dx%d", rows, cols)
	}
	if len(a) != rows*cols {
		return nil, fmt.Errorf("cmatrix: QRReal storage %d for %dx%d", len(a), rows, cols)
	}
	var frob float64
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrNonFinite
		}
		frob += v * v
	}
	frob = math.Sqrt(frob)

	// work is overwritten with R in its upper triangle; the Householder
	// vectors live below the diagonal with an implicit leading component v0.
	work := make([]float64, len(a))
	copy(work, a)
	tau := make([]float64, cols)
	v0s := make([]float64, cols)
	at := func(i, j int) float64 { return work[i*cols+j] }
	set := func(i, j int, v float64) { work[i*cols+j] = v }

	for k := 0; k < cols; k++ {
		var normSq float64
		for i := k; i < rows; i++ {
			v := at(i, k)
			normSq += v * v
		}
		norm := math.Sqrt(normSq)
		if norm == 0 {
			tau[k] = 0
			continue
		}
		x0 := at(k, k)
		// alpha = -sign(x0)·‖x‖ keeps the reflector well-conditioned.
		alpha := -norm
		if x0 < 0 {
			alpha = norm
		}
		v0 := x0 - alpha
		set(k, k, alpha)
		vNormSq := v0 * v0
		for i := k + 1; i < rows; i++ {
			v := at(i, k)
			vNormSq += v * v
		}
		if vNormSq == 0 {
			tau[k] = 0
			continue
		}
		tau[k] = 2 / vNormSq
		v0s[k] = v0
		for j := k + 1; j < cols; j++ {
			w := v0 * at(k, j)
			for i := k + 1; i < rows; i++ {
				w += at(i, k) * at(i, j)
			}
			w *= tau[k]
			set(k, j, at(k, j)-w*v0)
			for i := k + 1; i < rows; i++ {
				set(i, j, at(i, j)-w*at(i, k))
			}
		}
	}

	r := make([]float64, cols*cols)
	for i := 0; i < cols; i++ {
		copy(r[i*cols+i:(i+1)*cols], work[i*cols+i:(i+1)*cols])
	}

	// Form Qᵀ directly: qt row k is column k of Q, obtained by applying the
	// reflectors in reverse to the k-th identity column.
	qt := make([]float64, cols*rows)
	for j := 0; j < cols; j++ {
		qt[j*rows+j] = 1
	}
	for k := cols - 1; k >= 0; k-- {
		if tau[k] == 0 {
			continue
		}
		v0 := v0s[k]
		for j := 0; j < cols; j++ {
			col := qt[j*rows : (j+1)*rows]
			w := v0 * col[k]
			for i := k + 1; i < rows; i++ {
				w += at(i, k) * col[i]
			}
			w *= tau[k]
			col[k] -= w * v0
			for i := k + 1; i < rows; i++ {
				col[i] -= w * at(i, k)
			}
		}
	}

	// Normalize the diagonal of R to be positive: flip row k of R and column
	// k of Q (= row k of QT) together. A negligible diagonal means rank
	// deficiency, exactly as in the complex factorization.
	pivotTol := 1e-12 * frob * float64(cols)
	for k := 0; k < cols; k++ {
		d := r[k*cols+k]
		if math.Abs(d) <= pivotTol {
			return nil, ErrSingular
		}
		if d < 0 {
			for j := k; j < cols; j++ {
				r[k*cols+j] = -r[k*cols+j]
			}
			col := qt[k*rows : (k+1)*rows]
			for i := range col {
				col[i] = -col[i]
			}
		}
	}
	for _, v := range r {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrNonFinite
		}
	}
	for _, v := range qt {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrNonFinite
		}
	}
	return &RealQR{Rows: rows, Cols: cols, QT: qt, R: r}, nil
}

// QTMulVecInto computes ȳ = Qᵀ·y into caller-owned dst of length Cols. With
// QT stored cols×rows this is Cols contiguous dot products — the zero-alloc
// per-frame rotation of the real-valued decode hot path.
func (f *RealQR) QTMulVecInto(dst, y []float64) {
	if len(y) != f.Rows || len(dst) != f.Cols {
		panic(fmt.Sprintf("cmatrix: QTMulVecInto shapes dst=%d y=%d for %dx%d", len(dst), len(y), f.Rows, f.Cols))
	}
	for k := 0; k < f.Cols; k++ {
		row := f.QT[k*f.Rows : (k+1)*f.Rows]
		// Four independent accumulators break the FMA dependency chain: the
		// naive single-sum reduction is latency-bound, not throughput-bound,
		// and dominates the per-frame cost at small tree sizes.
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= len(row); i += 4 {
			s0 += row[i] * y[i]
			s1 += row[i+1] * y[i+1]
			s2 += row[i+2] * y[i+2]
			s3 += row[i+3] * y[i+3]
		}
		for ; i < len(row); i++ {
			s0 += row[i] * y[i]
		}
		dst[k] = (s0 + s1) + (s2 + s3)
	}
}

// Row returns row k of R (the slice aliases the factor; callers must not
// modify it).
func (f *RealQR) Row(k int) []float64 { return f.R[k*f.Cols : (k+1)*f.Cols] }

// BackSubstituteReal solves R·x = b for an n×n upper-triangular R in flat
// row-major storage, writing into caller-owned x (len n). Returns ErrSingular
// on a zero pivot. This is the real SoA twin of BackSubstitute, used by the
// real-valued decoder's zero-forcing fallback floor.
func BackSubstituteReal(r []float64, n int, b, x []float64) error {
	if len(r) != n*n || len(b) != n || len(x) != n {
		return fmt.Errorf("cmatrix: BackSubstituteReal shapes r=%d b=%d x=%d for n=%d", len(r), len(b), len(x), n)
	}
	for i := n - 1; i >= 0; i-- {
		row := r[i*n : (i+1)*n]
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = sum / d
	}
	return nil
}

// RealEmbed writes the standard real-valued embedding of a complex n×m
// matrix into dst (2n×2m row-major, len 4·n·m):
//
//	[Re H  −Im H]
//	[Im H   Re H]
//
// The embedding is a ring homomorphism, so ‖E(y) − E(H)·E(s)‖² equals
// ‖y − Hs‖² — the identity the real-valued decomposition decoder rests on.
// Note the embedding of a complex QR is NOT upper triangular in this block
// ordering; under the interleaved coordinate ordering it is (see
// sphere.RealPre), which is why the serving QR kernel can write its real
// factor in that layout directly instead of calling QRReal.
func RealEmbed(h *Matrix, dst []float64) []float64 {
	n, m := h.Rows, h.Cols
	if len(dst) < 4*n*m {
		dst = make([]float64, 4*n*m)
	}
	dst = dst[:4*n*m]
	cols := 2 * m
	for i := 0; i < n; i++ {
		top := dst[i*cols : (i+1)*cols]
		bot := dst[(i+n)*cols : (i+n+1)*cols]
		for j := 0; j < m; j++ {
			v := h.At(i, j)
			top[j], top[j+m] = real(v), -imag(v)
			bot[j], bot[j+m] = imag(v), real(v)
		}
	}
	return dst
}

// RealEmbedVec writes the real embedding [Re y; Im y] of a complex vector
// into dst (len 2·len(y)).
func RealEmbedVec(y Vector, dst []float64) []float64 {
	n := len(y)
	if len(dst) < 2*n {
		dst = make([]float64, 2*n)
	}
	dst = dst[:2*n]
	for i, v := range y {
		dst[i], dst[i+n] = real(v), imag(v)
	}
	return dst
}
