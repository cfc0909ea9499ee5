// Package cmatrix implements the dense complex linear algebra used by every
// decoder in this repository: matrix/vector containers, GEMM in naive,
// cache-blocked, and parallel variants (the paper's BLAS-3 refactoring
// depends on a fast GEMM), Householder QR decomposition for the sphere
// decoder's preprocessing step, triangular solves, Gram/Cholesky kernels for
// the linear decoders, and the norm computations behind partial-distance
// evaluation.
//
// The package is self-contained (standard library only) because the module
// is built offline; it plays the role MKL plays in the paper's CPU
// implementation and the Vitis BLAS library plays in its FPGA design.
package cmatrix

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix. Data holds Rows*Cols
// elements with element (i,j) at Data[i*Cols+j].
type Matrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewMatrix allocates a zero matrix with the given shape.
// It panics on non-positive dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("cmatrix: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromSlice builds a matrix from a row-major slice, copying the data.
// It panics if len(data) != rows*cols.
func FromSlice(rows, cols int, data []complex128) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("cmatrix: FromSlice: %d elements for %dx%d", len(data), rows, cols))
	}
	m := NewMatrix(rows, cols)
	copy(m.Data, data)
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j). Bounds are checked by the slice access.
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("cmatrix: CopyFrom shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero resets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// ConjTranspose returns Aᴴ as a new matrix.
func (m *Matrix) ConjTranspose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = cmplx.Conj(v)
		}
	}
	return t
}

// Transpose returns Aᵀ (no conjugation) as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Add returns A + B as a new matrix. Shapes must match.
func (m *Matrix) Add(b *Matrix) *Matrix {
	checkSameShape("Add", m, b)
	out := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// Sub returns A - B as a new matrix. Shapes must match.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	checkSameShape("Sub", m, b)
	out := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

// Scale returns alpha*A as a new matrix.
func (m *Matrix) Scale(alpha complex128) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = alpha * v
	}
	return out
}

// SubMatrix returns a copy of the block with rows [r0, r1) and
// columns [c0, c1).
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || c0 < 0 || r1 > m.Rows || c1 > m.Cols || r0 >= r1 || c0 >= c1 {
		panic(fmt.Sprintf("cmatrix: SubMatrix [%d:%d,%d:%d) of %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out := NewMatrix(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.Row(i)[c0:c1])
	}
	return out
}

// EqualApprox reports whether every element of m and b differs by at most
// tol in absolute value. Shapes must match for equality.
func (m *Matrix) EqualApprox(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if cmplx.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// IsUpperTriangular reports whether all elements strictly below the diagonal
// have magnitude at most tol.
func (m *Matrix) IsUpperTriangular(tol float64) bool {
	for i := 1; i < m.Rows; i++ {
		row := m.Row(i)
		limit := i
		if limit > m.Cols {
			limit = m.Cols
		}
		for j := 0; j < limit; j++ {
			if cmplx.Abs(row[j]) > tol {
				return false
			}
		}
	}
	return true
}

// Fingerprint returns a 64-bit hash over the matrix shape and the raw bit
// patterns of every element. The sphere decoder's preprocessing cache keys
// QR factorizations by this value, with a full equality check on hit, so a
// collision costs a recompute, never a wrong factorization; sdproxy places
// channels on its ring by it.
//
// Two lanes fold the real and the imaginary word of each entry side by side,
// each with an xxHash64 round (multiply the word in, rotate, multiply), and
// the xxHash64 avalanche mixes the joined lanes so every input bit reaches
// every output bit. Hash quality is a performance property here, not a
// correctness one; the word-wise rounds run about ten times faster than a
// byte-serial hash over the same bits.
func (m *Matrix) Fingerprint() uint64 {
	const (
		prime1 = 11400714785074694791
		prime2 = 14029467366897019727
		prime3 = 1609587929392839161
	)
	h0 := (uint64(m.Rows) + prime1) * prime2
	h1 := (uint64(m.Cols) + prime2) * prime1
	for _, v := range m.Data {
		h0 = bits.RotateLeft64(h0+math.Float64bits(real(v))*prime2, 31) * prime1
		h1 = bits.RotateLeft64(h1+math.Float64bits(imag(v))*prime2, 31) * prime1
	}
	h := bits.RotateLeft64(h0, 1) + bits.RotateLeft64(h1, 7) + uint64(len(m.Data))
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// HasNaN reports whether the matrix contains a NaN component.
func (m *Matrix) HasNaN() bool {
	for _, v := range m.Data {
		if math.IsNaN(real(v)) || math.IsNaN(imag(v)) {
			return true
		}
	}
	return false
}

// IsFinite reports whether every entry is finite (no NaN or Inf component).
func (m *Matrix) IsFinite() bool {
	for _, v := range m.Data {
		if !isFiniteC(v) {
			return false
		}
	}
	return true
}

func isFiniteC(v complex128) bool {
	return !math.IsNaN(real(v)) && !math.IsInf(real(v), 0) &&
		!math.IsNaN(imag(v)) && !math.IsInf(imag(v), 0)
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d[\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		sb.WriteString("  ")
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&sb, "(%+.3f%+.3fi) ", real(v), imag(v))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("]")
	return sb.String()
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("cmatrix: %s shape mismatch %dx%d vs %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// --- Vector helpers -------------------------------------------------------

// Vector is a dense complex vector.
type Vector []complex128

// NewVector allocates a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// CloneVector returns a copy of v.
func CloneVector(v Vector) Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// IsFinite reports whether every entry is finite (no NaN or Inf component).
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if !isFiniteC(x) {
			return false
		}
	}
	return true
}

// Dot returns the inner product conj(a)·b (conjugating the first argument,
// the physics/BLAS ZDOTC convention). Lengths must match.
func Dot(a, b Vector) complex128 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("cmatrix: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var sum complex128
	for i, av := range a {
		sum += cmplx.Conj(av) * b[i]
	}
	return sum
}

// AXPY computes y += alpha*x in place. Lengths must match.
func AXPY(alpha complex128, x, y Vector) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("cmatrix: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// VecSub returns a - b as a new vector.
func VecSub(a, b Vector) Vector {
	if len(a) != len(b) {
		panic(fmt.Sprintf("cmatrix: VecSub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Norm2 returns the Euclidean norm ‖v‖₂.
func Norm2(v Vector) float64 { return math.Sqrt(Norm2Sq(v)) }

// Norm2Sq returns the squared Euclidean norm ‖v‖₂². This is the quantity the
// sphere decoder compares against r² at every node.
func Norm2Sq(v Vector) float64 {
	sum := 0.0
	for _, x := range v {
		sum += real(x)*real(x) + imag(x)*imag(x)
	}
	return sum
}

// FrobeniusNorm returns ‖A‖_F.
func (m *Matrix) FrobeniusNorm() float64 { return Norm2(m.Data) }

// ColumnNormsSq writes the squared 2-norm of each column of m into dst,
// which must have length m.Cols. This is the NORM module of the paper's
// pipeline operating on a batch of candidate columns.
func (m *Matrix) ColumnNormsSq(dst []float64) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("cmatrix: ColumnNormsSq needs %d slots, got %d", m.Cols, len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += real(v)*real(v) + imag(v)*imag(v)
		}
	}
}
