package cmatrix

import (
	"fmt"
	"runtime"
	"sync"
)

// FlopsGEMM returns the number of real floating-point operations performed
// by a complex m×k by k×n matrix multiply. Each complex multiply-add costs
// 8 real operations (4 mul + 4 add), so the total is 8*m*n*k. The execution
// cost models use this to convert operation traces into time.
func FlopsGEMM(m, n, k int) int64 {
	return 8 * int64(m) * int64(n) * int64(k)
}

// MulNaive returns A*B using the textbook triple loop. It is the reference
// implementation every optimized kernel is property-tested against.
func MulNaive(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("cmatrix: MulNaive inner dims %d vs %d", a.Cols, b.Rows))
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
	return c
}

// blockSize is the cache tile edge used by Mul. 64 complex128 values per row
// segment keeps an A-tile + B-tile + C-tile working set comfortably inside a
// typical 256 KiB L2 slice.
const blockSize = 64

// Mul returns A*B using a cache-blocked kernel. Products large enough to
// amortize the plane conversion route through the split-plane (SoA) kernel.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("cmatrix: Mul inner dims %d vs %d", a.Cols, b.Rows))
	}
	c := NewMatrix(a.Rows, b.Cols)
	if useSplitKernel(a.Rows, b.Cols, a.Cols) {
		mulSplitInto(c, a, b, 1)
		return c
	}
	gemmBlockedInto(c, a, b, 0, a.Rows)
	return c
}

// gemmBlockedInto computes c[rows r0:r1] += a[rows r0:r1] * b with cache
// blocking over the k and j dimensions. c must be pre-shaped.
func gemmBlockedInto(c, a, b *Matrix, r0, r1 int) {
	n := b.Cols
	kdim := a.Cols
	for kk := 0; kk < kdim; kk += blockSize {
		kmax := kk + blockSize
		if kmax > kdim {
			kmax = kdim
		}
		for jj := 0; jj < n; jj += blockSize {
			jmax := jj + blockSize
			if jmax > n {
				jmax = n
			}
			for i := r0; i < r1; i++ {
				arow := a.Row(i)
				crow := c.Row(i)[jj:jmax]
				for k := kk; k < kmax; k++ {
					av := arow[k]
					if av == 0 {
						continue
					}
					brow := b.Row(k)[jj:jmax]
					for j, bv := range brow {
						crow[j] += av * bv
					}
				}
			}
		}
	}
}

// MulParallel returns A*B, splitting rows of A across workers goroutines.
// workers <= 0 selects GOMAXPROCS. This mirrors the multi-threaded MKL GEMM
// of the paper's CPU implementation.
func MulParallel(a, b *Matrix, workers int) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("cmatrix: MulParallel inner dims %d vs %d", a.Cols, b.Rows))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > a.Rows {
		workers = a.Rows
	}
	c := NewMatrix(a.Rows, b.Cols)
	if workers <= 1 {
		if useSplitKernel(a.Rows, b.Cols, a.Cols) {
			mulSplitInto(c, a, b, 1)
		} else {
			gemmBlockedInto(c, a, b, 0, a.Rows)
		}
		return c
	}
	if useSplitKernel(a.Rows, b.Cols, a.Cols) {
		mulSplitParallel(c, a, b, workers)
		return c
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		r0 := w * chunk
		r1 := r0 + chunk
		if r1 > a.Rows {
			r1 = a.Rows
		}
		if r0 >= r1 {
			break
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			gemmBlockedInto(c, a, b, r0, r1)
		}(r0, r1)
	}
	wg.Wait()
	return c
}

// GEMM computes C = alpha*A*B + beta*C in place. C must already have shape
// a.Rows × b.Cols. Per BLAS semantics, beta == 0 overwrites C without reading
// it, so pre-existing NaN/Inf (or garbage in a reused scratch buffer) cannot
// leak into the product.
func GEMM(alpha complex128, a, b *Matrix, beta complex128, c *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("cmatrix: GEMM inner dims %d vs %d", a.Cols, b.Rows))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("cmatrix: GEMM output shape %dx%d, want %dx%d",
			c.Rows, c.Cols, a.Rows, b.Cols))
	}
	switch beta {
	case 1:
	case 0:
		for i := range c.Data {
			c.Data[i] = 0
		}
	default:
		for i := range c.Data {
			c.Data[i] *= beta
		}
	}
	if alpha == 0 {
		return
	}
	if useSplitKernel(a.Rows, b.Cols, a.Cols) {
		gemmSplitAccum(alpha, a, b, c)
		return
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := alpha * arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// MulVec returns A*x. This is the memory-bound BLAS-2 kernel the paper's
// GEMM refactoring replaces with batched BLAS-3 calls.
func MulVec(a *Matrix, x Vector) Vector {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("cmatrix: MulVec dims %d vs %d", a.Cols, len(x)))
	}
	y := make(Vector, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var sum complex128
		for j, v := range row {
			sum += v * x[j]
		}
		y[i] = sum
	}
	return y
}

// ConjTransposeMulVec returns Aᴴ*x without materializing Aᴴ.
func ConjTransposeMulVec(a *Matrix, x Vector) Vector {
	y := make(Vector, a.Cols)
	ConjTransposeMulVecInto(y, a, x)
	return y
}

// ConjTransposeMulVecInto computes dst = Aᴴ*x into caller-owned storage —
// the allocation-free form the pooled sphere search uses for the per-frame
// ȳ = Qᴴy rotation. dst must have length a.Cols.
func ConjTransposeMulVecInto(dst Vector, a *Matrix, x Vector) {
	if a.Rows != len(x) {
		panic(fmt.Sprintf("cmatrix: ConjTransposeMulVec dims %d vs %d", a.Rows, len(x)))
	}
	if len(dst) != a.Cols {
		panic(fmt.Sprintf("cmatrix: ConjTransposeMulVecInto needs %d slots, got %d", a.Cols, len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		xi := x[i]
		for j, v := range row {
			dst[j] += complex(real(v), -imag(v)) * xi
		}
	}
}

// Gram returns Aᴴ*A, the Gram matrix needed by the ZF and MMSE linear
// decoders. Only the BLAS-3 form is provided since M is small.
func Gram(a *Matrix) *Matrix {
	g := NewMatrix(a.Cols, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for p := 0; p < a.Cols; p++ {
			cp := complex(real(row[p]), -imag(row[p]))
			if cp == 0 {
				continue
			}
			grow := g.Row(p)
			for q := 0; q < a.Cols; q++ {
				grow[q] += cp * row[q]
			}
		}
	}
	return g
}
