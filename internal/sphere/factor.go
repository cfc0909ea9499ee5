package sphere

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/cmatrix"
)

// This file holds the serving factorization kernel: one flat Householder QR
// that writes a channel handle's storage directly. It is the software form
// of the paper's prefetch unit: the channel is factored once, into fixed
// buffers that sit in front of the detection pipeline, and every frame then
// starts at the ȳ rotation.
//
// The kernel performs cmatrix.QR's arithmetic operation for operation (same
// reflector construction, same update order, same pivot tolerance), so R
// and the error class it returns are those of cmatrix.QR. What it does not
// do is form Q: it keeps the reflectors (v, τ) and the diagonal phases, and
// rotate applies them to each received vector instead of multiplying by Qᴴ.

// factor runs the kernel on h into p's storage, replacing whatever channel p
// held before. It returns cmatrix.ErrNonFinite for NaN/Inf input or a
// non-finite factor and cmatrix.ErrSingular for a pivot at or below
// cmatrix.QR's tolerance 1e-12·‖H‖_F·M, exactly as cmatrix.QR does; the
// handle's contents are unspecified after an error.
func (p *Preprocessed) factor(h *cmatrix.Matrix) error {
	n, m := h.Rows, h.Cols
	if n < m {
		return fmt.Errorf("cmatrix: QR requires rows >= cols, got %dx%d", n, m)
	}
	dim := 2 * m
	p.H, p.N, p.M = h, n, m
	p.Flops = 32 * int64(n) * int64(m) * int64(m)
	p.refl = growComplex(p.refl, n*m+2*m)
	if p.rp.Dim != dim {
		// A different shape may leave stale words below the new diagonal;
		// the loops below write only the upper triangle.
		p.rp.R = growFloats(p.rp.R, dim*dim)
		clear(p.rp.R)
	}
	p.rp.Dim, p.rp.Flops = dim, 8*int64(m)*int64(m)
	p.cplx.Store(nil)
	p.rowMass.Store(0)
	a := p.refl[:n*m]
	unphase := p.refl[n*m : n*m+m]
	tau := p.refl[n*m+m : n*m+2*m]

	// Copy H column-major, rejecting NaN/Inf (x−x is 0 exactly for finite x)
	// and summing ‖H‖²_F in row-major order, as cmatrix.FrobeniusNorm does.
	var frobSq float64
	for i := 0; i < n; i++ {
		for j, v := range h.Data[i*m : (i+1)*m] {
			re, im := real(v), imag(v)
			if re-re != 0 || im-im != 0 {
				return cmatrix.ErrNonFinite
			}
			frobSq += re*re + im*im
			a[j*n+i] = v
		}
	}

	// Reflect in place. Column k keeps alpha (the unnormalized R diagonal)
	// at row k and the tail of v_k below it; v_k's leading entry v0 waits in
	// unphase[k] until the pivot pass has read alpha.
	for k := 0; k < m; k++ {
		col := a[k*n : (k+1)*n]
		var normSq float64
		for _, v := range col[k:] {
			normSq += real(v)*real(v) + imag(v)*imag(v)
		}
		norm := math.Sqrt(normSq)
		x0 := col[k]
		tau[k], unphase[k] = 0, 0
		if norm == 0 {
			continue
		}
		var phase complex128 = 1
		if x0 != 0 {
			phase = x0 / complex(cmplx.Abs(x0), 0)
		}
		alpha := -phase * complex(norm, 0)
		v0 := x0 - alpha
		col[k] = alpha
		tail := col[k+1:]
		vNormSq := real(v0)*real(v0) + imag(v0)*imag(v0)
		for _, v := range tail {
			vNormSq += real(v)*real(v) + imag(v)*imag(v)
		}
		if vNormSq == 0 {
			continue
		}
		t := complex(2/vNormSq, 0)
		tau[k] = t
		for j := k + 1; j < m; j++ {
			cj := a[j*n+k : (j+1)*n]
			cjTail := cj[1 : 1+len(tail)]
			w := cmplx.Conj(v0) * cj[0]
			for i, v := range tail {
				w += cmplx.Conj(v) * cjTail[i]
			}
			w *= t
			cj[0] -= w * v0
			for i, v := range tail {
				cjTail[i] -= w * v
			}
		}
		unphase[k] = v0
	}

	// Normalize the diagonal phase row by row (cmatrix.QR's pivot pass) and
	// write R straight into the interleaved real layout RealSE reads: entry
	// r_kj lands as the 2×2 block [Re −Im; Im Re] at rows 2k, 2k+1 and
	// columns 2j, 2j+1.
	tol := 1e-12 * math.Sqrt(frobSq) * float64(m)
	rr := p.rp.R
	for k := 0; k < m; k++ {
		col := a[k*n : (k+1)*n]
		d := col[k]
		ad := cmplx.Abs(d)
		if ad <= tol {
			return cmatrix.ErrSingular
		}
		inv := cmplx.Conj(d / complex(ad, 0))
		top := rr[2*k*dim : (2*k+1)*dim]
		bot := rr[(2*k+1)*dim : (2*k+2)*dim]
		rkk := d * inv
		top[2*k], top[2*k+1] = real(rkk), -imag(rkk)
		bot[2*k], bot[2*k+1] = 0, real(rkk)
		for j := k + 1; j < m; j++ {
			r := a[j*n+k] * inv
			top[2*j], top[2*j+1] = real(r), -imag(r)
			bot[2*j], bot[2*j+1] = imag(r), real(r)
		}
		col[k], unphase[k] = unphase[k], inv
	}

	// cmatrix.QR refuses a non-finite R or Q. Q is finite exactly when every
	// τ and phase is (a subnormal ‖v‖² overflows τ), so check those instead.
	for _, x := range rr {
		if x-x != 0 {
			return cmatrix.ErrNonFinite
		}
	}
	for k := 0; k < m; k++ {
		if !finiteC(tau[k]) || !finiteC(unphase[k]) {
			return cmatrix.ErrNonFinite
		}
	}
	p.checksum = handleChecksum(rr, p.refl)
	return nil
}

// rotate computes ȳ = Qᴴy with the handle's reflectors: z (length ≥ N) is
// overwritten with P_{M−1}···P_0·y, the first M entries are rotated by the
// conjugate diagonal phases, and z[:M] is returned. This is the one
// per-frame rotation of every decode on the handle, hit or miss, on every
// engine; it costs about what the explicit Qᴴy product did.
func (p *Preprocessed) rotate(z, y cmatrix.Vector) cmatrix.Vector {
	n, m := p.N, p.M
	z = z[:n]
	copy(z, y)
	a := p.refl
	unphase := a[n*m : n*m+m]
	tau := a[n*m+m : n*m+2*m]
	for k := 0; k < m; k++ {
		t := real(tau[k])
		if t == 0 {
			continue
		}
		v := a[k*n+k : (k+1)*n]
		zk := z[k : k+len(v)]
		var wr, wi float64
		for i, vi := range v {
			zi := zk[i]
			wr += real(vi)*real(zi) + imag(vi)*imag(zi)
			wi += real(vi)*imag(zi) - imag(vi)*real(zi)
		}
		wr, wi = wr*t, wi*t
		for i, vi := range v {
			zk[i] -= complex(wr*real(vi)-wi*imag(vi), wr*imag(vi)+wi*real(vi))
		}
	}
	ybar := z[:m]
	for k := range ybar {
		ybar[k] *= unphase[k]
	}
	return ybar
}

// handleChecksum is the content checksum over a handle's canonical storage:
// the interleaved real R and the reflector block.
func handleChecksum(rr []float64, refl []complex128) uint64 {
	return fnvMix2(cmatrix.Float64Checksum(rr), cmatrix.Vector(refl).PayloadChecksum())
}

// fnvMix2 folds two checksums into one stored word.
func fnvMix2(a, b uint64) uint64 {
	const prime64 = 1099511628211
	return (a ^ b*prime64) * prime64
}

func finiteC(v complex128) bool {
	return real(v)-real(v) == 0 && imag(v)-imag(v) == 0
}

func growComplex(s []complex128, n int) []complex128 {
	if cap(s) < n {
		return make([]complex128, n)
	}
	return s[:n]
}
