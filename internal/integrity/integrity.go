// Package integrity is the silent-data-corruption defense for the detection
// stack. FPGA datapaths (the paper's deployment target) are exposed to soft
// errors — bit flips in BRAM-held factorizations and DSP accumulators — and
// this repo's performance story multiplies the blast radius: one corrupted
// cached QR entry poisons every frame that shares its channel fingerprint.
// This package supplies the three checks the rest of the stack composes:
//
//  1. ABFT (algorithm-based fault tolerance) verification of GEMM products
//     via the Huang–Abraham checksum identity C·1 = A·(B·1), within a
//     norm-scaled tolerance, so an arithmetic-fabric lie is caught at the
//     call site for a fraction of the product's cost;
//  2. a re-encode audit of decode results — recompute ‖y − H·ŝ‖² from the
//     original inputs and cross-check the reported metric — so a corrupted
//     metric or symbol vector can never ship tagged exact;
//  3. the typed ErrIntegrity sentinel the serving layer's report checker
//     classifies like garbage: budgeted retry, then honest fallback.
//
// Checksumming of cached payloads (the QR cache's verify-on-hit) lives with
// the cache itself in internal/sphere, built on cmatrix.PayloadChecksum.
package integrity

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cmatrix"
)

// ErrIntegrity marks a detected silent data corruption: a value that is
// well-formed (finite, right shape) but provably inconsistent with a
// redundant recomputation. Consumers must never serve a result carrying this
// error as exact; the serving layer treats it like transient garbage
// (retry within budget, then fallback).
var ErrIntegrity = errors.New("integrity: silent data corruption detected")

// Detection sites, used as the {site} label on SDC counters end to end
// (accelerator counters, /metrics JSON, Prometheus, cluster health).
const (
	// SiteGEMM is an ABFT checksum mismatch on a hot-path GEMM product.
	SiteGEMM = "gemm"
	// SiteQRCache is a payload checksum mismatch (or non-finite payload) on
	// a preprocessing-cache hit.
	SiteQRCache = "qr-cache"
	// SiteMetricAudit is a re-encode audit failure on a decode report.
	SiteMetricAudit = "metric-audit"
)

// EpsFloat64 is the relative-error unit for GEMM verification: the float64
// accumulation precision of every product the decode path computes.
const EpsFloat64 = 0x1p-52

// VerifyGEMM checks c = a·b by the Huang–Abraham row-checksum identity: the
// row sums of C must equal A applied to the column-sum vector of B. The
// comparison tolerance scales with the accumulated magnitude Σ|a|·Σ|b| per
// row and with EpsFloat64, so honest rounding never trips it while a flipped
// exponent, sign, or high-mantissa bit in any output word does. Cost is
// O(kn + mk + mn) against the product's O(mnk); for the decode hot path's
// row-vector products (m = 1) the checksum pass is adds-only where the
// product pays multiplies.
//
// It reports false on a mismatch; shape errors panic like cmatrix.GEMM.
func VerifyGEMM(a, b, c *cmatrix.Matrix) bool {
	m, k, n := a.Rows, a.Cols, b.Cols
	if b.Rows != k || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("integrity: VerifyGEMM shapes %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	// Column-sum vector of B and its magnitude companion, one pass.
	terms := float64(k + n)
	for i := 0; i < m; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		var u complex128
		var scale float64
		for kk := 0; kk < k; kk++ {
			brow := b.Row(kk)
			var v complex128
			var vabs float64
			for _, bv := range brow {
				v += bv
				vabs += math.Abs(real(bv)) + math.Abs(imag(bv))
			}
			av := arow[kk]
			u += av * v
			scale += (math.Abs(real(av)) + math.Abs(imag(av))) * vabs
		}
		var r complex128
		for _, cv := range crow {
			r += cv
		}
		d := r - u
		tol := EpsFloat64 * terms * scale
		if math.Abs(real(d))+math.Abs(imag(d)) > tol {
			return false
		}
	}
	return true
}

// VerifyRowGEMM is VerifyGEMM specialized to the decode hot path's m = 1
// shape with the column-sum pass fused; kept separate so the general path
// stays readable. a is the 1×k row (as a flat slice), b is k×n.
func VerifyRowGEMM(a []complex128, b *cmatrix.Matrix, c []complex128) bool {
	k, n := b.Rows, b.Cols
	if len(a) != k || len(c) != n {
		panic(fmt.Sprintf("integrity: VerifyRowGEMM shapes 1x%d · %dx%d -> 1x%d",
			len(a), b.Rows, b.Cols, len(c)))
	}
	var u complex128
	var scale float64
	for kk := 0; kk < k; kk++ {
		brow := b.Row(kk)
		var v complex128
		var vabs float64
		for _, bv := range brow {
			v += bv
			vabs += math.Abs(real(bv)) + math.Abs(imag(bv))
		}
		av := a[kk]
		u += av * v
		scale += (math.Abs(real(av)) + math.Abs(imag(av))) * vabs
	}
	var r complex128
	for _, cv := range c {
		r += cv
	}
	d := r - u
	tol := EpsFloat64 * float64(k+n) * scale
	return math.Abs(real(d))+math.Abs(imag(d)) <= tol
}

// Audit is one re-encoded decode result: the independently recomputed
// residual of the returned symbol vector against the original (h, y), plus
// the magnitude scale its comparisons tolerate rounding against. The scale
// is ‖y‖² + ‖H·ŝ‖², not the residual itself: the reported metric is
// assembled from the rotated domain as pd + (‖y‖² − ‖ȳ‖²), and that
// cancellation carries absolute rounding error proportional to ‖y‖² even
// when the residual is tiny.
type Audit struct {
	// ResidualSq is ‖y − H·ŝ‖₂², the true squared Euclidean residual of the
	// returned decision.
	ResidualSq float64
	// Scale is the rounding-error magnitude reference for tolerance.
	Scale float64
}

// auditRelTol is deliberately loose against machine epsilon (~2e-16): the
// corruptions worth catching (sign, exponent, high-mantissa flips) move a
// metric by ≥1e-4 relative, while honest pd+offset assembly stays within a
// few hundred ulps of the re-encoded residual.
const auditRelTol = 1e-7

// ReEncode recomputes the residual of ŝ against the original inputs. scratch
// is optional caller-owned storage of length h.Rows to keep the audit off
// the allocator on hot serving paths; pass nil to allocate.
func ReEncode(h *cmatrix.Matrix, y, symbols cmatrix.Vector, scratch cmatrix.Vector) Audit {
	n := h.Rows
	if cap(scratch) < n {
		scratch = make(cmatrix.Vector, n)
	}
	hs := scratch[:n]
	for i := 0; i < n; i++ {
		row := h.Row(i)
		var sum complex128
		for j, hv := range row {
			sum += hv * symbols[j]
		}
		hs[i] = sum
	}
	var res, yNorm, hsNorm float64
	for i := 0; i < n; i++ {
		d := y[i] - hs[i]
		res += real(d)*real(d) + imag(d)*imag(d)
		yNorm += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
		hsNorm += real(hs[i])*real(hs[i]) + imag(hs[i])*imag(hs[i])
	}
	return Audit{ResidualSq: res, Scale: yNorm + hsNorm + 1}
}

// tol is the absolute comparison slack for this audit.
func (a Audit) tol() float64 { return auditRelTol * a.Scale }

// CheckExactL2 cross-checks a reported ℓ² metric against the re-encoded
// residual: for an exact (or best-effort/fallback) ℓ²-norm decode the metric
// is defined as ‖y − H·ŝ‖² of the returned point, so anything outside
// tolerance is corruption — of the metric, the symbols, or the state that
// produced them.
func (a Audit) CheckExactL2(metric float64) error {
	if d := math.Abs(metric - a.ResidualSq); d > a.tol() {
		return fmt.Errorf("%w: reported metric %g vs re-encoded residual %g (|Δ|=%g > tol %g)",
			ErrIntegrity, metric, a.ResidualSq, d, a.tol())
	}
	return nil
}

// CheckBound is the norm-agnostic sanity bound: every metric this stack
// reports — ℓ² residuals, and ℓ∞ partial distances taken in the rotated
// (QR) domain where ‖v‖∞² ≤ ‖v‖₂² — is non-negative and at most the
// re-encoded squared ℓ² residual. Negative or bound-exceeding metrics are
// corruption.
func (a Audit) CheckBound(metric float64) error {
	tol := a.tol()
	if metric < 0 {
		return fmt.Errorf("%w: negative metric %g", ErrIntegrity, metric)
	}
	if metric > a.ResidualSq+tol {
		return fmt.Errorf("%w: metric %g exceeds re-encoded residual bound %g (tol %g)",
			ErrIntegrity, metric, a.ResidualSq, tol)
	}
	return nil
}
