// Package decoder defines the common detector interface shared by every
// signal-detection algorithm in this repository, along with the linear
// decoders the paper uses as background comparators (Zero Forcing, MMSE,
// Maximum Ratio Combining) and the exhaustive Maximum Likelihood detector
// that anchors all exactness property tests.
//
// Every Decode call also produces a Counters value: a platform-independent
// operation trace (nodes, flops, sorts, memory traffic classes). The
// execution-time models in internal/fpga, internal/gpu, and
// internal/platform convert these traces into per-platform decoding times —
// that is how this reproduction replaces wall-clock measurements on hardware
// we do not have.
package decoder

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cmatrix"
	"repro/internal/constellation"
)

// Counters is the operation trace of one Decode call. Counts are exact for
// the work the algorithm actually performed (no estimates), summed over any
// radius-doubling retries.
type Counters struct {
	// Tree-search activity (zero for linear decoders).
	NodesExpanded     int64 // nodes popped and branched
	ChildrenGenerated int64 // child nodes created (== NodesExpanded·|Ω| for full branching)
	ChildrenPruned    int64 // children discarded against the radius
	LeavesReached     int64 // full-depth candidates evaluated
	RadiusUpdates     int64 // improving leaves that shrank the sphere
	MaxListLen        int64 // high-water mark of the active node list
	EvalDepthSum      int64 // Σ over expansions of the PD dot-product depth (m−k); platform models derive average tree-state block heights from this

	// Arithmetic activity.
	GEMMCalls  int64 // batched BLAS-3 evaluations issued
	GEMMFlops  int64 // real flops inside those GEMM calls
	OtherFlops int64 // everything else: norms, preprocessing, slicing

	// Sorting / pruning activity (the paper's phase 3).
	SortedBatches int64 // child batches sorted by PD
	CompareOps    int64 // comparator evaluations spent sorting

	// Integrity activity: silent-data-corruption events caught (and repaired
	// in place) by the ABFT checks on this decode. Zero on every honest run;
	// the serving layer aggregates these into its SDC observability and
	// quarantine accounting.
	SDCDetected  int64 // checksum mismatches caught during the search
	SDCRecovered int64 // mismatches repaired by recomputation

	// Memory-traffic classes, in complex128 element units. The platform
	// models charge these differently: on the FPGA the optimized design
	// hides IrregularLoads behind the prefetch unit; on CPU/GPU they stall.
	RegularLoads   int64 // streaming/contiguous accesses
	IrregularLoads int64 // pointer-chasing / gather accesses
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.NodesExpanded += other.NodesExpanded
	c.ChildrenGenerated += other.ChildrenGenerated
	c.ChildrenPruned += other.ChildrenPruned
	c.LeavesReached += other.LeavesReached
	c.RadiusUpdates += other.RadiusUpdates
	if other.MaxListLen > c.MaxListLen {
		c.MaxListLen = other.MaxListLen
	}
	c.EvalDepthSum += other.EvalDepthSum
	c.GEMMCalls += other.GEMMCalls
	c.GEMMFlops += other.GEMMFlops
	c.OtherFlops += other.OtherFlops
	c.SortedBatches += other.SortedBatches
	c.CompareOps += other.CompareOps
	c.SDCDetected += other.SDCDetected
	c.SDCRecovered += other.SDCRecovered
	c.RegularLoads += other.RegularLoads
	c.IrregularLoads += other.IrregularLoads
}

// TotalFlops returns all real floating-point operations in the trace.
func (c Counters) TotalFlops() int64 { return c.GEMMFlops + c.OtherFlops }

// Workload describes a batch decode job: the paper's timing unit is the
// time to decode a Monte-Carlo batch of received vectors for one
// (M×N, modulation) configuration. Every platform timing model consumes a
// (Workload, Counters) pair, where the Counters aggregate the operation
// trace of exactly the Frames decodes in the workload.
type Workload struct {
	// M, N are transmit/receive antenna counts; P is |Ω|.
	M, N, P int
	// Frames is the number of received vectors in the batch.
	Frames int
}

// Validate reports an invalid workload.
func (w Workload) Validate() error {
	if w.M <= 0 || w.N < w.M || w.P < 2 || w.Frames <= 0 {
		return fmt.Errorf("decoder: invalid workload %+v", w)
	}
	return nil
}

// Quality grades a detection result for the anytime-decoding contract:
// a search cut short by a node budget or deadline still returns a usable
// decision, flagged so the caller can tell it from an exact one.
type Quality int

const (
	// QualityExact means the search ran to completion: the result is the
	// detector's nominal output (ML-equal for the exact sphere strategies).
	// It is the zero value, so decoders that never degrade report it for
	// free.
	QualityExact Quality = iota
	// QualityBestEffort means the search was cut short (budget or
	// deadline) but had already reached at least one leaf; the returned
	// vector is the best leaf found so far.
	QualityBestEffort
	// QualityFallback means the search was cut short before reaching any
	// leaf; the returned vector is a linear-complexity fallback (the better
	// of the Babai decision-feedback point and the sliced zero-forcing
	// solution), so its metric is never worse than plain ZF detection.
	QualityFallback
)

// String names the quality grade as used in reports and histograms.
func (q Quality) String() string {
	switch q {
	case QualityExact:
		return "exact"
	case QualityBestEffort:
		return "best-effort"
	case QualityFallback:
		return "fallback"
	default:
		return fmt.Sprintf("Quality(%d)", int(q))
	}
}

// ParseQuality is the inverse of String, for consumers reading quality
// grades off the wire (metrics JSON, trace frames).
func ParseQuality(s string) (Quality, error) {
	switch s {
	case "exact":
		return QualityExact, nil
	case "best-effort":
		return QualityBestEffort, nil
	case "fallback":
		return QualityFallback, nil
	default:
		return 0, fmt.Errorf("decoder: unknown quality %q (want exact, best-effort, fallback)", s)
	}
}

// Degraded reports whether the result is anything less than exact.
func (q Quality) Degraded() bool { return q != QualityExact }

// Reasons recorded in Result.DegradedBy.
const (
	// DegradedByBudget marks a search cut by its node-expansion budget.
	DegradedByBudget = "node-budget"
	// DegradedByDeadline marks a search cut by its wall-clock deadline.
	DegradedByDeadline = "deadline"
	// DegradedByBatchDeadline marks a decode shed to the fallback path
	// because the enclosing batch had already spent its modeled-time or
	// node budget.
	DegradedByBatchDeadline = "batch-deadline"
	// DegradedByOverload marks a decode shed to the fallback path by a
	// serving scheduler whose admission queue was full (internal/serve's
	// shed-to-linear overload policy).
	DegradedByOverload = "overload"
	// DegradedByPolicy marks a decode routed to the linear path by an
	// explicit DecodePolicy (a controller or operator chose linear-only
	// service) rather than by an exhausted budget or a full queue.
	DegradedByPolicy = "policy"
)

// Result is the outcome of one detection.
type Result struct {
	// SymbolIdx holds the detected constellation index per transmit
	// antenna (s₀ … s_{M−1}).
	SymbolIdx []int
	// Symbols holds the corresponding constellation points.
	Symbols cmatrix.Vector
	// Metric is ‖y − H·ŝ‖², the Euclidean distance the detector minimized
	// (for linear decoders: the distance of the sliced solution).
	Metric float64
	// Counters is the operation trace of this call.
	Counters Counters
	// Quality grades the result; the zero value is QualityExact.
	Quality Quality
	// DegradedBy names what cut the search short ("" when exact): one of
	// DegradedByBudget, DegradedByDeadline, DegradedByBatchDeadline.
	DegradedBy string
	// Elapsed is the wall-clock search time, recorded when the decoder
	// tracks deadlines (zero otherwise).
	Elapsed time.Duration
}

// Decoder is a MIMO signal detector. Implementations must be safe for
// sequential reuse; they are not required to be safe for concurrent use.
type Decoder interface {
	// Name identifies the algorithm in reports ("ZF", "MMSE", "SD-BestFS", …).
	Name() string
	// Decode detects the transmitted symbol vector given the channel
	// estimate h (N×M), the received vector y (length N), and the noise
	// variance σ².
	Decode(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) (*Result, error)
}

// ErrDimension reports inconsistent h/y shapes.
var ErrDimension = errors.New("decoder: dimension mismatch between H and y")

// CheckDims validates that h is N×M with N >= M and len(y) == N.
func CheckDims(h *cmatrix.Matrix, y cmatrix.Vector) error {
	if h.Rows != len(y) {
		return fmt.Errorf("%w: H is %dx%d, y has length %d", ErrDimension, h.Rows, h.Cols, len(y))
	}
	if h.Rows < h.Cols {
		return fmt.Errorf("%w: underdetermined system %dx%d", ErrDimension, h.Rows, h.Cols)
	}
	return nil
}

// finishResult slices zhat onto the constellation, computes the true
// Euclidean metric of the sliced decision, and packages the result.
func finishResult(c *constellation.Constellation, h *cmatrix.Matrix, y cmatrix.Vector, zhat cmatrix.Vector, counters Counters) *Result {
	m := len(zhat)
	idx := make([]int, m)
	syms := make(cmatrix.Vector, m)
	for i, z := range zhat {
		idx[i] = c.Slice(z)
		syms[i] = c.Symbol(idx[i])
	}
	metric := cmatrix.Norm2Sq(cmatrix.VecSub(y, cmatrix.MulVec(h, syms)))
	// Slicing cost: one comparison pass per element; metric: one GEMV.
	counters.OtherFlops += int64(m)*4 + 8*int64(h.Rows)*int64(h.Cols)
	counters.RegularLoads += int64(h.Rows) * int64(h.Cols)
	return &Result{SymbolIdx: idx, Symbols: syms, Metric: metric, Counters: counters}
}

// --- Zero Forcing ----------------------------------------------------------

// ZF is the zero-forcing linear decoder: ŝ = slice(H⁺·y). Low complexity,
// poor BER at low SNR — the "cheap" end of the trade-off in the paper's
// introduction and a series in Fig. 12.
type ZF struct {
	Const *constellation.Constellation
}

// NewZF builds a zero-forcing decoder over c.
func NewZF(c *constellation.Constellation) *ZF { return &ZF{Const: c} }

// Name implements Decoder.
func (d *ZF) Name() string { return "ZF" }

// Decode implements Decoder.
func (d *ZF) Decode(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) (*Result, error) {
	if err := CheckDims(h, y); err != nil {
		return nil, err
	}
	z, err := cmatrix.PseudoInverseLS(h, y)
	if err != nil {
		return nil, fmt.Errorf("ZF: %w", err)
	}
	n, m := int64(h.Rows), int64(h.Cols)
	var counters Counters
	// QR (~4nm² complex flops => 8·4nm² real) + Qᴴy GEMV + back-substitution.
	counters.OtherFlops = 32*n*m*m + 8*n*m + 4*m*m
	counters.RegularLoads = n*m + m*m
	return finishResult(d.Const, h, y, z, counters), nil
}

// --- MMSE -------------------------------------------------------------------

// MMSE is the minimum mean-square-error linear decoder:
// ŝ = slice((HᴴH + σ²I)⁻¹·Hᴴ·y). Better conditioned than ZF at low SNR but
// still far from ML, as the paper's introduction notes.
type MMSE struct {
	Const *constellation.Constellation
}

// NewMMSE builds an MMSE decoder over c.
func NewMMSE(c *constellation.Constellation) *MMSE { return &MMSE{Const: c} }

// Name implements Decoder.
func (d *MMSE) Name() string { return "MMSE" }

// Decode implements Decoder.
func (d *MMSE) Decode(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) (*Result, error) {
	if err := CheckDims(h, y); err != nil {
		return nil, err
	}
	if noiseVar < 0 || math.IsNaN(noiseVar) {
		return nil, fmt.Errorf("MMSE: invalid noise variance %v", noiseVar)
	}
	g := cmatrix.Gram(h)
	for i := 0; i < g.Rows; i++ {
		g.Set(i, i, g.At(i, i)+complex(noiseVar, 0))
	}
	rhs := cmatrix.ConjTransposeMulVec(h, y)
	z, err := cmatrix.SolveHPD(g, rhs)
	if err != nil {
		return nil, fmt.Errorf("MMSE: %w", err)
	}
	n, m := int64(h.Rows), int64(h.Cols)
	var counters Counters
	// Gram (8nm²) + Cholesky (~8m³/3) + solves (8m²) + Hᴴy (8nm).
	counters.OtherFlops = 8*n*m*m + 8*m*m*m/3 + 8*m*m + 8*n*m
	counters.RegularLoads = n*m + m*m
	return finishResult(d.Const, h, y, z, counters), nil
}

// --- MRC --------------------------------------------------------------------

// MRC is maximum ratio combining: each stream is detected independently as
// ŝᵢ = slice(hᵢᴴ·y / ‖hᵢ‖²), ignoring inter-stream interference entirely.
// It is the weakest (and cheapest) scheme referenced in the paper's
// background discussion.
type MRC struct {
	Const *constellation.Constellation
}

// NewMRC builds an MRC decoder over c.
func NewMRC(c *constellation.Constellation) *MRC { return &MRC{Const: c} }

// Name implements Decoder.
func (d *MRC) Name() string { return "MRC" }

// Decode implements Decoder.
func (d *MRC) Decode(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) (*Result, error) {
	if err := CheckDims(h, y); err != nil {
		return nil, err
	}
	m := h.Cols
	z := make(cmatrix.Vector, m)
	for j := 0; j < m; j++ {
		var num complex128
		var den float64
		for i := 0; i < h.Rows; i++ {
			v := h.At(i, j)
			num += complex(real(v), -imag(v)) * y[i]
			den += real(v)*real(v) + imag(v)*imag(v)
		}
		if den == 0 {
			return nil, fmt.Errorf("MRC: zero column %d in channel matrix", j)
		}
		z[j] = num / complex(den, 0)
	}
	var counters Counters
	counters.OtherFlops = 16 * int64(h.Rows) * int64(m)
	counters.RegularLoads = int64(h.Rows) * int64(m)
	return finishResult(d.Const, h, y, z, counters), nil
}

// --- Maximum Likelihood ------------------------------------------------------

// ML is the exhaustive maximum-likelihood detector (Eq. 2): it scores all
// |Ω|^M candidate vectors and returns the global minimizer. Exponential cost
// makes it usable only for small systems, which is exactly its role here —
// the ground truth that every sphere decoder variant must match exactly.
type ML struct {
	Const *constellation.Constellation
	// MaxCandidates guards against accidentally launching an infeasible
	// search; Decode fails if |Ω|^M exceeds it. Zero means 2^22.
	MaxCandidates int64
}

// NewML builds an exhaustive ML decoder over c.
func NewML(c *constellation.Constellation) *ML { return &ML{Const: c} }

// Name implements Decoder.
func (d *ML) Name() string { return "ML" }

// Decode implements Decoder.
func (d *ML) Decode(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) (*Result, error) {
	if err := CheckDims(h, y); err != nil {
		return nil, err
	}
	m := h.Cols
	p := int64(d.Const.Size())
	limit := d.MaxCandidates
	if limit == 0 {
		limit = 1 << 22
	}
	total := int64(1)
	for i := 0; i < m; i++ {
		total *= p
		if total > limit {
			return nil, fmt.Errorf("ML: search space %v^%d exceeds limit %d", p, m, limit)
		}
	}

	idx := make([]int, m)
	best := make([]int, m)
	s := make(cmatrix.Vector, m)
	bestMetric := math.Inf(1)
	var counters Counters
	for n := int64(0); n < total; n++ {
		// Decode the candidate number into per-antenna symbol indices.
		v := n
		for i := 0; i < m; i++ {
			idx[i] = int(v % p)
			v /= p
			s[i] = d.Const.Symbol(idx[i])
		}
		metric := cmatrix.Norm2Sq(cmatrix.VecSub(y, cmatrix.MulVec(h, s)))
		counters.OtherFlops += 8*int64(h.Rows)*int64(m) + 4*int64(h.Rows)
		counters.LeavesReached++
		if metric < bestMetric {
			bestMetric = metric
			copy(best, idx)
			counters.RadiusUpdates++
		}
	}
	counters.RegularLoads = total * int64(h.Rows) * int64(m)
	syms := make(cmatrix.Vector, m)
	for i, id := range best {
		syms[i] = d.Const.Symbol(id)
	}
	return &Result{SymbolIdx: best, Symbols: syms, Metric: bestMetric, Counters: counters}, nil
}
