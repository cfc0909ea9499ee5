// Package sphere implements the paper's primary algorithmic contribution:
// the Sphere Decoder (SD) family for MIMO signal detection, refactored
// around batched GEMM evaluation (after Arfaoui et al. [1]) and a
// sorted-children depth-first traversal (after Geosphere [14]) — the
// combination the paper maps onto its FPGA pipeline.
//
// The decoder solves ŝ = argmin ‖y − Hs‖² over s ∈ Ωᴹ by QR-reducing the
// problem to ‖ȳ − Rs‖² (Eq. 4) and searching an M-level tree in which depth
// d decides the symbol of antenna M−d. Each node carries a partial Euclidean
// distance (PD); branches whose PD exceeds the sphere radius r² are pruned
// (Algorithm 1). Several traversal strategies are provided because the
// paper's evaluation hinges on comparing them:
//
//   - SortedDFS — the paper's design: children sorted by PD, explored
//     depth-first (LIFO, Fig. 3), radius updated at every improving leaf.
//   - PlainDFS — ablation: depth-first without child sorting.
//   - BestFS — true best-first via a global priority queue.
//   - BFS — level-synchronous breadth-first, the GPU baseline of [1].
//   - FSD — fixed-complexity SD (Barbero & Thompson), a related-work
//     comparator: full enumeration at the top level, decision feedback below.
//
// All exact strategies (SortedDFS, PlainDFS, BestFS with infinite initial
// radius) provably return the ML solution; this invariant is property-tested
// against the exhaustive detector in internal/decoder.
package sphere

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/trace"
)

// Strategy selects the tree traversal order.
type Strategy int

const (
	// SortedDFS is depth-first with children sorted by ascending PD — the
	// paper's traversal (it calls this Best-FS following Geosphere).
	SortedDFS Strategy = iota
	// PlainDFS is depth-first in natural symbol order (ablation baseline).
	PlainDFS
	// BestFS is global best-first using a priority queue keyed on PD.
	BestFS
	// BFS is level-synchronous breadth-first — the traversal used by the
	// GPU GEMM implementation of [1] that Fig. 11 compares against.
	BFS
	// FSD is the fixed-complexity sphere decoder: exhaustive on the first
	// tree level, decision-feedback (best child only) below. Suboptimal
	// but embarrassingly parallel.
	FSD
	// RealSE is the real-valued-decomposition depth-first search with
	// Schnorr–Euchner enumeration: the complex system is embedded into a
	// real one of twice the dimension (Azzam & Ayanoglu), and the children
	// of each PAM-axis node are generated in ascending-PD order analytically
	// by zig-zagging around the unconstrained solution — which deletes the
	// per-node sorting pass (the paper's phase-3 hardware sorter) entirely.
	// Exact under NormL2; requires square QAM. Config.Norm selects the
	// partial-distance metric.
	RealSE
)

// String names the strategy as used in reports.
func (s Strategy) String() string {
	switch s {
	case SortedDFS:
		return "SD-SortedDFS"
	case PlainDFS:
		return "SD-PlainDFS"
	case BestFS:
		return "SD-BestFS"
	case BFS:
		return "SD-BFS"
	case FSD:
		return "FSD"
	case RealSE:
		return "SD-RVD-SE"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy converts a CLI string into a Strategy. It accepts the
// canonical report names (case-insensitive, with or without the "SD-"
// prefix) and common short forms.
func ParseStrategy(s string) (Strategy, error) {
	key := strings.ToLower(strings.NewReplacer("-", "", "_", "", " ", "").Replace(s))
	key = strings.TrimPrefix(key, "sd")
	switch key {
	case "sorteddfs", "sorted", "":
		return SortedDFS, nil
	case "plaindfs", "plain":
		return PlainDFS, nil
	case "bestfs":
		return BestFS, nil
	case "bfs":
		return BFS, nil
	case "fsd":
		return FSD, nil
	case "rvdse", "realse", "rvd":
		return RealSE, nil
	default:
		return 0, fmt.Errorf("sphere: unknown strategy %q", s)
	}
}

// Norm selects the partial-distance metric of the tree search.
type Norm int

const (
	// NormL2 accumulates squared Euclidean increments (Σ|·|²) — the ML
	// metric; exact strategies return the ML solution under it.
	NormL2 Norm = iota
	// NormLInf takes the maximum per-level increment (Seethaler & Bölcskei):
	// PD = max(parent PD, |increment|²). The max is monotone down the tree,
	// so branch-and-bound pruning remains exact for the ℓ∞ criterion, and
	// the hardware datapath shrinks from an adder tree to one comparator.
	// Metrics are reported in the reduced (QR) domain — an ℓ∞ ball does not
	// survive the orthogonal rotation, so no complex-domain offset applies.
	// Only valid with the RealSE strategy.
	NormLInf
)

// String names the norm as used in reports and CLI flags.
func (n Norm) String() string {
	switch n {
	case NormL2:
		return "l2"
	case NormLInf:
		return "linf"
	default:
		return fmt.Sprintf("Norm(%d)", int(n))
	}
}

// ParseNorm converts a CLI string ("l2", "linf", "inf", "max") into a Norm.
func ParseNorm(s string) (Norm, error) {
	switch strings.ToLower(strings.NewReplacer("-", "", "_", "").Replace(s)) {
	case "l2", "euclidean", "":
		return NormL2, nil
	case "linf", "inf", "max", "infinity":
		return NormLInf, nil
	default:
		return 0, fmt.Errorf("sphere: unknown norm %q", s)
	}
}

// Config parameterizes a sphere decoder.
type Config struct {
	// Const is the symbol alphabet Ω (required).
	Const *constellation.Constellation
	// Strategy selects the traversal; the zero value is SortedDFS.
	Strategy Strategy
	// Norm selects the partial-distance metric; the zero value is NormL2.
	// NormLInf is only valid with the RealSE strategy.
	Norm Norm
	// InitialRadiusSq is the starting r². Zero means automatic, per
	// strategy:
	//   - SortedDFS, PlainDFS, BestFS, FSD: +Inf (first leaf sets the
	//     radius, the Geosphere approach the paper reproduces);
	//   - BFS: RadiusScale·N·σ², since it cannot reach a leaf early and
	//     must start with a finite sphere;
	//   - RealSE under NormL2: RadiusScale·N·σ², the noise-scaled sphere
	//     that bounds the depth-first heavy tail (an empty sphere retries
	//     with a doubled radius, so the search stays exact);
	//   - RealSE under NormLInf: +Inf.
	// math.Inf(1) requests an unbounded start for every strategy.
	InitialRadiusSq float64
	// RadiusScale scales the automatic radius r² = scale·N·σ².
	// Zero means 2, which covers the expected noise ball ‖n‖² ≈ N·σ²
	// with comfortable margin.
	RadiusScale float64
	// AutoRadius enables the noise-statistics initial radius
	// r² = RadiusScale·N·σ² for every strategy, not just the ones that
	// start there by default (BFS and ℓ² RealSE; see InitialRadiusSq). This is
	// Algorithm 1's user-set initial radius: it bounds the worst-case
	// depth-first excursions on pathological channel draws (the heavy tail
	// of the decode-time distribution) while remaining exact, because a
	// sphere that turns out empty is retried with a doubled radius.
	AutoRadius bool
	// BabaiRadius initializes the sphere from the Babai point: the
	// zero-forcing solution rounded to the constellation via successive
	// back-substitution. Its distance is a valid leaf metric, so the
	// sphere is never empty (no retries possible) and the search remains
	// exact. Takes precedence over AutoRadius.
	BabaiRadius bool
	// UseGEMM evaluates children through batched matrix–matrix products
	// (the paper's BLAS-3 refactoring). When false, evaluation uses the
	// incremental scalar recursion (the memory-bound BLAS-2 profile).
	// Both produce identical PDs up to floating-point rounding.
	UseGEMM bool
	// VerifyGEMM enables ABFT (algorithm-based fault tolerance) verification
	// of every batched child evaluation: the Huang–Abraham checksum identity
	// C·1 = A·(B·1) is checked within a norm-scaled tolerance after each
	// product, and a mismatch — a silent bit flip in the arithmetic fabric or
	// the output buffer — is repaired on the spot by recomputing the product
	// with the reference kernel (counted in Counters.SDCDetected/
	// SDCRecovered). Implies UseGEMM for the complex strategies; a no-op for
	// RealSE, whose analytic enumeration issues no batched products (the serving layer's re-encode audit still covers it).
	// The disabled path costs one branch per evaluation and no allocations.
	VerifyGEMM bool
	// GEMMFault, when non-nil, is polled once per batched child evaluation;
	// returning true flips a high-mantissa bit in the freshly computed
	// product before verification. This is the SDC chaos hook (wired from
	// core.Accelerator.ArmGEMMFault) — it exists so fault-injection plans can
	// corrupt the GEMM site the way a soft error in a DSP accumulator would,
	// and must never be set in production configurations.
	GEMMFault func() bool
	// KBest, when positive, caps the BFS frontier at the K lowest-PD nodes
	// per level (the K-best variant GPU implementations use to bound
	// memory). Zero means unlimited.
	KBest int
	// MaxNodes bounds the number of node expansions of one decode, summed
	// over its radius-doubling retries. Zero means 50 million. A search that exhausts the budget returns the best leaf
	// found so far (QualityBestEffort) or the linear fallback point
	// (QualityFallback) — it aborts with ErrBudget only when HardBudget is
	// set.
	MaxNodes int64
	// Deadline bounds the wall-clock time of one Decode call. Zero means
	// none. Like MaxNodes, hitting the deadline degrades the result
	// instead of failing unless HardBudget is set. The search polls the
	// clock every 64 expansions, so the cut is accurate to well under a
	// microsecond of search work.
	Deadline time.Duration
	// HardBudget restores the fail-hard contract: budget or deadline
	// exhaustion returns ErrBudget / ErrDeadline with no result. The
	// default (false) is the anytime contract: Decode always returns a
	// decision, flagged through Result.Quality when it is not exact.
	HardBudget bool
	// RetryOnEmpty controls whether a search that found no leaf inside the
	// sphere restarts with a doubled radius (standard SD practice when the
	// initial radius was guessed too small). Defaults to true; set
	// DisableRetry to turn it off.
	DisableRetry bool
	// OnExpand, when non-nil, is invoked once per node expansion with the
	// depth of the node being expanded (0 for the root). The event-driven
	// pipeline simulator uses this to replay the exact traversal through
	// the hardware model. The callback must be cheap; it runs on the
	// decoding hot path.
	OnExpand func(depth int)
	// Recorder, when non-nil, receives the structured trace of each search:
	// per-level visit/prune tallies, the radius trajectory, and degradation
	// events — the software analogue of the paper's on-chip counters. Every
	// hook site guards on nil, so a disabled recorder costs nothing (the
	// zero-alloc steady-state tests pin this). The recorder is invoked from
	// the decoding goroutine; installing one on a decoder shared across
	// goroutines races, so per-frame tracing passes each frame's recorder
	// through Limits instead (see DecodePreLimited).
	Recorder trace.Recorder
}

// Limits narrow one decode below its decoder's configuration. A batch
// scheduler hands every frame its share of a node pool and its own trace
// recorder through one shared SD, so nothing is rebuilt per frame.
type Limits struct {
	// MaxNodes, when positive, caps this call's tree expansions at the
	// smaller of it and Config.MaxNodes.
	MaxNodes int64
	// Recorder, when non-nil, receives this call's search trace in place of
	// Config.Recorder.
	Recorder trace.Recorder
}

// Errors returned by Decode.
var (
	// ErrBudget reports that the node-expansion budget was exhausted.
	// Only returned when Config.HardBudget is set; the default anytime
	// contract degrades the result instead.
	ErrBudget = errors.New("sphere: node budget exhausted")
	// ErrDeadline reports that the wall-clock deadline passed. Like
	// ErrBudget it is only returned under Config.HardBudget.
	ErrDeadline = errors.New("sphere: decode deadline exceeded")
	// ErrNoLeaf reports that no candidate was found inside the sphere and
	// retries were disabled.
	ErrNoLeaf = errors.New("sphere: no leaf found within the sphere radius")
)

// SD is a sphere decoder. It implements decoder.Decoder.
type SD struct {
	cfg Config
	// pam is the ascending per-axis PAM alphabet the RealSE strategy
	// branches over (nil for the complex-valued strategies); pamLabels maps
	// each ascending level to its Gray-coded axis label and axisBits is
	// log2(len(pam)), so a decided real path rebuilds symbol indices with
	// two table reads per antenna instead of a geometric slice.
	pam       []float64
	pamLabels []int
	axisBits  int
}

// New validates cfg and returns a decoder.
func New(cfg Config) (*SD, error) {
	if cfg.Const == nil {
		return nil, errors.New("sphere: Config.Const is required")
	}
	if cfg.InitialRadiusSq < 0 || math.IsNaN(cfg.InitialRadiusSq) {
		return nil, fmt.Errorf("sphere: invalid initial radius² %v", cfg.InitialRadiusSq)
	}
	if cfg.RadiusScale < 0 {
		return nil, fmt.Errorf("sphere: invalid radius scale %v", cfg.RadiusScale)
	}
	if cfg.RadiusScale == 0 {
		cfg.RadiusScale = 2
	}
	if cfg.MaxNodes == 0 {
		cfg.MaxNodes = 50_000_000
	}
	if cfg.MaxNodes < 0 {
		return nil, fmt.Errorf("sphere: invalid node budget %d", cfg.MaxNodes)
	}
	if cfg.Deadline < 0 {
		return nil, fmt.Errorf("sphere: invalid deadline %v", cfg.Deadline)
	}
	if cfg.KBest < 0 {
		return nil, fmt.Errorf("sphere: invalid KBest %d", cfg.KBest)
	}
	switch cfg.Strategy {
	case SortedDFS, PlainDFS, BestFS, BFS, FSD, RealSE:
	default:
		return nil, fmt.Errorf("sphere: unknown strategy %d", cfg.Strategy)
	}
	switch cfg.Norm {
	case NormL2, NormLInf:
	default:
		return nil, fmt.Errorf("sphere: unknown norm %d", cfg.Norm)
	}
	if cfg.Norm == NormLInf && cfg.Strategy != RealSE {
		return nil, fmt.Errorf("sphere: NormLInf requires the RealSE strategy, got %v", cfg.Strategy)
	}
	if cfg.VerifyGEMM && cfg.Strategy != RealSE {
		// ABFT guards the batched product; verifying implies using it.
		cfg.UseGEMM = true
	}
	d := &SD{cfg: cfg}
	if cfg.Strategy == RealSE {
		// UseGEMM does not apply: SE enumeration evaluates children through
		// the analytic recursion, never through a batched product.
		d.cfg.UseGEMM = false
		d.pam = cfg.Const.PAMLevels()
		if d.pam == nil {
			return nil, fmt.Errorf("sphere: real-valued decoding requires square QAM, got %v", cfg.Const.Modulation())
		}
		d.axisBits = cfg.Const.BitsPerAxis()
		d.pamLabels = make([]int, len(d.pam))
		for i := range d.pamLabels {
			d.pamLabels[i] = cfg.Const.PAMLabel(i)
		}
	}
	return d, nil
}

// MustNew is New that panics on error, for tests and internal wiring.
func MustNew(cfg Config) *SD {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements decoder.Decoder.
func (d *SD) Name() string {
	n := d.cfg.Strategy.String()
	if d.cfg.Strategy == RealSE {
		if d.cfg.Norm == NormLInf {
			n += "+LINF"
		}
		return n
	}
	if d.cfg.UseGEMM {
		n += "+GEMM"
	}
	if d.cfg.VerifyGEMM && d.cfg.UseGEMM {
		n += "+ABFT"
	}
	return n
}

// Config returns the decoder's configuration.
func (d *SD) Config() Config { return d.cfg }

// Decode implements decoder.Decoder. It returns the detected symbol vector
// together with the full operation trace of the search.
func (d *SD) Decode(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) (*decoder.Result, error) {
	res, _, err := d.decodeInline(h, y, noiseVar, false)
	return res, err
}

// SearchInfo exposes search internals the experiment harness needs beyond
// decoder.Counters.
type SearchInfo struct {
	// MST is the final Meta State Table of the search (retries replace it).
	MST *MST
	// Retries counts radius-doubling restarts.
	Retries int
	// FinalRadiusSq is the squared radius at termination.
	FinalRadiusSq float64
	// Preprocessing flops (QR + ȳ), included in the counters as well.
	PreprocessFlops int64

	trajectory []float64 // improving-leaf PDs of the final attempt
}

// DecodeTraced is Decode plus search internals.
func (d *SD) DecodeTraced(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) (*decoder.Result, *SearchInfo, error) {
	return d.decodeInline(h, y, noiseVar, true)
}

// decodeInline factors h and decodes y against it. Only a traced call
// detaches the Meta State Table into a SearchInfo; otherwise it stays in
// the pool.
func (d *SD) decodeInline(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64, wantInfo bool) (*decoder.Result, *SearchInfo, error) {
	if err := decoder.CheckDims(h, y); err != nil {
		return nil, nil, err
	}
	pre, err := Preprocess(h)
	if err != nil {
		return nil, nil, fmt.Errorf("sphere: preprocessing failed: %w", err)
	}
	res := new(decoder.Result)
	info, err := d.decodePre(pre, y, noiseVar, pre.Flops, Limits{}, wantInfo, res)
	if err != nil {
		return nil, nil, err
	}
	return res, info, nil
}

// DecodePre decodes one received vector against a precomputed channel
// factorization (the cached-preprocessing hot path). qrFlops is the
// factorization cost to charge into this decode's trace: pass pre.Flops
// when the call should pay for the QR (a standalone decode) and 0 when a
// batch already charged it to an earlier frame sharing the channel.
func (d *SD) DecodePre(pre *Preprocessed, y cmatrix.Vector, noiseVar float64, qrFlops int64) (*decoder.Result, error) {
	return d.DecodePreLimited(pre, y, noiseVar, qrFlops, Limits{})
}

// DecodePreLimited is DecodePre under per-call limits: lim.MaxNodes tightens
// the node budget and lim.Recorder traces this search only. The decoder
// itself is not modified, so concurrent calls may each carry their own.
func (d *SD) DecodePreLimited(pre *Preprocessed, y cmatrix.Vector, noiseVar float64, qrFlops int64, lim Limits) (*decoder.Result, error) {
	res := new(decoder.Result)
	if _, err := d.decodePre(pre, y, noiseVar, qrFlops, lim, false, res); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodePreInto is DecodePre writing into caller-owned storage: res and the
// backing arrays of res.SymbolIdx / res.Symbols are reused when their
// capacity suffices, so a warmed-up decode loop performs zero heap
// allocations per call.
func (d *SD) DecodePreInto(pre *Preprocessed, y cmatrix.Vector, noiseVar float64, qrFlops int64, res *decoder.Result) error {
	_, err := d.decodePre(pre, y, noiseVar, qrFlops, Limits{}, false, res)
	return err
}

// decodePre runs the search against pre's reduced system under lim. When
// wantInfo is set the Meta State Table is detached from the pooled search
// and handed to the caller inside a SearchInfo; otherwise everything returns
// to the pool.
func (d *SD) decodePre(pre *Preprocessed, y cmatrix.Vector, noiseVar float64, qrFlops int64, lim Limits, wantInfo bool, res *decoder.Result) (*SearchInfo, error) {
	if err := pre.CheckY(y); err != nil {
		return nil, err
	}
	if noiseVar < 0 || math.IsNaN(noiseVar) {
		return nil, fmt.Errorf("sphere: invalid noise variance %v", noiseVar)
	}
	// start is consumed only under a configured deadline (for the cutoff and
	// for res.Elapsed); skipping the clock read otherwise keeps the syscall
	// off the no-deadline hot path.
	var start time.Time
	if d.cfg.Deadline > 0 {
		start = time.Now()
	}
	if d.cfg.Strategy == RealSE {
		return d.decodePreReal(pre, y, noiseVar, qrFlops, lim, wantInfo, res, start)
	}
	var deadline time.Time
	if d.cfg.Deadline > 0 {
		deadline = start.Add(d.cfg.Deadline)
	}
	r := pre.complexR()
	st := acquireSearch(&d.cfg, r, lim)
	if d.cfg.VerifyGEMM {
		st.rowMass = pre.RowMass()
	}
	ybar := st.computeYbar(pre, y)
	// ‖y − Hs‖² = ‖ȳ − Rs‖² + offset; offset = ‖y‖² − ‖ȳ‖² ≥ 0.
	offset := cmatrix.Norm2Sq(y) - cmatrix.Norm2Sq(ybar)
	if offset < 0 { // numerical guard
		offset = 0
	}

	n, m := int64(pre.N), int64(pre.M)
	preFlops := qrFlops + 8*n*m + 4*(n+m)

	radius := d.initialRadius(pre.N, noiseVar)
	if d.cfg.BabaiRadius && d.cfg.InitialRadiusSq == 0 {
		radius = babaiRadiusSq(r, ybar, d.cfg.Const)
		preFlops += 8 * m * m // back-substitution + slicing pass
	}
	var info *SearchInfo
	if wantInfo {
		info = &SearchInfo{PreprocessFlops: preFlops}
	}

	retries, truncated, err := st.runAttempts(radius, deadline, preFlops, n*m)
	if err != nil {
		st.release()
		return nil, err
	}

	mInt := pre.M
	// res may be a reused value: every field is (re)assigned here.
	res.Counters = st.counters
	res.Quality = decoder.QualityExact
	res.DegradedBy = ""
	res.Elapsed = 0
	if d.cfg.Deadline > 0 {
		res.Elapsed = time.Since(start)
	}
	idx := growInts(res.SymbolIdx, mInt)
	copy(idx, st.bestPath)
	pd := st.bestPD
	if truncated {
		res.Quality = decoder.QualityBestEffort
		res.DegradedBy = st.stopReason
		// The emergency decision: the better of the Babai point and the
		// sliced ZF solution — always available, metric ≤ plain ZF. Use it
		// whenever the truncated search has nothing better.
		fbIdx, fbPD, fbFlops := fallbackPoint(r, ybar, d.cfg.Const)
		res.Counters.OtherFlops += fbFlops
		if !st.haveBest || st.bestPD > fbPD {
			copy(idx, fbIdx)
			pd = fbPD
			res.Quality = decoder.QualityFallback
		}
	}
	syms := res.Symbols
	if cap(syms) < mInt {
		syms = make(cmatrix.Vector, mInt)
	}
	syms = syms[:mInt]
	for i, id := range idx {
		syms[i] = d.cfg.Const.Symbol(id)
	}
	res.SymbolIdx = idx
	res.Symbols = syms
	res.Metric = pd + offset

	if st.rec != nil {
		if res.DegradedBy != "" {
			st.rec.Degraded(res.DegradedBy)
		}
		st.rec.SearchEnd(st.radiusSq, retries)
	}

	if wantInfo {
		info.MST = st.mst
		info.FinalRadiusSq = st.radiusSq
		info.Retries = retries
		info.trajectory = append([]float64(nil), st.radii...)
		st.mst = nil // detached: the caller owns the table now
	}
	st.release()
	return info, nil
}

// DecodeFallback skips the tree search entirely and returns the linear
// fallback decision (the better of the Babai point and sliced ZF), flagged
// QualityFallback. The batch scheduler in internal/core sheds overrunning
// frames to this path, so a batch that blows its deadline still emits a
// decision per frame.
func (d *SD) DecodeFallback(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) (*decoder.Result, error) {
	if err := decoder.CheckDims(h, y); err != nil {
		return nil, err
	}
	if noiseVar < 0 || math.IsNaN(noiseVar) {
		return nil, fmt.Errorf("sphere: invalid noise variance %v", noiseVar)
	}
	pre, err := Preprocess(h)
	if err != nil {
		return nil, fmt.Errorf("sphere: preprocessing failed: %w", err)
	}
	return d.DecodeFallbackPre(pre, y, noiseVar, pre.Flops)
}

// DecodeFallbackPre is DecodeFallback against a precomputed factorization.
// qrFlops follows the DecodePre convention: pre.Flops for a standalone
// call, 0 when the batch already paid for the factorization.
func (d *SD) DecodeFallbackPre(pre *Preprocessed, y cmatrix.Vector, noiseVar float64, qrFlops int64) (*decoder.Result, error) {
	if err := pre.CheckY(y); err != nil {
		return nil, err
	}
	if noiseVar < 0 || math.IsNaN(noiseVar) {
		return nil, fmt.Errorf("sphere: invalid noise variance %v", noiseVar)
	}
	if d.cfg.Strategy == RealSE {
		return d.decodeFallbackPreReal(pre, y, qrFlops)
	}
	st := searchPool.Get().(*search)
	defer st.release()
	ybar := st.computeYbar(pre, y)
	offset := cmatrix.Norm2Sq(y) - cmatrix.Norm2Sq(ybar)
	if offset < 0 {
		offset = 0
	}
	n, m := int64(pre.N), int64(pre.M)
	idx, pd, fbFlops := fallbackPoint(pre.complexR(), ybar, d.cfg.Const)
	syms := make(cmatrix.Vector, pre.M)
	for i, id := range idx {
		syms[i] = d.cfg.Const.Symbol(id)
	}
	var counters decoder.Counters
	counters.OtherFlops = qrFlops + 8*n*m + fbFlops
	counters.RegularLoads = n * m
	return &decoder.Result{
		SymbolIdx:  idx,
		Symbols:    syms,
		Metric:     pd + offset,
		Counters:   counters,
		Quality:    decoder.QualityFallback,
		DegradedBy: decoder.DegradedByBatchDeadline,
	}, nil
}

// babaiPoint computes the Babai decision-feedback point — successive
// back-substitution with per-coordinate slicing — returning its symbol
// indices and its reduced-domain metric ‖ȳ − R·s‖².
func babaiPoint(r *cmatrix.Matrix, ybar cmatrix.Vector, cons *constellation.Constellation) ([]int, float64) {
	m := r.Cols
	idx := make([]int, m)
	syms := make([]complex128, m)
	pd := 0.0
	for k := m - 1; k >= 0; k-- {
		row := r.Row(k)
		inner := ybar[k]
		for i := k + 1; i < m; i++ {
			inner -= row[i] * syms[i]
		}
		var z complex128
		if row[k] != 0 {
			z = inner / row[k]
		}
		idx[k] = cons.Slice(z)
		s := cons.Symbol(idx[k])
		syms[k] = s
		diff := inner - row[k]*s
		pd += real(diff)*real(diff) + imag(diff)*imag(diff)
	}
	return idx, pd
}

// zfPoint computes the sliced zero-forcing decision — solve R·z = ȳ, then
// slice each coordinate independently — returning its symbol indices and
// reduced-domain metric. Returns pd = +Inf if R has a (numerically) zero
// pivot, so callers taking a min simply prefer the Babai point.
func zfPoint(r *cmatrix.Matrix, ybar cmatrix.Vector, cons *constellation.Constellation) ([]int, float64) {
	z, err := cmatrix.BackSubstitute(r, ybar[:r.Cols])
	if err != nil {
		return nil, math.Inf(1)
	}
	m := r.Cols
	idx := make([]int, m)
	syms := make(cmatrix.Vector, m)
	for i, v := range z {
		idx[i] = cons.Slice(v)
		syms[i] = cons.Symbol(idx[i])
	}
	pd := 0.0
	for k := 0; k < m; k++ {
		row := r.Row(k)
		diff := ybar[k]
		for i := k; i < m; i++ {
			diff -= row[i] * syms[i]
		}
		pd += real(diff)*real(diff) + imag(diff)*imag(diff)
	}
	return idx, pd
}

// fallbackPoint is the emergency decision of the anytime contract: the
// better (smaller reduced-domain metric) of the Babai point and the sliced
// ZF solution. Because the ZF decision is one of the two candidates, the
// returned metric is never worse than plain zero-forcing detection — the
// floor the degradation property tests assert against. The returned flops
// cover both candidates (two O(m²) passes).
func fallbackPoint(r *cmatrix.Matrix, ybar cmatrix.Vector, cons *constellation.Constellation) ([]int, float64, int64) {
	bIdx, bPD := babaiPoint(r, ybar, cons)
	zIdx, zPD := zfPoint(r, ybar, cons)
	m := int64(r.Cols)
	flops := 24 * m * m // Babai sweep + ZF back-substitution + metric pass
	if zPD < bPD {
		return zIdx, zPD, flops
	}
	return bIdx, bPD, flops
}

// babaiRadiusSq computes the squared distance of the Babai point and
// returns it, slightly inflated, as the initial sphere radius. The Babai
// point is itself a leaf inside that sphere, so the search can never come
// up empty, and any leaf that survives the radius is at least as good.
func babaiRadiusSq(r *cmatrix.Matrix, ybar cmatrix.Vector, cons *constellation.Constellation) float64 {
	_, pd := babaiPoint(r, ybar, cons)
	radius := pd * (1 + 1e-9)
	if radius <= 0 {
		radius = 1e-12 // exact Babai hit: keep the sphere strictly positive
	}
	return radius
}

// RadiusTrajectory returns the partial distances of the final attempt's
// improving leaves in discovery order — the radius-shrinking path of
// Algorithm 1 lines 7–9. It is strictly decreasing, and its last entry is
// FinalRadiusSq.
func (info *SearchInfo) RadiusTrajectory() []float64 { return info.trajectory }

// initialRadius picks the starting r² per the strategy rules documented on
// Config.InitialRadiusSq.
func (d *SD) initialRadius(nRx int, noiseVar float64) float64 {
	if d.cfg.InitialRadiusSq > 0 {
		return d.cfg.InitialRadiusSq
	}
	if d.cfg.BabaiRadius {
		// Resolved in DecodeTraced once R and ȳ exist; the fallback here
		// only matters if a caller bypasses that path.
		return math.Inf(1)
	}
	if d.cfg.AutoRadius || d.cfg.Strategy == BFS {
		r := d.cfg.RadiusScale * float64(nRx) * noiseVar
		if r <= 0 {
			// Noiseless search: fall back to a small positive sphere that
			// the retry loop can grow until the true solution fits.
			r = 1e-6
		}
		return r
	}
	return math.Inf(1)
}
