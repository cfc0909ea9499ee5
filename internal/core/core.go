// Package core assembles the paper's primary contribution: an FPGA-hosted
// sphere-decoder accelerator. It couples the GEMM-refactored, sorted
// depth-first sphere search (internal/sphere) with the cycle-approximate
// Alveo U280 pipeline model (internal/fpga), so one object both *decodes*
// (bit-exact ML detection) and *reports what the hardware would do*
// (simulated decode time, per-module cycle budget, resource utilization,
// power, and energy).
//
// A downstream user treats Accelerator as the product of the paper: build
// one per (variant, modulation, MIMO size), stream batches of received
// vectors through DecodeBatch, and read off both the detected symbols and
// the hardware report.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/sphere"
	"repro/internal/trace"
)

// ErrInvalidInput flags a malformed batch element: non-finite channel or
// observation entries, a dimension mismatch, or a non-positive noise
// variance. Test with errors.Is.
var ErrInvalidInput = errors.New("core: invalid input")

// Options tune an Accelerator beyond its defaults.
type Options struct {
	// UseGEMM selects the batched BLAS-3 child evaluation (the paper's
	// refactoring). It is the default; setting ScalarEval true switches to
	// the incremental BLAS-2 recursion, which produces an identical
	// traversal and identical decoded vectors but simulates faster in Go —
	// the experiment harness uses it for large Monte-Carlo sweeps.
	ScalarEval bool
	// Strategy selects the served engine: the zero value is the paper's
	// SortedDFS, and sphere.RealSE runs the real-valued Schnorr–Euchner
	// engine (square QAM only; GEMM does not apply and is ignored for it).
	// New rejects every other strategy, as DecodePolicy.Validate does.
	Strategy sphere.Strategy
	// Norm must be sphere.NormL2, the only served norm; New rejects any
	// other value. It remains declared only because the perfbench module,
	// which changes only together with the benchmark, still sets it.
	Norm sphere.Norm
	// Pipelines replicates the decode pipeline (Section III-C4 headroom).
	// Zero means 1.
	Pipelines int
	// InitialRadiusSq optionally fixes the starting sphere; zero keeps the
	// strategy's default start (+Inf for SortedDFS, 2·N·σ² for ℓ² RealSE;
	// see sphere.Config.InitialRadiusSq).
	InitialRadiusSq float64
	// MaxNodes bounds each decode's tree expansions. Exhaustion yields a
	// flagged degraded result (the anytime contract), never an error. Zero
	// keeps the decoder's default ceiling.
	MaxNodes int64
	// Deadline bounds each decode's wall-clock time; overrun yields a
	// flagged degraded result. Zero means no per-decode deadline.
	Deadline time.Duration
	// Workers sets the decode parallelism for DecodeBatch: 0 or 1 decodes
	// serially, N > 1 uses N goroutines, and a negative value uses
	// GOMAXPROCS. Results are returned in input order regardless, and the
	// non-budgeted parallel path is bit-exact with the serial one. Batches
	// under a modeled-time Deadline always run serially (the repricing after
	// each frame is inherently sequential).
	Workers int
	// PreprocessCacheEntries sizes the cross-batch QR cache: 0 selects
	// sphere.DefaultCacheEntries, a negative value disables caching across
	// batches (each batch still factors every distinct H only once).
	PreprocessCacheEntries int
	// DisableQRReuse restores the seed behaviour of factoring H once per
	// frame (and charging the full QR flops per frame). It exists as the
	// benchmark baseline for the shared-preprocessing speedup and as an
	// escape hatch for callers that mutate channel matrices in place.
	DisableQRReuse bool
	// VerifyGEMM enables the ABFT checksum verification of every batched
	// child evaluation (see DecodePolicy.VerifyGEMM); it requires SortedDFS.
	// It is sticky: policy overrides applied per batch can add verification
	// but not remove it, so no override can move the accelerator to RealSE.
	VerifyGEMM bool
}

// Accelerator is an FPGA sphere-decoder instance for one configuration.
// It is safe for concurrent use.
type Accelerator struct {
	design  *fpga.Design
	sd      *sphere.SD
	cons    *constellation.Constellation
	symMax  float64                 // largest |s| over the constellation
	cache   *sphere.PreprocessCache // nil when cross-batch reuse is off
	workers int                     // resolved batch parallelism (>= 1)
	reuseQR bool                    // factor each distinct H once per batch

	// batchCaches holds the batch-local caches used when cross-batch reuse
	// is off: each batch takes one for its within-batch dedup and empties
	// it first, so its misses refactor into the previous batch's storage.
	batchCaches sync.Pool

	// basePolicy is the policy the base decoder realizes; WithPolicy calls
	// that match it reuse a.sd directly. Other policies build (once) and
	// cache a derived decoder in sdCache — DecodePolicy is comparable, so
	// the policy value itself is the key.
	basePolicy DecodePolicy
	sdMu       sync.RWMutex
	sdCache    map[DecodePolicy]*sphere.SD

	// gemmFault is the one-shot SDC chaos flag: ArmGEMMFault sets it, and the
	// GEMMFault hook installed in every decoder config consumes it by flipping
	// one bit of the next batched child evaluation's output. Shared by the
	// base decoder and every policy-derived one.
	gemmFault atomic.Bool
}

// gemmFaultHook returns the chaos hook wired into sphere.Config.GEMMFault.
// The fast path is a plain atomic load, so an accelerator that is never
// armed pays one relaxed read per batched product.
func (a *Accelerator) gemmFaultHook() func() bool {
	return func() bool {
		if !a.gemmFault.Load() {
			return false
		}
		return a.gemmFault.CompareAndSwap(true, false)
	}
}

// ArmGEMMFault arms a one-shot bit flip in the next batched child
// evaluation's GEMM output — the chaos entry point the SDC fault plans use
// to prove the ABFT defense detects real datapath corruption. With
// VerifyGEMM off the flip propagates silently into the search.
func (a *Accelerator) ArmGEMMFault() { a.gemmFault.Store(true) }

// DisarmGEMMFault clears a still-armed fault and reports whether one was
// cleared — false means the armed flip was consumed by a decode (it landed).
// Chaos harnesses use this for ground-truth landed-injection bookkeeping.
func (a *Accelerator) DisarmGEMMFault() bool { return a.gemmFault.CompareAndSwap(true, false) }

// BasePolicy returns the decode policy the accelerator was built with — the
// one DecodeBatch uses when no per-batch override is supplied. The serving
// layer reads its Strategy as the engine it serves.
func (a *Accelerator) BasePolicy() DecodePolicy { return a.basePolicy }

// CorruptQREntry flips one bit in the most recently used cached QR factor
// (chaos/test only; see sphere.PreprocessCache.CorruptEntry). It reports
// false when cross-batch caching is disabled or the cache is empty.
func (a *Accelerator) CorruptQREntry(word int) bool {
	if a.cache == nil {
		return false
	}
	return a.cache.CorruptEntry(word)
}

// PreprocessCacheSDCEvictions reports how many cached factorizations were
// evicted because their payload failed integrity re-verification on a hit;
// zero when caching is disabled.
func (a *Accelerator) PreprocessCacheSDCEvictions() int64 {
	if a.cache == nil {
		return 0
	}
	return a.cache.SDCEvictions()
}

// New builds an accelerator for the given variant, modulation, and MIMO
// size (m transmitters, n receivers).
func New(v fpga.Variant, mod constellation.Modulation, m, n int, opts Options) (*Accelerator, error) {
	design, err := fpga.NewDesign(v, mod, m, n)
	if err != nil {
		return nil, err
	}
	if opts.Pipelines > 0 {
		if fit := design.MaxPipelines(); opts.Pipelines > fit {
			return nil, fmt.Errorf("core: %d pipelines requested but only %d fit on %s",
				opts.Pipelines, fit, design.Device.Name)
		}
		design.Pipelines = opts.Pipelines
	}
	if opts.Norm != sphere.NormL2 {
		return nil, fmt.Errorf("core: norm %v is not served; every accelerator searches under l2", opts.Norm)
	}
	basePolicy := DecodePolicy{Strategy: opts.Strategy, MaxNodes: opts.MaxNodes, VerifyGEMM: opts.VerifyGEMM}
	if err := basePolicy.Validate(); err != nil {
		return nil, err
	}
	cons := constellation.New(mod)
	a := &Accelerator{design: design, cons: cons, symMax: cons.MaxMagnitude()}
	sd, err := sphere.New(sphere.Config{
		Const:           cons,
		Strategy:        opts.Strategy,
		UseGEMM:         !opts.ScalarEval,
		VerifyGEMM:      opts.VerifyGEMM,
		InitialRadiusSq: opts.InitialRadiusSq,
		MaxNodes:        opts.MaxNodes,
		Deadline:        opts.Deadline,
		GEMMFault:       a.gemmFaultHook(),
	})
	if err != nil {
		return nil, err
	}
	if !design.Resources().Fits() {
		return nil, fmt.Errorf("core: design %s does not fit on %s", design.Name(), design.Device.Name)
	}
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 0 {
		workers = 1
	}
	a.sd = sd
	a.workers = workers
	a.reuseQR = !opts.DisableQRReuse
	a.basePolicy = basePolicy
	if a.reuseQR && opts.PreprocessCacheEntries >= 0 {
		a.cache = sphere.NewPreprocessCache(opts.PreprocessCacheEntries)
	}
	return a, nil
}

// MustNew is New that panics on error.
func MustNew(v fpga.Variant, mod constellation.Modulation, m, n int, opts Options) *Accelerator {
	a, err := New(v, mod, m, n, opts)
	if err != nil {
		panic(err)
	}
	return a
}

// Name implements decoder.Decoder.
func (a *Accelerator) Name() string { return a.design.Name() }

// Design exposes the underlying hardware design.
func (a *Accelerator) Design() *fpga.Design { return a.design }

// Constellation exposes the symbol alphabet.
func (a *Accelerator) Constellation() *constellation.Constellation { return a.cons }

// Resources reports the design's FPGA resource utilization (Table I).
func (a *Accelerator) Resources() fpga.Utilization { return a.design.Resources() }

// Power reports the modeled board power in watts (Table II).
func (a *Accelerator) Power() float64 { return a.design.Power() }

// Decode implements decoder.Decoder: it detects one received vector,
// returning the exact sphere-decoder result with its operation trace. When
// the preprocessing cache is enabled, repeated calls under the same channel
// skip the QR factorization; the trace still charges the full QR cost each
// call so counters stay deterministic (the cache saves wall-clock, not
// modeled work — the hardware pre-fetch unit hides the latency, it does not
// change the pipeline's accounting).
func (a *Accelerator) Decode(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) (*decoder.Result, error) {
	if h.Cols != a.design.M || h.Rows != a.design.N {
		return nil, fmt.Errorf("core: accelerator built for %dx%d, got channel %dx%d",
			a.design.M, a.design.N, h.Cols, h.Rows)
	}
	if a.cache != nil {
		pre, err := a.cache.Get(h)
		if err != nil {
			return nil, fmt.Errorf("sphere: preprocessing failed: %w", err)
		}
		defer a.cache.Release(pre)
		return a.sd.DecodePre(pre, y, noiseVar, pre.Flops)
	}
	return a.sd.Decode(h, y, noiseVar)
}

// PreprocessCacheStats reports cumulative (hits, misses) of the QR cache;
// zeros when caching is disabled.
func (a *Accelerator) PreprocessCacheStats() (hits, misses int64) {
	if a.cache == nil {
		return 0, 0
	}
	return a.cache.Stats()
}

// BatchInput is one received vector with its channel state.
type BatchInput struct {
	H        *cmatrix.Matrix
	Y        cmatrix.Vector
	NoiseVar float64
}

// ValidateInput checks one batch element against the accelerator's
// configuration and the numeric contract (finite entries, a search metric
// that cannot overflow, positive noise variance) without decoding it. All
// failures wrap ErrInvalidInput.
//
// Serving front ends (internal/serve) call this at admission time so a
// malformed frame is rejected at submit instead of poisoning the coalesced
// batch it would have been dispatched with.
func (a *Accelerator) ValidateInput(in BatchInput) error {
	if in.H == nil {
		return fmt.Errorf("%w: nil channel matrix", ErrInvalidInput)
	}
	if in.H.Cols != a.design.M || in.H.Rows != a.design.N {
		return fmt.Errorf("%w: channel %dx%d for a %dx%d accelerator",
			ErrInvalidInput, in.H.Cols, in.H.Rows, a.design.M, a.design.N)
	}
	if len(in.Y) != a.design.N {
		return fmt.Errorf("%w: observation length %d, want %d",
			ErrInvalidInput, len(in.Y), a.design.N)
	}
	if err := CheckSearchMetric(in.H, in.Y, a.symMax); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	if in.NoiseVar <= 0 || math.IsNaN(in.NoiseVar) || math.IsInf(in.NoiseVar, 0) {
		return fmt.Errorf("%w: noise variance %v (want finite > 0)", ErrInvalidInput, in.NoiseVar)
	}
	return nil
}

// CheckSearchMetric reports an error when the metric a search over H and
// y can form might overflow, for a constellation whose largest |s| is
// symMax. Finite entries can still overflow it: every leaf's ‖ȳ − Rs‖ is
// at most b = ‖y‖ + ‖H‖_F·√M·max|s|, and no leaf beats an infinite metric.
// Requiring (2b)² to be finite also bounds the QR's reflector energies (at
// most 4‖H‖²_F, and max|s| ≥ 1) and leaves headroom for rounding. A
// NaN/Inf entry makes b non-finite too, so a valid input costs one pass;
// the entry scans only name the failure. The error wraps no sentinel:
// every caller wraps its own.
func CheckSearchMetric(h *cmatrix.Matrix, y cmatrix.Vector, symMax float64) error {
	b := math.Sqrt(cmatrix.Norm2Sq(y)) + math.Sqrt(cmatrix.Norm2Sq(h.Data)*float64(h.Cols))*symMax
	if 4*b*b <= math.MaxFloat64 {
		return nil
	}
	switch {
	case !h.IsFinite():
		return errors.New("channel matrix has NaN/Inf entries")
	case !y.IsFinite():
		return errors.New("observation has NaN/Inf entries")
	}
	return fmt.Errorf("search metric overflows (‖y‖ + ‖H‖_F·√M·max|s| = %g)", b)
}

// validateInput is ValidateInput with the batch position prefixed to the
// failure message.
func (a *Accelerator) validateInput(i int, in BatchInput) error {
	if err := a.ValidateInput(in); err != nil {
		return fmt.Errorf("batch element %d: %w", i, err)
	}
	return nil
}

// BatchBudget bounds a whole batch rather than one decode. A batch that
// exhausts its budget is not an error: frames already decoded keep their
// results, in-flight work keeps whatever the cut search found, and remaining
// frames are shed to the linear fallback point — every frame still gets a
// decision, flagged by Result.Quality.
type BatchBudget struct {
	// Deadline bounds the *modeled FPGA time* of the batch: after each frame
	// the accelerator re-prices the work done so far through the pipeline
	// model, and once the modeled time reaches the deadline every remaining
	// frame is shed to the fallback decoder. Zero means no deadline.
	Deadline time.Duration
	// NodeBudget bounds total tree expansions across the batch. Each frame
	// searches with the budget left over from its predecessors; once spent,
	// remaining frames are shed. Zero means no node budget.
	NodeBudget int64
}

// BatchReport is the outcome of pushing a batch through the accelerator:
// the decoded vectors plus the simulated hardware behaviour.
type BatchReport struct {
	// Results holds one detection per input, in order.
	Results []*decoder.Result
	// Counters aggregates the search traces of the whole batch.
	Counters decoder.Counters
	// SimulatedTime is the modeled wall time the FPGA pipeline would take
	// to decode the batch.
	SimulatedTime time.Duration
	// Breakdown attributes the simulated cycles to pipeline modules.
	Breakdown fpga.CycleBreakdown
	// PowerW and EnergyJ are the modeled power draw and energy for the
	// batch.
	PowerW  float64
	EnergyJ float64
	// Degraded reports whether any frame was cut or shed (quality below
	// exact).
	Degraded bool
	// QualityCounts maps decoder.Quality names ("exact", "best-effort",
	// "fallback") to the number of frames that finished at that quality.
	QualityCounts map[string]int
}

// tallyQuality fills QualityCounts and Degraded from Results.
func (r *BatchReport) tallyQuality() {
	r.QualityCounts = make(map[string]int, 3)
	for _, res := range r.Results {
		r.QualityCounts[res.Quality.String()]++
		if res.Quality.Degraded() {
			r.Degraded = true
		}
	}
}

// sdFor resolves the decoder a policy selects: the base decoder when the
// policy matches the accelerator's own, a cached derived decoder otherwise.
// The policy is validated as it would run, with the accelerator's sticky
// VerifyGEMM ORed in, so no override moves a verifying accelerator onto an
// engine without GEMM products. Derivation can also fail on modulation
// constraints (rvd-se needs square QAM); both failures are stable, so
// callers surface them as invalid-input errors.
func (a *Accelerator) sdFor(p DecodePolicy) (*sphere.SD, error) {
	if p == a.basePolicy {
		return a.sd, nil
	}
	a.sdMu.RLock()
	sd := a.sdCache[p]
	a.sdMu.RUnlock()
	if sd != nil {
		return sd, nil
	}
	eff := p
	eff.VerifyGEMM = eff.VerifyGEMM || a.basePolicy.VerifyGEMM
	if err := eff.Validate(); err != nil {
		return nil, err
	}
	sd, err := sphere.New(p.sphereConfig(a.sd.Config()))
	if err != nil {
		return nil, err
	}
	a.sdMu.Lock()
	if a.sdCache == nil {
		a.sdCache = make(map[DecodePolicy]*sphere.SD)
	}
	if prior := a.sdCache[p]; prior != nil {
		sd = prior // lost the build race; keep one instance per policy
	} else {
		a.sdCache[p] = sd
	}
	a.sdMu.Unlock()
	return sd, nil
}

// CheckPolicy reports whether p can serve on this accelerator: it validates
// the policy and (for searching policies) builds and caches the derived
// decoder, so a policy that checks clean decodes without further setup cost.
// Serving front ends call this before accepting a runtime policy override.
func (a *Accelerator) CheckPolicy(p DecodePolicy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Linear {
		return nil
	}
	_, err := a.sdFor(p)
	return err
}

// DecodeBatch decodes a batch of received vectors and produces the hardware
// report. Inputs must match the accelerator's configuration. Options select
// the batch mode: WithPolicy retargets the batch's strategy/norm/radius/
// budget/verification, WithBudget bounds the whole batch, WithFallback skips
// the tree search entirely, WithTrace records per-frame search traces and
// phase spans. With no options this is the plain exhaustive batch decode.
//
// Every mode runs the same frame loop (see frameLoop). Overrunning batches
// are cut at the budget, never late: the report always covers every input,
// with cut or shed frames flagged via Result.Quality and counted in
// QualityCounts.
func (a *Accelerator) DecodeBatch(inputs []BatchInput, opts ...BatchOption) (*BatchReport, error) {
	var o batchConfig
	for _, opt := range opts {
		opt(&o)
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrInvalidInput)
	}
	if o.budget.Deadline < 0 {
		return nil, fmt.Errorf("%w: negative batch deadline %v", ErrInvalidInput, o.budget.Deadline)
	}
	if o.budget.NodeBudget < 0 {
		return nil, fmt.Errorf("%w: negative node budget %d", ErrInvalidInput, o.budget.NodeBudget)
	}
	l := &frameLoop{a: a, sd: a.sd, inputs: inputs, deadline: o.budget.Deadline, bt: o.bt}
	if o.policy != nil {
		p := *o.policy
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
		}
		if p.Linear {
			// A linear batch is one shed from its first frame.
			l.shedBy = o.shedReason
		} else {
			var err error
			if l.sd, err = a.sdFor(p); err != nil {
				return nil, fmt.Errorf("%w: policy %q: %v", ErrInvalidInput, p.String(), err)
			}
		}
	}
	for i, in := range inputs {
		if err := a.validateInput(i, in); err != nil {
			return nil, err
		}
	}
	// Factor each distinct channel once for the whole batch. The QR flop
	// cost is charged on the first frame that uses each handle, so aggregate
	// counters are deterministic regardless of cross-batch cache warmth or
	// decode order.
	preStart := time.Now()
	cache, pres, err := a.preprocessBatch(inputs)
	if err != nil {
		return nil, err
	}
	defer a.releaseBatch(cache, pres)
	l.pres = pres
	if l.bt != nil {
		l.bt.AddPhase("preprocess", preStart, time.Now())
		l.bt.Frames = make([]*trace.SearchTrace, len(inputs))
	}
	if o.budget.NodeBudget > 0 {
		l.pooled = true
		l.nodesLeft.Store(o.budget.NodeBudget)
	}
	workers := min(a.workers, len(inputs))
	if l.deadline > 0 {
		// The modeled-time deadline re-prices the batch after every frame.
		workers = 1
	}
	searchStart := time.Now()
	l.results = make([]*decoder.Result, len(inputs))
	if err := l.run(workers); err != nil {
		return nil, err
	}
	if l.bt != nil {
		l.bt.AddPhase("search", searchStart, time.Now())
	}
	rep := &BatchReport{Results: l.results}
	for _, res := range l.results {
		rep.Counters.Add(res.Counters)
	}
	return a.finishReport(rep, len(inputs))
}

// frameLoop is the one batch frame loop: workers pull frame indices from a
// shared counter and decode each frame against the batch's preprocessed
// handles through one shared decoder. Serial is workers = 1, run on the
// calling goroutine. Under a NodeBudget the workers draw from one atomic
// node pool: each frame searches with what is left and pays its expansions
// back, so the batch total honours the budget to within the overshoot of
// the frames in flight when it empties. Off-budget, results are bit-exact
// across worker counts (each frame's search is independent).
//
// Shedding is a rung of the same loop: once the pool or the modeled-time
// deadline runs out, each remaining frame gets the linear fallback decision
// tagged with the shed reason. A linear batch starts shed at frame 0.
type frameLoop struct {
	a      *Accelerator
	sd     *sphere.SD
	inputs []BatchInput
	pres   []prepared
	bt     *trace.BatchTrace

	// shedBy, when non-empty, sheds every frame not yet decoded. It is set
	// up front for a linear batch and by the deadline check, which only runs
	// with one worker.
	shedBy string
	// deadline bounds the batch's modeled FPGA time; done accumulates the
	// searched frames' counters for the re-pricing. No frame searches after
	// the first shed one, so done covers every frame decoded so far.
	deadline time.Duration
	done     decoder.Counters

	pooled  bool // a NodeBudget pool is in force
	results []*decoder.Result

	errMu sync.Mutex
	err   error
	errAt int

	// The counters every worker writes sit last, off the cache lines of the
	// fields every frame reads.
	nodesLeft atomic.Int64
	next      atomic.Int64
}

// run drives the loop on the given number of workers and returns the error
// of the lowest failing frame.
func (l *frameLoop) run(workers int) error {
	if workers <= 1 {
		l.work()
		return l.err
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.work()
		}()
	}
	wg.Wait()
	return l.err
}

// work decodes frames until the batch is exhausted or a frame fails.
func (l *frameLoop) work() {
	for {
		i := int(l.next.Add(1)) - 1
		if i >= len(l.inputs) {
			return
		}
		if err := l.frame(i); err != nil {
			l.fail(i, err)
			return
		}
	}
}

// frame decodes input i: a search under the pool's remaining nodes, or the
// fallback decision once the batch is shed.
func (l *frameLoop) frame(i int) error {
	in, p := l.inputs[i], l.pres[i]
	var lim sphere.Limits
	var ft *trace.SearchTrace
	if l.bt != nil {
		ft = trace.NewSearchTrace()
		l.bt.Frames[i] = ft
		lim.Recorder = ft
	}
	shedBy := l.shedBy
	if shedBy == "" && l.pooled {
		// The batch pool caps whatever per-frame budget the policy set.
		if lim.MaxNodes = l.nodesLeft.Load(); lim.MaxNodes <= 0 {
			shedBy = decoder.DegradedByBudget
		}
	}
	if shedBy != "" {
		res, err := l.sd.DecodeFallbackPre(p.pre, in.Y, in.NoiseVar, p.charge)
		if err != nil {
			return fmt.Errorf("core: batch element %d: %w", i, err)
		}
		res.DegradedBy = shedBy
		if ft != nil {
			ft.SearchStart(l.a.design.M, l.a.cons.Size(), 0)
			ft.Degraded(shedBy)
			ft.SearchEnd(0, 0)
		}
		l.results[i] = res
		return nil
	}
	res, err := l.sd.DecodePreLimited(p.pre, in.Y, in.NoiseVar, p.charge, lim)
	if err != nil {
		return fmt.Errorf("core: batch element %d: %w", i, err)
	}
	l.results[i] = res
	if l.pooled {
		l.nodesLeft.Add(-res.Counters.NodesExpanded)
	}
	if l.deadline > 0 {
		// Serial: re-price the work done so far through the pipeline model;
		// once the modeled time reaches the deadline, shed the rest.
		l.done.Add(res.Counters)
		w := decoder.Workload{M: l.a.design.M, N: l.a.design.N, P: l.a.cons.Size(), Frames: i + 1}
		dur, _, err := l.a.design.BatchTime(w, l.done)
		if err != nil {
			return err
		}
		if dur >= l.deadline {
			l.shedBy = decoder.DegradedByBatchDeadline
		}
	}
	return nil
}

// fail records frame i's error, keeping the lowest failing index.
func (l *frameLoop) fail(i int, err error) {
	l.errMu.Lock()
	if l.err == nil || i < l.errAt {
		l.err, l.errAt = err, i
	}
	l.errMu.Unlock()
}

// prepared is one frame's preprocessed channel and the QR flops its decode
// charges. held marks the frame whose cache Get took the batch's reference
// on the handle.
type prepared struct {
	pre    *sphere.Preprocessed
	charge int64
	held   bool
}

// preprocessBatch resolves every input's channel to a Preprocessed handle.
// With QR reuse on, frames sharing a channel (by pointer or by content)
// share one factorization; the charge is the handle's Flops on the first
// frame using each distinct handle and 0 after, so the batch trace charges
// each QR exactly once. With reuse off, every frame gets its own
// factorization and full charge — the seed accounting. It returns the cache
// the handles came from (nil with reuse off), to be passed to releaseBatch.
func (a *Accelerator) preprocessBatch(inputs []BatchInput) (*sphere.PreprocessCache, []prepared, error) {
	pres := make([]prepared, len(inputs))
	if !a.reuseQR {
		for i, in := range inputs {
			p, err := sphere.Preprocess(in.H)
			if err != nil {
				return nil, nil, fmt.Errorf("core: batch element %d: sphere: preprocessing failed: %w", i, err)
			}
			pres[i] = prepared{pre: p, charge: p.Flops}
		}
		return nil, pres, nil
	}
	cache := a.cache
	if cache == nil {
		// Cross-batch caching disabled: dedup within this batch only.
		if c, ok := a.batchCaches.Get().(*sphere.PreprocessCache); ok {
			cache = c
			cache.Reset(len(inputs))
		} else {
			cache = sphere.NewPreprocessCache(len(inputs))
		}
	}
	byPtr := make(map[*cmatrix.Matrix]*sphere.Preprocessed, len(inputs))
	seen := make(map[*sphere.Preprocessed]bool, len(inputs))
	for i, in := range inputs {
		p := byPtr[in.H]
		if p == nil {
			var err error
			p, err = cache.Get(in.H)
			if err != nil {
				a.releaseBatch(cache, pres[:i])
				return nil, nil, fmt.Errorf("core: batch element %d: sphere: preprocessing failed: %w", i, err)
			}
			byPtr[in.H] = p
			pres[i].held = true
		}
		pres[i].pre = p
		if !seen[p] {
			seen[p] = true
			pres[i].charge = p.Flops
		}
	}
	return cache, pres, nil
}

// releaseBatch drops the batch's references on its cached handles once its
// frame loop is done, so the cache may recycle them after eviction, and
// returns a batch-local cache to the pool.
func (a *Accelerator) releaseBatch(cache *sphere.PreprocessCache, pres []prepared) {
	if cache == nil {
		return
	}
	for _, p := range pres {
		if p.held {
			cache.Release(p.pre)
		}
	}
	if cache != a.cache {
		a.batchCaches.Put(cache)
	}
}

// finishReport prices the aggregated batch trace through the pipeline model
// and fills the report's hardware fields.
func (a *Accelerator) finishReport(rep *BatchReport, frames int) (*BatchReport, error) {
	w := decoder.Workload{M: a.design.M, N: a.design.N, P: a.cons.Size(), Frames: frames}
	dur, breakdown, err := a.design.BatchTime(w, rep.Counters)
	if err != nil {
		return nil, err
	}
	rep.SimulatedTime = dur
	rep.Breakdown = breakdown
	rep.PowerW = a.design.Power()
	rep.EnergyJ = a.design.Energy(dur.Seconds())
	rep.tallyQuality()
	return rep, nil
}

// DecodeFallback decodes one input with the linear fallback detector (the
// better of the Babai decision-feedback point and sliced ZF) without any
// tree search. The result carries QualityFallback. This is the shed path a
// serving scheduler uses when its admission queue is full: a linear-cost
// decision now instead of an exact decision too late.
func (a *Accelerator) DecodeFallback(in BatchInput) (*decoder.Result, error) {
	if err := a.ValidateInput(in); err != nil {
		return nil, err
	}
	return a.sd.DecodeFallback(in.H, in.Y, in.NoiseVar)
}

// MeetsRealTime reports whether the simulated batch time satisfies the
// paper's 10 ms real-time constraint [1].
func (r *BatchReport) MeetsRealTime() bool {
	return r.SimulatedTime <= 10*time.Millisecond
}

// SoftBatchReport extends BatchReport with per-vector bit LLRs.
type SoftBatchReport struct {
	BatchReport
	// LLRs holds one slice per input (antenna-major, MSB-first bits;
	// positive = bit 0 more likely).
	LLRs [][]float64
}

// DecodeBatchSoft decodes a batch with the list sphere decoder (listSize
// retained candidates per vector), producing max-log LLRs alongside the
// exact hard decisions, and models the hardware cost of the larger list
// search through the same pipeline. This is the accelerator configuration a
// deployment with a downstream channel decoder would synthesize.
func (a *Accelerator) DecodeBatchSoft(inputs []BatchInput, listSize int) (*SoftBatchReport, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrInvalidInput)
	}
	soft, err := sphere.NewSoft(sphere.Config{
		Const:    a.cons,
		Strategy: sphere.SortedDFS,
	}, listSize)
	if err != nil {
		return nil, err
	}
	rep := &SoftBatchReport{}
	rep.Results = make([]*decoder.Result, 0, len(inputs))
	rep.LLRs = make([][]float64, 0, len(inputs))
	for i, in := range inputs {
		if err := a.validateInput(i, in); err != nil {
			return nil, err
		}
		res, err := soft.DecodeSoft(in.H, in.Y, in.NoiseVar)
		if err != nil {
			return nil, fmt.Errorf("core: batch element %d: %w", i, err)
		}
		rep.Results = append(rep.Results, &res.Result)
		rep.LLRs = append(rep.LLRs, res.LLR)
		rep.Counters.Add(res.Counters)
	}
	if _, err := a.finishReport(&rep.BatchReport, len(inputs)); err != nil {
		return nil, err
	}
	return rep, nil
}
