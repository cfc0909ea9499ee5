package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/integrity"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// Typed admission errors. Test with errors.Is.
var (
	// ErrOverloaded is returned under the Reject policy when the admission
	// queue is full.
	ErrOverloaded = errors.New("serve: overloaded, request rejected")
	// ErrClosed is returned for submissions after Close has begun.
	ErrClosed = errors.New("serve: scheduler closed")
)

// Backend is the decode engine a Scheduler drives. core.Accelerator
// implements it. Backends are not required to be safe for concurrent use:
// the scheduler builds one per worker from the factory and serializes the
// shed path behind a mutex.
type Backend interface {
	Name() string
	Constellation() *constellation.Constellation
	ValidateInput(in core.BatchInput) error
	DecodeBatch(inputs []core.BatchInput, opts ...core.BatchOption) (*core.BatchReport, error)
	DecodeFallback(in core.BatchInput) (*decoder.Result, error)
}

// Config tunes a Scheduler. The zero value is usable: defaults fill in.
type Config struct {
	// MaxBatch is the coalescing ceiling: a batch dispatches as soon as it
	// holds this many frames. Default 16.
	MaxBatch int
	// MaxWait is the coalescing deadline: a batch dispatches when its
	// oldest frame has waited this long, full or not. Default 1ms.
	MaxWait time.Duration
	// Workers is the number of decode workers; each gets its own Backend
	// instance from the factory. Default 1.
	Workers int
	// QueueCap bounds the admission queue (frames accepted but not yet
	// claimed by the batcher). Default 256.
	QueueCap int
	// Policy selects what Submit does when the queue is full.
	Policy OverloadPolicy
	// Budget bounds each dispatched batch (modeled-time deadline and/or
	// shared node budget — core.WithBudget semantics). Overruns degrade
	// quality, they never drop frames.
	Budget core.BatchBudget
	// DecodePolicy, when non-nil, is the fixed core.DecodePolicy every
	// dispatched batch decodes under (core.WithPolicy semantics). Runtime
	// overrides via SetPolicy / PUT /v1/policy shadow it; nil decodes with
	// the backend's base configuration.
	DecodePolicy *core.DecodePolicy
	// Controller, when non-nil, turns on adaptive complexity control: the
	// scheduler consults it at batch-formation time for the policy of each
	// batch's request class and feeds decode outcomes back into it. A
	// SetPolicy override suspends it; SetPolicy("adaptive") resumes it.
	Controller *adapt.Controller
	// Resilience tunes worker supervision, the per-backend circuit breaker,
	// retries, and hedging. The zero value enables supervision with
	// defaults; set Resilience.Disable for the unsupervised seed behaviour.
	Resilience ResilienceConfig
	// WrapWorker, when non-nil, wraps each decode worker's backend (and is
	// re-applied on supervised restarts). The chaos harness injects its
	// FaultyBackend here; validation and the shed path stay unwrapped.
	WrapWorker func(worker int, be Backend) Backend
}

// withDefaults returns c with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxWait <= 0 {
		c.MaxWait = time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	return c
}

// Response is what a successful Submit returns: the detection plus the
// scheduling telemetry the request experienced.
type Response struct {
	// Result is the detection (Quality flags budget cuts and sheds).
	Result *decoder.Result
	// BatchSize is the number of frames coalesced into the dispatch that
	// served this request (1 when the request was shed inline).
	BatchSize int
	// QueueWait is submit → dispatch; Service is the batch decode wall
	// time; SimulatedTime the modeled FPGA time of the batch.
	QueueWait     time.Duration
	Service       time.Duration
	SimulatedTime time.Duration
	// Shed reports the request was served by the inline fallback path
	// instead of a dispatched batch.
	Shed bool
}

// result is one frame's outcome: a Response or an error, never both.
type result struct {
	out *Response
	err error
}

// group is one submission: the frames a single submitFrames call admitted.
// pending counts the admitted frames not yet answered plus the submitter's
// own hold, which it drops once admission is over; whoever brings it to zero
// closes done. One group answers a whole envelope with one wake-up.
type group struct {
	pending atomic.Int64
	done    chan struct{}
}

// deliver drops one hold on g, waking the submitter on the last one.
func (g *group) deliver() {
	if g.pending.Add(-1) == 0 {
		close(g.done)
	}
}

// request is one frame of a submission. claimed settles who answers it: the
// worker delivering the decode, the worker's panic path, or the submitter
// abandoning the wait on context expiry. Exactly one side wins the CAS and
// writes res, so an abandoned frame is counted once and its (unobservable)
// response is never published to trace streams. A frame that was never
// admitted is claimed by the submitter up front.
type request struct {
	in  core.BatchInput
	enq time.Time
	// scenario is the workload label the submitter attached ("" for
	// unlabeled traffic); it keys the per-scenario quality and QR-cache
	// splits in Stats.
	scenario string
	g        *group
	res      result
	resp     Response // res.out's storage when a worker answers
	claimed  atomic.Bool
}

// answer settles req with r unless someone has already claimed it.
func (req *request) answer(r result) {
	if req.claimed.CompareAndSwap(false, true) {
		req.res = r
		req.g.deliver()
	}
}

// batch is one coalesced dispatch: the claimed requests plus the instant
// coalescing began (the batch-form span start when tracing).
type batch struct {
	reqs []*request
	born time.Time
}

// Scheduler coalesces single-frame decode requests into batches and runs
// them on a worker pool of accelerator backends. Safe for concurrent use.
type Scheduler struct {
	cfg Config

	queue    chan *request
	dispatch chan batch
	stop     chan struct{}

	// admit guards the closed flag against the enqueue: Submit holds it
	// shared around (check closed, enqueue), Close holds it exclusively to
	// flip closed — so no frame can enter the queue after Close begins and
	// the batcher's final drain is complete.
	admit  sync.RWMutex
	closed bool

	validator Backend    // used only for read-only validation
	shedMu    sync.Mutex // serializes the inline shed backend
	shedBE    Backend

	// basePol is the backend's default decode policy (zero when the backend
	// does not expose one). Its Strategy is the engine the server serves:
	// /v1/config reports it, and policy spellings are relative to it.
	basePol core.DecodePolicy

	// Resilience layer: one supervised control block per worker, plus the
	// shared retry/hedge budgets and backoff (see resilient.go).
	factory     func() (Backend, error)
	rcfg        ResilienceConfig
	workers     []*workerCtl
	retryBudget *resilience.Budget
	hedgeBudget *resilience.Budget
	backoff     *resilience.Backoff

	batcherDone chan struct{}
	workersWG   sync.WaitGroup

	m      *metrics
	traces *trace.Hub

	// Decode-policy state: a runtime override (PUT /v1/policy) shadows both
	// the adaptive controller and the configured fixed policy; polAdaptive
	// tracks whether the controller is consulted (suspended while overridden,
	// resumed by SetPolicy("adaptive")). See adaptive.go.
	polMu       sync.RWMutex
	polOverride *core.DecodePolicy
	polAdaptive bool

	// epoch and instance identify this scheduler incarnation: epoch is
	// monotonic across restarts on one host (creation time in unix nanos),
	// instance is a unique id. A cluster front end compares both across
	// health probes to detect shard restarts and invalidate any affinity
	// assumptions (the restarted shard's QR cache is cold).
	epoch    int64
	instance string
}

// instanceSeq disambiguates schedulers created within the same nanosecond
// (test suites build many per process).
var instanceSeq atomic.Uint64

// newInstanceID derives a short unique id from the epoch, the process, and a
// per-process sequence number.
func newInstanceID(epoch int64) string {
	h := uint64(14695981039346656037) // FNV-1a
	for _, v := range []uint64{uint64(epoch), uint64(os.Getpid()), instanceSeq.Add(1)} {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	return fmt.Sprintf("%016x", h)
}

// New builds and starts a scheduler. factory must return a fresh Backend
// per call; the scheduler creates Workers+2 of them (one per worker, one
// for admission validation, one for the inline shed path).
func New(cfg Config, factory func() (Backend, error)) (*Scheduler, error) {
	if factory == nil {
		return nil, errors.New("serve: nil backend factory")
	}
	cfg = cfg.withDefaults()
	if cfg.Budget.Deadline < 0 || cfg.Budget.NodeBudget < 0 {
		return nil, fmt.Errorf("serve: negative batch budget %+v", cfg.Budget)
	}
	switch cfg.Policy {
	case Reject, ShedToLinear, Block:
	default:
		return nil, fmt.Errorf("serve: unknown overload policy %v", int(cfg.Policy))
	}
	rcfg := cfg.Resilience.withDefaults()
	if rcfg.HedgeAfter < 0 || rcfg.WedgeTimeout < 0 {
		return nil, fmt.Errorf("serve: negative resilience timer (hedge %v, wedge %v)",
			rcfg.HedgeAfter, rcfg.WedgeTimeout)
	}
	s := &Scheduler{
		cfg:         cfg,
		queue:       make(chan *request, cfg.QueueCap),
		dispatch:    make(chan batch, cfg.Workers),
		stop:        make(chan struct{}),
		batcherDone: make(chan struct{}),
		factory:     factory,
		rcfg:        rcfg,
		retryBudget: resilience.NewBudget(rcfg.RetryBudget, 10),
		hedgeBudget: resilience.NewBudget(rcfg.HedgeBudget, 4),
		backoff:     resilience.NewBackoff(rcfg.RetryBase, rcfg.RetryCap, rcfg.Seed),
		m:           newMetrics(cfg.MaxBatch),
		traces:      trace.NewHub(),
		epoch:       time.Now().UnixNano(),
	}
	s.instance = newInstanceID(s.epoch)
	s.polAdaptive = cfg.Controller != nil
	var err error
	if s.validator, err = factory(); err != nil {
		return nil, fmt.Errorf("serve: backend factory: %w", err)
	}
	if bp, ok := s.validator.(basePolicyer); ok {
		s.basePol = bp.BasePolicy()
	}
	if cfg.DecodePolicy != nil {
		if err := s.checkPolicy(*cfg.DecodePolicy); err != nil {
			return nil, fmt.Errorf("serve: decode policy: %w", err)
		}
	}
	if s.shedBE, err = factory(); err != nil {
		return nil, fmt.Errorf("serve: backend factory: %w", err)
	}
	s.workers = make([]*workerCtl, cfg.Workers)
	for i := range s.workers {
		be, err := factory()
		if err != nil {
			return nil, fmt.Errorf("serve: backend factory: %w", err)
		}
		if cfg.WrapWorker != nil {
			be = cfg.WrapWorker(i, be)
		}
		s.workers[i] = &workerCtl{
			id: i,
			be: be,
			breaker: resilience.NewBreaker(resilience.BreakerConfig{
				FailureThreshold: rcfg.FailureThreshold,
				CooldownBase:     rcfg.CooldownBase,
				CooldownCap:      rcfg.CooldownCap,
				Seed:             rcfg.Seed + uint64(i) + 1,
			}),
			restarts:  resilience.NewRestartBudget(rcfg.MaxRestarts, rcfg.RestartWindow),
			sdcBudget: resilience.NewRestartBudget(rcfg.SDCQuarantineLimit, rcfg.SDCWindow),
		}
	}
	go s.batcher()
	s.workersWG.Add(cfg.Workers)
	for _, w := range s.workers {
		go s.worker(w)
	}
	return s, nil
}

// Config returns the scheduler's effective (default-filled) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Identity returns the scheduler's incarnation marker: a monotonic epoch
// (creation time, unix nanos — a restart always yields a larger one) and a
// unique instance id. Both ride on /healthz and /v1/config so a cluster
// front end can detect restarts.
func (s *Scheduler) Identity() (epoch int64, instance string) { return s.epoch, s.instance }

// Backend returns the validation backend (for its name/constellation).
func (s *Scheduler) Backend() Backend { return s.validator }

// Traces returns the scheduler's trace hub. Subscribing a consumer turns on
// batch tracing for every subsequently dispatched batch; with no subscribers
// the decode path never touches the trace machinery.
func (s *Scheduler) Traces() *trace.Hub { return s.traces }

// Stats returns a snapshot of the scheduler's counters and gauges.
func (s *Scheduler) Stats() Stats {
	s.admit.RLock()
	draining := s.closed
	s.admit.RUnlock()
	st := s.m.snapshot(len(s.queue), draining)
	state, _ := s.Health()
	st.Health = state.String()
	for _, w := range s.workers {
		c := w.breaker.Counters()
		st.BreakerOpened += c.Opened
		st.BreakerProbes += c.Probes
		st.BreakerReclosed += c.Reclosed
		st.BreakerShortCircuit += c.ShortCircuited
		if cs, ok := w.backend().(cacheStatser); ok {
			hits, misses := cs.PreprocessCacheStats()
			st.QRCacheHits += uint64(hits)
			st.QRCacheMisses += uint64(misses)
		}
		if ss, ok := w.backend().(sdcStatser); ok {
			st.QRCacheSDCEvictions += uint64(ss.PreprocessCacheSDCEvictions())
		}
	}
	// A verify-on-hit eviction is a detection with built-in recovery: the
	// poisoned factorization is dropped and recomputed in the same decode.
	if ev := st.QRCacheSDCEvictions; ev > 0 {
		st.SDCDetected[integrity.SiteQRCache] += ev
		st.SDCRecovered += ev
	}
	return st
}

// cacheStatser is the optional Backend facet reporting QR preprocessing
// cache effectiveness (core.Accelerator implements it). The cluster smoke
// reads the aggregate off /metrics to prove affinity routing keeps each
// shard's cache hot.
type cacheStatser interface {
	PreprocessCacheStats() (hits, misses int64)
}

// sdcStatser is the optional Backend facet reporting verify-on-hit QR cache
// evictions (core.Accelerator implements it) — the qr-cache site of the SDC
// observability surface.
type sdcStatser interface {
	PreprocessCacheSDCEvictions() int64
}

// Healthy reports whether the scheduler is accepting work.
func (s *Scheduler) Healthy() bool {
	s.admit.RLock()
	defer s.admit.RUnlock()
	return !s.closed
}

// Submit enqueues one frame and blocks until it is decoded, shed, rejected,
// or ctx expires. A ctx expiry after admission abandons the wait but not the
// work: the frame still decodes with its batch and is counted in Stats.
func (s *Scheduler) Submit(ctx context.Context, in core.BatchInput) (*Response, error) {
	return s.SubmitScenario(ctx, in, "")
}

// SubmitScenario is Submit with a workload label attached: completed frames
// accumulate into Stats.Scenarios[scenario] (quality mix plus the QR-cache
// hits/misses their batches generated). An empty scenario is plain Submit.
func (s *Scheduler) SubmitScenario(ctx context.Context, in core.BatchInput, scenario string) (*Response, error) {
	var out [1]result
	s.submitFrames(ctx, []core.BatchInput{in}, []string{scenario}, out[:])
	return out[0].out, out[0].err
}

// submitFrames submits ins as one unit and blocks until every frame is
// answered or ctx expires; out[i] receives frame i's outcome and scenario[i]
// is its label. Frames are validated and admitted in order, each with
// Submit's semantics: a frame that fails validation, meets a closed
// scheduler, or finds the queue full under Reject gets its own error, and
// one the queue turns away under ShedToLinear is served inline, without
// affecting the rest. The admitted frames share one group, so the whole
// submission wakes the caller once. On ctx expiry every frame no worker has
// claimed is answered with ctx.Err(); its decode still runs with its batch.
func (s *Scheduler) submitFrames(ctx context.Context, ins []core.BatchInput, scenario []string, out []result) {
	g := &group{done: make(chan struct{})}
	g.pending.Store(1) // the submitter's own hold, dropped after admission
	reqs := make([]request, len(ins))
	var invalid, submitted uint64
	for i := range reqs {
		req := &reqs[i]
		req.in, req.scenario, req.g = ins[i], scenario[i], g
		g.pending.Add(1)
		if err := s.validator.ValidateInput(req.in); err != nil {
			invalid++
			req.answer(result{err: err})
			continue
		}
		req.enq = time.Now()
		admitted, err := false, ErrClosed
		s.admit.RLock()
		if !s.closed {
			admitted, err = s.enqueue(ctx, req)
		}
		s.admit.RUnlock()
		switch {
		case err != nil:
			req.answer(result{err: err})
		case !admitted:
			// Queue full under ShedToLinear: serve inline at linear cost.
			resp, err := s.shedInline(req)
			req.answer(result{out: resp, err: err})
		default:
			submitted++
		}
	}
	if invalid+submitted > 0 {
		s.m.mu.Lock()
		s.m.invalid += invalid
		s.m.submitted += submitted
		s.m.mu.Unlock()
	}

	g.deliver()
	select {
	case <-g.done:
	case <-ctx.Done():
		// Abandon the wait, not the work. Frames a worker has already
		// claimed are being delivered now, so wait for those rather than
		// report a timeout for decoded work.
		err := ctx.Err()
		for i := range reqs {
			reqs[i].answer(result{err: err})
		}
		<-g.done
	}
	for i := range reqs {
		out[i] = reqs[i].res
	}
}

// enqueue applies the overload policy. It reports whether the request made
// it into the queue; (false, nil) means "shed it inline". Callers hold
// s.admit shared.
func (s *Scheduler) enqueue(ctx context.Context, req *request) (bool, error) {
	switch s.cfg.Policy {
	case Block:
		select {
		case s.queue <- req:
			return true, nil
		default:
		}
		// Queue full: park until space, cancellation, or shutdown.
		select {
		case s.queue <- req:
			return true, nil
		case <-ctx.Done():
			return false, ctx.Err()
		case <-s.stop:
			return false, ErrClosed
		}
	case ShedToLinear:
		select {
		case s.queue <- req:
			return true, nil
		default:
			return false, nil
		}
	default: // Reject
		select {
		case s.queue <- req:
			return true, nil
		default:
			s.m.mu.Lock()
			s.m.rejected++
			s.m.mu.Unlock()
			return false, ErrOverloaded
		}
	}
}

// shedInline serves a request on the caller's goroutine with the linear
// fallback decoder — the queue was full and the policy trades quality for
// immediate service.
func (s *Scheduler) shedInline(req *request) (*Response, error) {
	start := time.Now()
	s.shedMu.Lock()
	res, err := s.shedBE.DecodeFallback(req.in)
	s.shedMu.Unlock()
	if err != nil {
		s.m.mu.Lock()
		s.m.failed++
		s.m.mu.Unlock()
		return nil, fmt.Errorf("serve: shed decode: %w", err)
	}
	res.DegradedBy = decoder.DegradedByOverload
	svc := time.Since(start)
	s.m.mu.Lock()
	s.m.shed++
	s.m.quality[res.Quality.String()]++
	s.m.degraded++
	s.m.service.observe(svc)
	s.m.queueWait.observe(start.Sub(req.enq))
	if req.scenario != "" {
		sc := s.m.scenarioAgg(req.scenario)
		sc.frames++
		sc.quality[res.Quality.String()]++
		sc.degraded++
	}
	s.m.mu.Unlock()
	return &Response{
		Result:    res,
		BatchSize: 1,
		QueueWait: start.Sub(req.enq),
		Service:   svc,
		Shed:      true,
	}, nil
}

// batcher is the coalescing loop: it claims the oldest queued frame, gives
// it up to MaxWait to attract company (capped at MaxBatch frames), and
// hands the batch to the worker pool. On shutdown it drains whatever the
// queue still holds into final batches before closing the dispatch channel.
func (s *Scheduler) batcher() {
	defer close(s.batcherDone)
	defer close(s.dispatch)
	for {
		select {
		case first := <-s.queue:
			s.dispatch <- s.fill(first)
		case <-s.stop:
			s.drain()
			return
		}
	}
}

// fill grows a batch around its first frame until MaxBatch, MaxWait, or
// shutdown (shutdown flushes immediately; the main loop's drain handles the
// rest of the queue).
func (s *Scheduler) fill(first *request) batch {
	b := batch{reqs: make([]*request, 1, s.cfg.MaxBatch), born: time.Now()}
	b.reqs[0] = first
	if s.cfg.MaxBatch == 1 {
		return b
	}
	timer := time.NewTimer(s.cfg.MaxWait)
	defer timer.Stop()
	for len(b.reqs) < s.cfg.MaxBatch {
		select {
		case req := <-s.queue:
			b.reqs = append(b.reqs, req)
		case <-timer.C:
			return b
		case <-s.stop:
			return b
		}
	}
	return b
}

// drain empties the queue into maximal batches after stop. No frame
// admitted before Close is lost: the admit lock guarantees nothing enters
// the queue once drain has run.
func (s *Scheduler) drain() {
	b := batch{born: time.Now()}
	flush := func() {
		if len(b.reqs) > 0 {
			s.dispatch <- b
			b = batch{born: time.Now()}
		}
	}
	for {
		select {
		case req := <-s.queue:
			b.reqs = append(b.reqs, req)
			if len(b.reqs) == s.cfg.MaxBatch {
				flush()
			}
		default:
			flush()
			return
		}
	}
}

// worker decodes dispatched batches on its private, supervised backend. The
// loop itself runs under a recovery barrier too, so even a panic escaping
// the per-batch supervision (bookkeeping bugs, not backend faults) restarts
// the loop instead of killing the process.
func (s *Scheduler) worker(w *workerCtl) {
	defer s.workersWG.Done()
	for b := range s.dispatch {
		b := b
		if err := resilience.Recover(func() error { s.runBatch(w, b); return nil }); err != nil {
			// The batch's frames may be unanswered; a typed error is the
			// honest answer of last resort.
			var pe *resilience.PanicError
			if errors.As(err, &pe) {
				s.recordPanic(w.id, pe)
			}
			r := result{err: fmt.Errorf("serve: batch decode: %w", err)}
			for _, req := range b.reqs {
				req.answer(r)
			}
		}
	}
}

// runBatch decodes one coalesced batch through the resilient path and fans
// results back out. When the trace hub has subscribers it records the
// batch's span breakdown (queue-wait → batch-form → preprocess → search →
// respond) and publishes one wire Frame per request; with no subscribers the
// only cost is one atomic load.
func (s *Scheduler) runBatch(w *workerCtl, b batch) {
	reqs := b.reqs
	start := time.Now()
	s.m.mu.Lock()
	s.m.inFlight += len(reqs)
	s.m.mu.Unlock()

	inputs := make([]core.BatchInput, len(reqs))
	for i, req := range reqs {
		inputs[i] = req.in
	}
	// Batch scenario label: the label shared by every frame, "mixed" when a
	// labeled batch coalesced frames from different scenarios, "" when the
	// whole batch is unlabeled. The QR-cache delta below is attributed to it.
	label := reqs[0].scenario
	for _, req := range reqs[1:] {
		if req.scenario != label {
			label = scenarioMixed
			break
		}
	}
	// Snapshot the worker's QR-cache counters around the decode so the hits
	// this batch generates can be split per scenario. The worker owns its
	// backend, so the delta is exact unless supervision swaps the backend
	// mid-decode (then the delta is clamped to zero).
	var cacheH0, cacheM0 int64
	cs, hasCache := w.backend().(cacheStatser)
	if hasCache {
		cacheH0, cacheM0 = cs.PreprocessCacheStats()
	}
	// Consult the decode-policy state at batch-formation time: the adaptive
	// controller (keyed by the batch's request class), a runtime override, or
	// the configured fixed policy. polSource labels the decision in metrics.
	pol, polSource := s.policyFor(classOf(label))
	var bt *trace.BatchTrace
	opts := []core.BatchOption{core.WithBudget(s.cfg.Budget)}
	if pol != nil {
		opts = append(opts, core.WithPolicy(*pol))
	}
	if s.traces.Active() {
		bt = trace.NewBatchTrace()
		oldest := reqs[0].enq
		for _, req := range reqs[1:] {
			if req.enq.Before(oldest) {
				oldest = req.enq
			}
		}
		bt.AddPhase("queue-wait", oldest, b.born)
		bt.AddPhase("batch-form", b.born, start)
		opts = append(opts, core.WithTrace(bt))
	}
	rep, oc, err := s.decodeResilient(w, inputs, opts)
	svc := time.Since(start)
	if bt != nil && err == nil && oc.fallbackReason != "" {
		// The batch never reached the accelerator (or its attempt was
		// abandoned): synthesize the degraded per-frame traces the traced
		// decode would have produced.
		s.synthesizeFallbackTraces(bt, inputs, oc.fallbackReason)
	}

	s.m.mu.Lock()
	s.m.inFlight -= len(reqs)
	s.m.policyDecisions[polSource]++
	s.m.retries += uint64(oc.retries)
	s.m.wedges += uint64(oc.wedges)
	if oc.sdcAudits > 0 {
		// Every audit-rejected attempt was retried or shed, never served, so
		// each detection is also a recovery.
		s.m.sdcDetected[integrity.SiteMetricAudit] += uint64(oc.sdcAudits)
		s.m.sdcRecovered += uint64(oc.sdcAudits)
	}
	if oc.hedged {
		s.m.hedges++
	}
	if oc.fallbackReason != "" {
		s.m.fallbackByReason[oc.fallbackReason] += uint64(len(reqs))
	}
	if err != nil {
		s.m.failed += uint64(len(reqs))
	} else {
		s.m.completed += uint64(len(reqs))
		s.m.batches++
		s.m.batchedFrames += uint64(len(reqs))
		s.m.batchSizes[len(reqs)-1]++
		s.m.simTime += rep.SimulatedTime
		s.m.energyJ += rep.EnergyJ
		s.m.service.observe(svc)
		if n := rep.Counters.SDCDetected; n > 0 {
			// ABFT caught (and repaired in place) bit flips inside the search.
			s.m.sdcDetected[integrity.SiteGEMM] += uint64(n)
			s.m.sdcRecovered += uint64(rep.Counters.SDCRecovered)
		}
		for i, res := range rep.Results {
			s.m.quality[res.Quality.String()]++
			if res.Quality.Degraded() {
				s.m.degraded++
			}
			if sc := reqs[i].scenario; sc != "" {
				agg := s.m.scenarioAgg(sc)
				agg.frames++
				agg.quality[res.Quality.String()]++
				if res.Quality.Degraded() {
					agg.degraded++
				}
			}
		}
		for _, req := range reqs {
			s.m.queueWait.observe(start.Sub(req.enq))
		}
		if hasCache && label != "" {
			h1, m1 := cs.PreprocessCacheStats()
			if dh := h1 - cacheH0; dh > 0 {
				s.m.scenarioAgg(label).cacheHits += uint64(dh)
			}
			if dm := m1 - cacheM0; dm > 0 {
				s.m.scenarioAgg(label).cacheMisses += uint64(dm)
			}
		}
	}
	s.m.mu.Unlock()

	// GEMM repairs are this worker's hardware lying, caught in the act:
	// charge its SDC quarantine allowance (outside the metrics lock —
	// noteWorkerSDC takes it on quarantine).
	if err == nil && rep.Counters.SDCDetected > 0 {
		s.noteWorkerSDC(w, int(rep.Counters.SDCDetected))
	}

	// Close the control loop: feed each frame's SNR estimate, search cost,
	// and quality back into the controller. Observations flow even while an
	// override suspends the controller's decisions, so it resumes with warm
	// EWMAs instead of stale ones.
	if ctrl := s.cfg.Controller; ctrl != nil && err == nil {
		for i, res := range rep.Results {
			ctrl.Observe(classOf(reqs[i].scenario),
				adapt.SNREstimateDB(inputs[i].NoiseVar), res.Counters.NodesExpanded, res.Quality)
		}
	}

	respondStart := time.Now()
	var batchErr error
	if err != nil {
		batchErr = fmt.Errorf("serve: batch decode: %w", err)
	}
	abandoned := make([]bool, len(reqs))
	var abandonedCount uint64
	for i, req := range reqs {
		if !req.claimed.CompareAndSwap(false, true) {
			// The submitter's context expired and it left: the decode
			// happened (it was coalesced with live frames) but nobody can
			// observe the response.
			abandoned[i] = true
			abandonedCount++
			continue
		}
		if err != nil {
			req.res.err = batchErr
		} else {
			req.resp = Response{
				Result:        rep.Results[i],
				BatchSize:     len(reqs),
				QueueWait:     start.Sub(req.enq),
				Service:       svc,
				SimulatedTime: rep.SimulatedTime,
			}
			req.res.out = &req.resp
		}
		req.g.deliver()
	}
	if abandonedCount > 0 {
		s.m.mu.Lock()
		s.m.abandoned += abandonedCount
		s.m.mu.Unlock()
	}
	if bt != nil && err == nil {
		end := time.Now()
		bt.AddPhase("respond", respondStart, end)
		bt.Batch.End = end
		s.publishFrames(bt, rep, abandoned, oc.annotations())
	}
}

// synthesizeFallbackTraces fills bt.Frames with the zero-visit degraded
// traces a shed batch carries (the accelerator never ran, so there is no
// recorded search to publish).
func (s *Scheduler) synthesizeFallbackTraces(bt *trace.BatchTrace, inputs []core.BatchInput, reason string) {
	alphabet := s.validator.Constellation().Size()
	bt.Frames = make([]*trace.SearchTrace, len(inputs))
	for i, in := range inputs {
		ft := trace.NewSearchTrace()
		ft.SearchStart(in.H.Cols, alphabet, 0)
		ft.Degraded(reason)
		ft.SearchEnd(0, 0)
		bt.Frames[i] = ft
	}
}

// publishFrames converts one traced batch into wire frames and fans them out
// to the hub's subscribers. Abandoned frames are skipped — their respond
// phase never happened, so publishing them would break the span invariants
// consumers check.
func (s *Scheduler) publishFrames(bt *trace.BatchTrace, rep *core.BatchReport, abandoned []bool, annotations []string) {
	n := len(rep.Results)
	for i := 0; i < n; i++ {
		if i >= len(bt.Frames) || bt.Frames[i] == nil || (i < len(abandoned) && abandoned[i]) {
			continue
		}
		f := trace.NewFrame(bt.Frames[i], "serve")
		f.FrameID = s.traces.NextFrameID()
		res := rep.Results[i]
		f.Quality = res.Quality.String()
		f.DegradedBy = res.DegradedBy
		f.Annotations = annotations
		f.AttachBatch(bt, n)
		s.traces.Publish(f)
	}
}

// Close stops admission, drains every already-admitted frame through the
// decoders, and waits for the workers to finish. Safe to call more than
// once; later Submits return ErrClosed.
func (s *Scheduler) Close() {
	s.admit.Lock()
	if s.closed {
		s.admit.Unlock()
		<-s.batcherDone
		s.workersWG.Wait()
		return
	}
	s.closed = true
	s.admit.Unlock()
	close(s.stop)
	<-s.batcherDone
	s.workersWG.Wait()
}
