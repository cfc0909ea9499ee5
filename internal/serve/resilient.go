package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmatrix"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/integrity"
	"repro/internal/resilience"
)

// ResilienceConfig tunes the scheduler's self-healing layer: worker
// supervision (panic recovery, backend restarts, quarantine), the per-backend
// circuit breaker, budgeted retries for transient faults, and hedged submits
// for tail batches. The zero value enables supervision and the breaker with
// defaults; hedging and wedge detection stay off until their timers are set
// (both arm a goroutine per dispatch, which the no-fault hot path should not
// pay for by default).
type ResilienceConfig struct {
	// Disable turns the whole layer off — the seed behaviour, where a
	// panicking backend kills the process. Exists for A/B benchmarks.
	Disable bool
	// FailureThreshold trips a worker's breaker after this many consecutive
	// decode failures. Default 5.
	FailureThreshold int
	// CooldownBase / CooldownCap bound the breaker's decorrelated-jitter
	// open dwell. Defaults 100ms / 5s.
	CooldownBase time.Duration
	CooldownCap  time.Duration
	// MaxRestarts is the backend-rebuild allowance per RestartWindow before
	// the backend is quarantined (served by the linear fallback from then
	// on). Defaults 3 / 30s.
	MaxRestarts   int
	RestartWindow time.Duration
	// RetryMax is the extra decode attempts per batch for transient faults.
	// Default 2.
	RetryMax int
	// RetryBudget is the retry allowance earned per successful batch (token
	// bucket, so fault storms shed instead of amplifying). Default 0.2.
	RetryBudget float64
	// RetryBase / RetryCap bound the full-jitter retry backoff.
	// Defaults 1ms / 50ms.
	RetryBase time.Duration
	RetryCap  time.Duration
	// HedgeAfter, when > 0, abandons a primary decode that has run this
	// long and answers the batch from the linear fallback instead (a hedged
	// submit for tail frames nearing their deadline). The abandoned decode
	// keeps running on a detached goroutine — its backend is replaced — and
	// its eventual outcome still feeds the breaker.
	HedgeAfter time.Duration
	// HedgeBudget is the hedge allowance earned per successful batch.
	// Default 0.1.
	HedgeBudget float64
	// WedgeTimeout, when > 0, declares a primary decode wedged after this
	// long: the batch is answered from the fallback, the backend replaced,
	// and the breaker debited. Catches slow-leak wedges panic recovery
	// cannot see.
	WedgeTimeout time.Duration
	// DisableAudit turns off the per-frame re-encode integrity audit of
	// decode reports (the metric cross-check against ‖y − H·ŝ‖ recomputed
	// from the original inputs). On by default: a corrupted metric must
	// never ship tagged exact. Exists for A/B overhead pricing.
	DisableAudit bool
	// SDCQuarantineLimit is the per-worker allowance of detected silent data
	// corruptions (ABFT repairs, failed metric audits) per SDCWindow before
	// the worker is quarantined — hardware that keeps flipping bits has
	// failed, even if every flip so far was caught. Default 8.
	SDCQuarantineLimit int
	// SDCWindow is the sliding window the SDC allowance covers. Defaults to
	// RestartWindow.
	SDCWindow time.Duration
	// Seed drives the breaker/backoff jitter streams.
	Seed uint64
}

func (r ResilienceConfig) withDefaults() ResilienceConfig {
	if r.FailureThreshold <= 0 {
		r.FailureThreshold = 5
	}
	if r.CooldownBase <= 0 {
		r.CooldownBase = 100 * time.Millisecond
	}
	if r.CooldownCap <= 0 {
		r.CooldownCap = 5 * time.Second
	}
	if r.MaxRestarts <= 0 {
		r.MaxRestarts = 3
	}
	if r.RestartWindow <= 0 {
		r.RestartWindow = 30 * time.Second
	}
	if r.RetryMax <= 0 {
		r.RetryMax = 2
	}
	if r.RetryBudget == 0 {
		r.RetryBudget = 0.2
	}
	if r.RetryBase <= 0 {
		r.RetryBase = time.Millisecond
	}
	if r.RetryCap <= 0 {
		r.RetryCap = 50 * time.Millisecond
	}
	if r.HedgeBudget == 0 {
		r.HedgeBudget = 0.1
	}
	if r.SDCQuarantineLimit <= 0 {
		r.SDCQuarantineLimit = 8
	}
	if r.SDCWindow <= 0 {
		r.SDCWindow = r.RestartWindow
	}
	return r
}

// Degradation reasons specific to the serving resilience layer, recorded in
// Result.DegradedBy alongside the decoder-level reasons.
const (
	// DegradedByPanic marks frames answered by the fallback because the
	// accelerator panicked (and retries were exhausted or unavailable).
	DegradedByPanic = "worker-panic"
	// DegradedByBreaker marks frames routed around an open circuit breaker.
	DegradedByBreaker = "breaker-open"
	// DegradedByQuarantine marks frames served by a quarantined worker.
	DegradedByQuarantine = "quarantine"
	// DegradedByTransient marks frames answered by the fallback after
	// transient decode faults exhausted their retry budget.
	DegradedByTransient = "transient-error"
	// DegradedByHedge marks frames answered by a hedged fallback submit.
	DegradedByHedge = "hedge"
	// DegradedByWedge marks frames answered by the fallback after the
	// primary decode exceeded the wedge timeout.
	DegradedByWedge = "wedge-timeout"
	// DegradedByIntegrity marks frames answered by the fallback after the
	// primary decode repeatedly failed the re-encode integrity audit —
	// detected silent data corruption that retries could not clear.
	DegradedByIntegrity = "integrity"
)

// Internal attempt-failure sentinels.
var (
	errHedged = errors.New("serve: primary decode abandoned for a hedged fallback")
	errWedged = fmt.Errorf("serve: primary decode exceeded the wedge timeout: %w", resilience.ErrTransient)
	// errGarbage is transient: a glitched transfer can corrupt one batch
	// without the next being doomed.
	errGarbage = fmt.Errorf("serve: backend returned a malformed report: %w", resilience.ErrTransient)
	// errIntegrityAudit is transient for the same reason, but additionally
	// carries integrity.ErrIntegrity so the caller can count the detection
	// and debit the worker's SDC quarantine budget.
	errIntegrityAudit = fmt.Errorf("serve: decode report failed the re-encode integrity audit: %w", resilience.ErrTransient)
)

// workerCtl is one supervised decode worker: its (replaceable) backend, its
// circuit breaker, and its restart bookkeeping.
type workerCtl struct {
	id       int
	breaker  *resilience.Breaker
	restarts *resilience.RestartBudget
	// sdcBudget meters detected silent corruptions attributed to this worker
	// (ABFT repairs in its decodes, failed metric audits): each detection
	// spends one token, and exhaustion quarantines the worker — caught flips
	// are still evidence of failing hardware.
	sdcBudget *resilience.RestartBudget

	// be is replaced on restart; beLost marks a backend abandoned to a
	// detached goroutine (hedge/wedge) that must be replaced before reuse.
	// Only the owning worker goroutine touches be/beLost outside Health().
	mu     sync.Mutex
	be     Backend
	beLost bool

	quarantined  atomic.Bool
	panics       atomic.Uint64
	restartCount atomic.Uint64
	sdcDetected  atomic.Uint64
}

// backend returns the worker's current backend under the lock (Health reads
// concurrently with restarts).
func (w *workerCtl) backend() Backend {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.be
}

// HealthState grades the scheduler for /healthz.
type HealthState int

const (
	// HealthOK: accepting work, every backend live with a closed breaker.
	HealthOK HealthState = iota
	// HealthDegraded: accepting work, but at least one backend is behind an
	// open/half-open breaker or quarantined — capacity or quality reduced.
	HealthDegraded
	// HealthDraining: Close has begun; queued work finishes, new work is
	// refused.
	HealthDraining
	// HealthUnhealthy: every backend is quarantined — only the linear
	// fallback is answering.
	HealthUnhealthy
)

// String names the state as served by /healthz.
func (h HealthState) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthDraining:
		return "draining"
	case HealthUnhealthy:
		return "unhealthy"
	default:
		return fmt.Sprintf("HealthState(%d)", int(h))
	}
}

// ParseHealthState is the inverse of String.
func ParseHealthState(s string) (HealthState, error) {
	switch s {
	case "ok":
		return HealthOK, nil
	case "degraded":
		return HealthDegraded, nil
	case "draining":
		return HealthDraining, nil
	case "unhealthy":
		return HealthUnhealthy, nil
	default:
		return 0, fmt.Errorf("serve: unknown health state %q (want ok, degraded, draining, unhealthy)", s)
	}
}

// BackendHealth is one worker's slice of the health report.
type BackendHealth struct {
	Worker      int    `json:"worker"`
	Backend     string `json:"backend"`
	Breaker     string `json:"breaker"`
	Quarantined bool   `json:"quarantined"`
	Panics      uint64 `json:"panics"`
	Restarts    uint64 `json:"restarts"`
	// SDCDetected counts silent data corruptions attributed to this worker
	// (ABFT-repaired GEMM flips and failed re-encode audits); the quarantine
	// budget is charged from the same stream.
	SDCDetected uint64 `json:"sdc_detected"`
}

// HealthReport is the full /healthz body. Epoch and Instance identify this
// scheduler incarnation (see Scheduler.Identity); a cluster front end
// watches them to detect shard restarts.
type HealthReport struct {
	Status   string          `json:"status"`
	Epoch    int64           `json:"epoch"`
	Instance string          `json:"instance"`
	Backends []BackendHealth `json:"backends,omitempty"`
	// SDCDetected totals worker-attributed silent-corruption detections —
	// the cluster front end folds it into per-shard health.
	SDCDetected uint64 `json:"sdc_detected"`
}

// Health grades the scheduler: draining once Close has begun, unhealthy when
// every backend is quarantined, degraded when any backend is quarantined or
// behind a non-closed breaker, ok otherwise.
func (s *Scheduler) Health() (HealthState, HealthReport) {
	s.admit.RLock()
	draining := s.closed
	s.admit.RUnlock()
	backends := make([]BackendHealth, len(s.workers))
	quarantined, impaired := 0, 0
	var sdcTotal uint64
	for i, w := range s.workers {
		bs := w.breaker.State()
		q := w.quarantined.Load()
		sdc := w.sdcDetected.Load()
		backends[i] = BackendHealth{
			Worker:      w.id,
			Backend:     w.backend().Name(),
			Breaker:     bs.String(),
			Quarantined: q,
			Panics:      w.panics.Load(),
			Restarts:    w.restartCount.Load(),
			SDCDetected: sdc,
		}
		sdcTotal += sdc
		if q {
			quarantined++
		}
		if q || bs != resilience.BreakerClosed {
			impaired++
		}
	}
	state := HealthOK
	switch {
	case draining:
		state = HealthDraining
	case len(s.workers) > 0 && quarantined == len(s.workers):
		state = HealthUnhealthy
	case impaired > 0:
		state = HealthDegraded
	}
	return state, HealthReport{
		Status: state.String(), Epoch: s.epoch, Instance: s.instance,
		Backends: backends, SDCDetected: sdcTotal,
	}
}

// batchOutcome is the resilience telemetry of one dispatched batch.
type batchOutcome struct {
	// fallbackReason is non-empty when the batch was answered by the linear
	// fallback; it is the DegradedBy every frame carries.
	fallbackReason string
	retries        int
	panics         int
	wedges         int
	sdcAudits      int // attempts rejected by the re-encode integrity audit
	hedged         bool
	restarted      bool
	quarantined    bool // the batch tripped this worker into quarantine
}

// annotations renders the outcome as trace-frame markers.
func (oc batchOutcome) annotations() []string {
	var a []string
	if oc.retries > 0 {
		a = append(a, "retried")
	}
	if oc.hedged {
		a = append(a, "hedged")
	}
	if oc.fallbackReason != "" {
		a = append(a, "shed:"+oc.fallbackReason)
	}
	return a
}

// attemptResult carries one primary decode attempt across goroutines.
type attemptResult struct {
	rep *core.BatchReport
	err error
}

// checkReport guards against garbage and corrupted outputs: a "successful"
// decode must cover every input with a finite, non-empty decision
// (errGarbage otherwise), and — when audit is set — each result's metric
// must equal ‖y − H·ŝ‖² recomputed from the original inputs within rounding
// (errIntegrityAudit otherwise). Every served decode is an ℓ² search, so
// the re-encode audit is exact-ℓ² or, under the DisableAudit escape hatch,
// off. Both sentinels are transient, so the caller retries within budget
// and then answers from the fallback; a corrupted result is never served
// as exact. The ŝ finiteness check matters:
// a NaN symbol vector yields a NaN residual, and every comparison against
// NaN is false, so without it corruption would sail through the audit.
func checkReport(rep *core.BatchReport, inputs []core.BatchInput, audit bool) error {
	if rep == nil || len(rep.Results) != len(inputs) {
		return errGarbage
	}
	var scratch cmatrix.Vector
	if audit && len(inputs) > 0 {
		scratch = make(cmatrix.Vector, inputs[0].H.Rows)
	}
	for i, res := range rep.Results {
		if res == nil || len(res.SymbolIdx) == 0 ||
			math.IsNaN(res.Metric) || math.IsInf(res.Metric, 0) {
			return errGarbage
		}
		if !audit {
			continue
		}
		in := inputs[i]
		if len(res.Symbols) != in.H.Cols || !res.Symbols.IsFinite() {
			return errGarbage
		}
		audit := integrity.ReEncode(in.H, in.Y, res.Symbols, scratch)
		if aerr := audit.CheckExactL2(res.Metric); aerr != nil {
			return fmt.Errorf("%w (frame %d): %w", errIntegrityAudit, i, aerr)
		}
	}
	return nil
}

// basePolicyer is the optional Backend facet exposing the decode policy the
// backend defaults to when no per-batch override is supplied
// (core.Accelerator implements it); its Strategy is the engine the server
// serves.
type basePolicyer interface {
	BasePolicy() core.DecodePolicy
}

// noteWorkerSDC attributes n detected silent corruptions to w: the worker's
// counter feeds /healthz, and each detection spends one token of the SDC
// quarantine budget — exhaustion quarantines the worker, because hardware
// that keeps flipping bits has failed even when every flip was caught.
// Reports false once the worker is quarantined. Callers must not hold s.m.mu.
func (s *Scheduler) noteWorkerSDC(w *workerCtl, n int) bool {
	if n <= 0 {
		return !w.quarantined.Load()
	}
	w.sdcDetected.Add(uint64(n))
	for range n {
		if !w.sdcBudget.AllowRestart() {
			if !w.quarantined.Swap(true) {
				s.m.mu.Lock()
				s.m.quarantines++
				s.m.mu.Unlock()
			}
			return false
		}
	}
	return !w.quarantined.Load()
}

// attempt runs one primary decode on w's backend under the recovery barrier.
// With no hedge/wedge timers armed it is a plain inline call (no goroutine —
// the disabled-path cost the benchmarks pin). With timers armed the decode
// runs on a goroutine; on timeout the backend is abandoned (marked lost, its
// eventual outcome drained into the breaker) and a sentinel error returned.
func (s *Scheduler) attempt(w *workerCtl, ticket resilience.Ticket, inputs []core.BatchInput, opts []core.BatchOption) (*core.BatchReport, error) {
	rcfg := s.rcfg
	if rcfg.HedgeAfter <= 0 && rcfg.WedgeTimeout <= 0 {
		var rep *core.BatchReport
		err := resilience.Recover(func() error {
			var e error
			rep, e = w.be.DecodeBatch(inputs, opts...)
			return e
		})
		if err == nil {
			err = checkReport(rep, inputs, !rcfg.DisableAudit)
		}
		return rep, err
	}

	be := w.be
	ch := make(chan attemptResult, 1)
	go func() {
		var rep *core.BatchReport
		err := resilience.Recover(func() error {
			var e error
			rep, e = be.DecodeBatch(inputs, opts...)
			return e
		})
		ch <- attemptResult{rep, err}
	}()

	var hedgeC, wedgeC <-chan time.Time
	if rcfg.HedgeAfter > 0 {
		t := time.NewTimer(rcfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	if rcfg.WedgeTimeout > 0 {
		t := time.NewTimer(rcfg.WedgeTimeout)
		defer t.Stop()
		wedgeC = t.C
	}
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				r.err = checkReport(r.rep, inputs, !rcfg.DisableAudit)
			}
			return r.rep, r.err
		case <-hedgeC:
			hedgeC = nil // one shot; fall through to waiting if not hedging
			if !s.hedgeBudget.Spend() {
				continue
			}
			s.abandonPrimary(w, ticket, ch, inputs)
			return nil, errHedged
		case <-wedgeC:
			s.abandonPrimary(w, ticket, ch, inputs)
			return nil, errWedged
		}
	}
}

// abandonPrimary detaches a still-running decode from its worker: the
// backend is marked lost (replaced before next use) and a drain goroutine
// feeds the decode's eventual outcome into the breaker, on the ticket that
// admitted it, so an abandoned-but-healthy backend still earns its way back
// to closed.
func (s *Scheduler) abandonPrimary(w *workerCtl, ticket resilience.Ticket, ch <-chan attemptResult, inputs []core.BatchInput) {
	w.mu.Lock()
	w.beLost = true
	w.mu.Unlock()
	go func() {
		r := <-ch
		if r.err == nil {
			r.err = checkReport(r.rep, inputs, !s.rcfg.DisableAudit)
		}
		if r.err == nil {
			w.breaker.Success(ticket)
			s.m.mu.Lock()
			s.m.hedgeWaste++
			s.m.mu.Unlock()
		} else {
			w.breaker.Failure(ticket)
			if errors.Is(r.err, errIntegrityAudit) {
				// The abandoned result was never served, so the corruption is
				// trivially recovered — but it still counts against the
				// worker's hardware trustworthiness.
				s.noteWorkerSDC(w, 1)
				s.m.mu.Lock()
				s.m.sdcDetected[integrity.SiteMetricAudit]++
				s.m.sdcRecovered++
				s.m.mu.Unlock()
			}
		}
	}()
}

// ensureBackend replaces a lost backend before reuse. Reports false when the
// rebuild failed and the worker had to be quarantined.
func (s *Scheduler) ensureBackend(w *workerCtl) bool {
	w.mu.Lock()
	lost := w.beLost
	w.mu.Unlock()
	if !lost {
		return true
	}
	return s.restartBackend(w)
}

// restartBackend rebuilds w's backend from the factory (re-applying the
// worker wrapper) if the restart budget allows, quarantining the worker
// otherwise. Returns false on quarantine.
func (s *Scheduler) restartBackend(w *workerCtl) bool {
	if w.quarantined.Load() {
		return false
	}
	quarantine := func() bool {
		w.quarantined.Store(true)
		s.m.mu.Lock()
		s.m.quarantines++
		s.m.mu.Unlock()
		return false
	}
	if !w.restarts.AllowRestart() {
		return quarantine()
	}
	be, err := s.factory()
	if err != nil {
		return quarantine()
	}
	if s.cfg.WrapWorker != nil {
		be = s.cfg.WrapWorker(w.id, be)
	}
	w.mu.Lock()
	w.be = be
	w.beLost = false
	w.mu.Unlock()
	w.restartCount.Add(1)
	s.m.mu.Lock()
	s.m.restarts++
	s.m.mu.Unlock()
	return true
}

// fallbackBatch answers a whole batch from the serialized linear fallback
// backend — the same shed path overload uses, so a broken accelerator costs
// quality, never availability. Every result carries QualityFallback with the
// given reason.
func (s *Scheduler) fallbackBatch(inputs []core.BatchInput, reason string) (*core.BatchReport, error) {
	rep := &core.BatchReport{Results: make([]*decoder.Result, len(inputs))}
	s.shedMu.Lock()
	defer s.shedMu.Unlock()
	for i, in := range inputs {
		res, err := s.shedBE.DecodeFallback(in)
		if err != nil {
			return nil, fmt.Errorf("serve: fallback decode: %w", err)
		}
		res.DegradedBy = reason
		rep.Results[i] = res
		rep.Counters.Add(res.Counters)
	}
	return rep, nil
}

// decodeResilient is the supervised decode path: breaker routing, panic
// recovery with restart/quarantine, budgeted retries, hedged/wedged
// abandonment — and, when everything is exhausted, the linear fallback, so
// the batch is always answered (or typed-rejected on a permanent error).
func (s *Scheduler) decodeResilient(w *workerCtl, inputs []core.BatchInput, opts []core.BatchOption) (*core.BatchReport, batchOutcome, error) {
	var oc batchOutcome
	if s.rcfg.Disable {
		rep, err := w.be.DecodeBatch(inputs, opts...)
		return rep, oc, err
	}

	shed := func(reason string) (*core.BatchReport, batchOutcome, error) {
		oc.fallbackReason = reason
		rep, err := s.fallbackBatch(inputs, reason)
		return rep, oc, err
	}

	if w.quarantined.Load() {
		return shed(DegradedByQuarantine)
	}
	ticket, allowed := w.breaker.Allow()
	if !allowed {
		return shed(DegradedByBreaker)
	}

	maxAttempts := 1 + s.rcfg.RetryMax
	probe := ticket.Probe()
	if probe {
		// The half-open probe gets exactly one shot: its outcome decides
		// the breaker, and burning retries on a likely-broken backend
		// defeats the point of failing fast.
		maxAttempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if !s.ensureBackend(w) {
			oc.quarantined = true
			return shed(DegradedByQuarantine)
		}
		rep, err := s.attempt(w, ticket, inputs, opts)
		if err == nil {
			w.breaker.Success(ticket)
			s.retryBudget.Earn(1)
			s.hedgeBudget.Earn(1)
			return rep, oc, nil
		}
		lastErr = err

		switch {
		case errors.Is(err, errHedged):
			// Not a verdict on the backend: the drain goroutine settles the
			// breaker when the primary finishes. Answer from the fallback now.
			oc.hedged = true
			return shed(DegradedByHedge)
		case errors.Is(err, errWedged):
			oc.wedges++
			w.breaker.Failure(ticket)
			if !s.restartBackend(w) {
				oc.quarantined = true
				return shed(DegradedByQuarantine)
			}
			oc.restarted = true
			// A wedge already cost WedgeTimeout; retrying risks another.
			return shed(DegradedByWedge)
		case errors.Is(err, resilience.ErrWorkerPanic):
			oc.panics++
			w.panics.Add(1)
			w.breaker.Failure(ticket)
			var pe *resilience.PanicError
			if errors.As(err, &pe) {
				s.recordPanic(w.id, pe)
			}
			if !s.restartBackend(w) {
				oc.quarantined = true
				return shed(DegradedByQuarantine)
			}
			oc.restarted = true
		case errors.Is(err, errIntegrityAudit):
			// Detected silent corruption on the result path: count it, debit
			// the worker's SDC quarantine allowance, and retry within budget —
			// a transient flip clears, failing hardware repeats until it
			// exhausts the allowance.
			oc.sdcAudits++
			w.breaker.Failure(ticket)
			if !s.noteWorkerSDC(w, 1) {
				oc.quarantined = true
				return shed(DegradedByQuarantine)
			}
		case resilience.Transient(err):
			w.breaker.Failure(ticket)
		default:
			// Permanent error: a typed rejection is the honest answer, and
			// retrying cannot change it.
			w.breaker.Failure(ticket)
			return nil, oc, err
		}

		if probe || attempt+1 >= maxAttempts {
			break
		}
		if !s.retryBudget.Spend() {
			s.m.mu.Lock()
			s.m.retryBudgetExhausted++
			s.m.mu.Unlock()
			break
		}
		oc.retries++
		time.Sleep(s.backoff.Delay(attempt))
	}

	// Primary exhausted: absorb the fault into the fallback.
	reason := DegradedByTransient
	switch {
	case errors.Is(lastErr, resilience.ErrWorkerPanic):
		reason = DegradedByPanic
	case errors.Is(lastErr, errIntegrityAudit):
		reason = DegradedByIntegrity
	}
	return shed(reason)
}

// recordPanic stores the most recent recovered panic (stack included) for
// diagnostics and counts it.
func (s *Scheduler) recordPanic(worker int, pe *resilience.PanicError) {
	s.m.mu.Lock()
	s.m.panics++
	s.m.lastPanic = fmt.Sprintf("worker %d: %v\n%s", worker, pe.Value, pe.Stack)
	s.m.mu.Unlock()
}
