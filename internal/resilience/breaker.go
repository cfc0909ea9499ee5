// Package resilience supplies the self-healing primitives the serving layer
// composes around its decode workers: a per-backend circuit breaker, panic
// recovery into typed errors with captured stacks, restart/quarantine
// budgets, and token budgets for retries and hedged requests.
//
// The design philosophy mirrors the fixed-complexity detectors the paper's
// related work trades exactness for: bounded failure domains and predictable
// degradation beat occasional perfection. A broken accelerator must cost the
// node one worker's throughput, never the process; a fault storm must cost a
// bounded number of retries, never an amplified one.
//
// Everything here is deliberately free of serving-layer types so the same
// primitives can guard any backend-shaped dependency.
package resilience

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/rng"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes traffic through and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails fast: traffic is routed around the backend until a
	// jittered cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe; its outcome decides between
	// closing again and re-opening with a longer cooldown.
	BreakerHalfOpen
)

// String names the state as used in health reports and metrics.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// ParseBreakerState is the inverse of String.
func ParseBreakerState(s string) (BreakerState, error) {
	switch s {
	case "closed":
		return BreakerClosed, nil
	case "open":
		return BreakerOpen, nil
	case "half-open":
		return BreakerHalfOpen, nil
	default:
		return 0, fmt.Errorf("resilience: unknown breaker state %q (want closed, open, half-open)", s)
	}
}

// BreakerConfig tunes a Breaker. The zero value is usable: defaults fill in.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips a closed
	// breaker open. Default 5.
	FailureThreshold int
	// CooldownBase is the minimum open dwell before a half-open probe.
	// Default 100ms.
	CooldownBase time.Duration
	// CooldownCap bounds the decorrelated-jitter growth of repeated
	// re-opens. Default 5s.
	CooldownCap time.Duration
	// Seed drives the jitter stream (deterministic per breaker). Zero is a
	// valid seed.
	Seed uint64
	// now overrides time.Now in tests.
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.CooldownBase <= 0 {
		c.CooldownBase = 100 * time.Millisecond
	}
	if c.CooldownCap <= 0 {
		c.CooldownCap = 5 * time.Second
	}
	if c.CooldownCap < c.CooldownBase {
		c.CooldownCap = c.CooldownBase
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// BreakerCounters is a snapshot of a breaker's transition history.
type BreakerCounters struct {
	// Opened counts closed→open and half-open→open trips.
	Opened uint64 `json:"opened"`
	// Probes counts open→half-open transitions (probe admissions).
	Probes uint64 `json:"probes"`
	// Reclosed counts half-open→closed recoveries.
	Reclosed uint64 `json:"reclosed"`
	// ShortCircuited counts calls refused while open (or while a half-open
	// probe was already in flight).
	ShortCircuited uint64 `json:"short_circuited"`
}

// Breaker is a three-state circuit breaker with decorrelated-jitter
// cooldowns. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     BreakerState
	gen       uint64        // bumped on every state change; stamps tickets
	failures  int           // consecutive failures while closed
	openedAt  time.Time     // when the breaker last opened
	cooldown  time.Duration // current open dwell
	prevSleep time.Duration // decorrelated-jitter state
	jitter    *rng.Rand
	counters  BreakerCounters
}

// Ticket is one admission issued by Allow, stamped with the breaker state
// it was issued in. Its outcome is reported with Success or Failure; an
// outcome whose ticket predates the breaker's current state is ignored, so
// a call admitted while closed cannot resolve a later half-open probe.
type Ticket struct {
	gen   uint64
	probe bool
}

// Probe reports whether the ticket admits the half-open probe whose outcome
// decides the breaker's fate.
func (t Ticket) Probe() bool { return t.probe }

// NewBreaker builds a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, jitter: rng.New(cfg.Seed), prevSleep: cfg.CooldownBase}
}

// Allow reports whether a call may proceed and, if so, issues its ticket.
// A probe ticket MUST be reported via Success or Failure, or the breaker
// stays half-open forever.
func (b *Breaker) Allow() (Ticket, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return Ticket{gen: b.gen}, true
	case BreakerOpen:
		if b.cfg.now().Sub(b.openedAt) >= b.cooldown {
			b.setState(BreakerHalfOpen)
			b.counters.Probes++
			return Ticket{gen: b.gen, probe: true}, true
		}
	}
	// Open within its cooldown, or half-open with the probe in flight.
	b.counters.ShortCircuited++
	return Ticket{}, false
}

// Success records a successful call. A half-open probe success closes the
// breaker and resets the jitter growth.
func (b *Breaker) Success(t Ticket) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t.gen != b.gen {
		return
	}
	switch b.state {
	case BreakerClosed:
		b.failures = 0
	case BreakerHalfOpen:
		b.setState(BreakerClosed)
		b.failures = 0
		b.prevSleep = b.cfg.CooldownBase
		b.counters.Reclosed++
	}
}

// Failure records a failed call. Enough consecutive closed-state failures
// trip the breaker; a half-open probe failure re-opens it with a longer,
// decorrelated-jittered cooldown.
func (b *Breaker) Failure(t Ticket) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t.gen != b.gen {
		return
	}
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.trip()
	}
}

// setState moves to st and invalidates every outstanding ticket. Callers
// hold b.mu.
func (b *Breaker) setState(st BreakerState) {
	b.state = st
	b.gen++
}

// trip moves to open with the next decorrelated-jitter cooldown:
// sleep = min(cap, uniform(base, 3·prevSleep)). Callers hold b.mu.
func (b *Breaker) trip() {
	b.setState(BreakerOpen)
	b.openedAt = b.cfg.now()
	b.failures = 0
	lo, hi := b.cfg.CooldownBase, 3*b.prevSleep
	if hi < lo {
		hi = lo
	}
	d := lo + time.Duration(b.jitter.Float64()*float64(hi-lo))
	if d > b.cfg.CooldownCap {
		d = b.cfg.CooldownCap
	}
	b.cooldown = d
	b.prevSleep = d
	b.counters.Opened++
}

// State returns the breaker's current position. An open breaker whose
// cooldown has elapsed still reports open until the next Allow admits the
// probe.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Counters returns a snapshot of the transition history.
func (b *Breaker) Counters() BreakerCounters {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counters
}
