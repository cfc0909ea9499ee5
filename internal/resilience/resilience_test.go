package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for breaker/restart tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(threshold int, base, cap time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{
		FailureThreshold: threshold,
		CooldownBase:     base,
		CooldownCap:      cap,
		now:              clk.now,
	})
	return b, clk
}

// mustAllow returns the ticket of a call b admits, failing the test if b
// refuses it.
func mustAllow(t *testing.T, b *Breaker) Ticket {
	t.Helper()
	ticket, ok := b.Allow()
	if !ok {
		t.Fatalf("breaker in state %v refused a call", b.State())
	}
	return ticket
}

func TestBreakerLifecycle(t *testing.T) {
	b, clk := newTestBreaker(3, 100*time.Millisecond, time.Second)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("initial state %v", st)
	}
	// Failures below threshold keep it closed; a success resets the count.
	b.Failure(mustAllow(t, b))
	b.Failure(mustAllow(t, b))
	b.Success(mustAllow(t, b))
	b.Failure(mustAllow(t, b))
	b.Failure(mustAllow(t, b))
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state %v after interrupted failure run, want closed", st)
	}
	// Third consecutive failure trips it.
	b.Failure(mustAllow(t, b))
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state %v after threshold failures, want open", st)
	}
	if _, ok := b.Allow(); ok {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	// After the cooldown (cap bounds it at 1s) the next Allow is the probe.
	clk.advance(time.Second)
	probe, ok := b.Allow()
	if !ok || !probe.Probe() {
		t.Fatalf("Allow after cooldown = (%v, %v), want probe admission", ok, probe.Probe())
	}
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("state %v during probe, want half-open", st)
	}
	// While the probe is in flight everything else is short-circuited.
	if _, ok := b.Allow(); ok {
		t.Fatal("half-open breaker admitted a second call during the probe")
	}
	// Probe failure re-opens; probe success after another cooldown closes.
	b.Failure(probe)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state %v after probe failure, want open", st)
	}
	clk.advance(time.Second)
	probe, ok = b.Allow()
	if !ok || !probe.Probe() {
		t.Fatal("no second probe after re-open cooldown")
	}
	b.Success(probe)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state %v after probe success, want closed", st)
	}
	c := b.Counters()
	if c.Opened != 2 || c.Probes != 2 || c.Reclosed != 1 || c.ShortCircuited != 2 {
		t.Fatalf("counters %+v", c)
	}
}

// TestBreakerJitterBounds: every open dwell must lie in [base, cap], and
// repeated re-opens must not exceed the cap (decorrelated jitter growth is
// bounded).
func TestBreakerJitterBounds(t *testing.T) {
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	b, clk := newTestBreaker(1, base, cap)
	ticket := mustAllow(t, b)
	for i := 0; i < 50; i++ {
		b.Failure(ticket) // trips (threshold 1) or fails the probe
		b.mu.Lock()
		d := b.cooldown
		b.mu.Unlock()
		if d < base || d > cap {
			t.Fatalf("re-open %d: cooldown %v outside [%v, %v]", i, d, base, cap)
		}
		clk.advance(cap)
		var ok bool
		if ticket, ok = b.Allow(); !ok || !ticket.Probe() {
			t.Fatalf("re-open %d: no probe after cap dwell", i)
		}
	}
}

func TestBreakerConcurrentProbeExclusive(t *testing.T) {
	b, clk := newTestBreaker(1, time.Millisecond, time.Millisecond)
	b.Failure(mustAllow(t, b))
	clk.advance(time.Millisecond)
	var probes int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ticket, ok := b.Allow(); ok && ticket.Probe() {
				mu.Lock()
				probes++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if probes != 1 {
		t.Fatalf("%d concurrent probes admitted, want exactly 1", probes)
	}
}

func TestBreakerStateRoundTrip(t *testing.T) {
	for _, st := range []BreakerState{BreakerClosed, BreakerOpen, BreakerHalfOpen} {
		got, err := ParseBreakerState(st.String())
		if err != nil || got != st {
			t.Errorf("ParseBreakerState(%q) = %v, %v", st.String(), got, err)
		}
	}
	if s := BreakerState(42).String(); s != "BreakerState(42)" {
		t.Errorf("unknown state renders %q", s)
	}
	if _, err := ParseBreakerState("ajar"); err == nil {
		t.Error("ParseBreakerState accepted garbage")
	}
}

func TestRecover(t *testing.T) {
	if err := Recover(func() error { return nil }); err != nil {
		t.Fatalf("clean call: %v", err)
	}
	sentinel := errors.New("boom")
	if err := Recover(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("error passthrough: %v", err)
	}
	err := Recover(func() error { panic("injected crash") })
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("panic not typed: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not a *PanicError: %T", err)
	}
	if fmt.Sprint(pe.Value) != "injected crash" {
		t.Fatalf("panic value %v", pe.Value)
	}
	if !bytes.Contains(pe.Stack, []byte("resilience_test.go")) {
		t.Fatalf("stack does not name the panic site:\n%s", pe.Stack)
	}
}

func TestRestartBudget(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	rb := NewRestartBudget(2, time.Minute)
	rb.now = clk.now
	if !rb.AllowRestart() || !rb.AllowRestart() {
		t.Fatal("budget refused restarts inside the allowance")
	}
	if rb.AllowRestart() {
		t.Fatal("budget allowed a third restart inside the window")
	}
	// Old crashes age out of the sliding window.
	clk.advance(2 * time.Minute)
	if !rb.AllowRestart() {
		t.Fatal("budget refused a restart after the window slid")
	}
}

func TestTransientClassification(t *testing.T) {
	if Transient(nil) {
		t.Error("nil is transient")
	}
	if Transient(errors.New("plain")) {
		t.Error("plain error is transient")
	}
	if !Transient(fmt.Errorf("glitch: %w", ErrTransient)) {
		t.Error("wrapped ErrTransient not transient")
	}
	if !Transient(transientish{}) {
		t.Error("Transient() bool interface not honoured")
	}
}

type transientish struct{}

func (transientish) Error() string   { return "transientish" }
func (transientish) Transient() bool { return true }

func TestBudget(t *testing.T) {
	b := NewBudget(0.5, 2) // starts full: 2 tokens banked
	if !b.Spend() || !b.Spend() {
		t.Fatal("full budget refused its burst")
	}
	if b.Spend() {
		t.Fatal("empty budget granted a token")
	}
	b.Earn(1) // +0.5 — still below one token
	if b.Spend() {
		t.Fatal("half a token spent")
	}
	b.Earn(1) // 1.0
	if !b.Spend() {
		t.Fatal("earned token refused")
	}
	b.Earn(1000) // capped at burst
	if !b.Spend() || !b.Spend() {
		t.Fatal("burst cap not reachable")
	}
	if b.Spend() {
		t.Fatal("cap exceeded")
	}
	// Disabled budgets never grant; nil receivers are safe no-ops.
	off := NewBudget(0, 5)
	if off.Spend() {
		t.Fatal("disabled budget granted a token")
	}
	var nilBudget *Budget
	nilBudget.Earn(3)
	if nilBudget.Spend() {
		t.Fatal("nil budget granted a token")
	}
}

func TestBackoffBounds(t *testing.T) {
	base, cap := time.Millisecond, 8*time.Millisecond
	b := NewBackoff(base, cap, 7)
	for attempt := 0; attempt < 70; attempt++ { // high attempts exercise shift overflow
		d := b.Delay(attempt)
		ceil := cap
		if attempt < 3 { // 1ms<<3 = 8ms = cap
			ceil = base << uint(attempt)
		}
		if d < 0 || d > ceil {
			t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, d, ceil)
		}
	}
}
