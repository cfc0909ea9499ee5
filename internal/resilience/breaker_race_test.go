package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakerHalfOpenSingleProbeExclusivity hammers Allow from many
// goroutines against a breaker whose cooldown has elapsed and asserts the
// half-open contract under contention: at any instant at most ONE admitted,
// unresolved probe exists. Every admitted probe is resolved (randomly
// success or failure) after a tracked critical section; a second concurrent
// probe admission inside that section is the exact bug the breaker's
// probing flag exists to prevent, because two probes mean the backend takes
// double the traffic it was promised while half-open.
func TestBreakerHalfOpenSingleProbeExclusivity(t *testing.T) {
	var fake atomic.Int64 // fake clock, ns
	cfg := BreakerConfig{
		FailureThreshold: 1,
		CooldownBase:     time.Millisecond,
		CooldownCap:      time.Millisecond,
		now:              func() time.Time { return time.Unix(0, fake.Load()) },
	}
	b := NewBreaker(cfg)
	b.Failure(mustAllow(t, b)) // trip it
	if b.State() != BreakerOpen {
		t.Fatal("breaker not open after threshold failures")
	}

	var (
		inProbe    atomic.Int64 // unresolved admitted probes right now
		maxProbe   atomic.Int64 // high-water mark — must never exceed 1
		probes     atomic.Int64
		nonProbeOK atomic.Int64
	)
	const goroutines = 16
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// March the fake clock past the cooldown so open states keep
				// converting into probe opportunities throughout the hammer.
				fake.Add(int64(100 * time.Microsecond))
				ticket, ok := b.Allow()
				if !ok {
					continue
				}
				if !ticket.Probe() {
					// Closed-state admission: resolve as a success (keeps the
					// breaker cycling between closed and open via the
					// occasional failure below).
					nonProbeOK.Add(1)
					if i%7 == 0 {
						b.Failure(ticket)
					} else {
						b.Success(ticket)
					}
					continue
				}
				probes.Add(1)
				cur := inProbe.Add(1)
				for {
					m := maxProbe.Load()
					if cur <= m || maxProbe.CompareAndSwap(m, cur) {
						break
					}
				}
				// Stretch the probe's critical section so a buggy breaker
				// would have ample room to admit a second probe.
				for spin := 0; spin < 50; spin++ {
					fake.Add(int64(time.Millisecond))
					if t2, ok2 := b.Allow(); ok2 && t2.Probe() {
						t.Errorf("second probe admitted while one was unresolved")
					} else if ok2 {
						t.Errorf("non-probe traffic admitted while half-open")
					}
				}
				inProbe.Add(-1)
				if i%2 == 0 {
					b.Success(ticket)
				} else {
					b.Failure(ticket)
				}
			}
		}(g)
	}
	wg.Wait()

	if got := maxProbe.Load(); got > 1 {
		t.Fatalf("probe concurrency high-water mark %d, want at most 1", got)
	}
	if probes.Load() == 0 {
		t.Fatal("hammer never admitted a probe — the scenario did not exercise half-open")
	}
	c := b.Counters()
	if c.Probes == 0 || c.ShortCircuited == 0 {
		t.Fatalf("counters show no contention: %+v", c)
	}
}

// TestBreakerProbeHandoff: when a probe resolves while the breaker is
// half-open, the next Allow must become the new probe — the probing flag
// must hand over cleanly rather than wedge the breaker half-open forever.
func TestBreakerProbeHandoff(t *testing.T) {
	var fake atomic.Int64
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 1,
		CooldownBase:     time.Millisecond,
		CooldownCap:      time.Millisecond,
		now:              func() time.Time { return time.Unix(0, fake.Load()) },
	})
	b.Failure(mustAllow(t, b))
	fake.Add(int64(2 * time.Millisecond))
	probe, ok := b.Allow()
	if !ok || !probe.Probe() {
		t.Fatalf("Allow after cooldown = (%v, %v), want probe admission", ok, probe.Probe())
	}
	b.Failure(probe) // probe fails: re-open with longer cooldown
	if b.State() != BreakerOpen {
		t.Fatal("breaker not re-open after failed probe")
	}
	fake.Add(int64(10 * time.Millisecond))
	probe, ok = b.Allow()
	if !ok || !probe.Probe() {
		t.Fatalf("no fresh probe after re-open cooldown: (%v, %v)", ok, probe.Probe())
	}
	b.Success(probe)
	if b.State() != BreakerClosed {
		t.Fatal("breaker not closed after successful probe")
	}
	if c := b.Counters(); c.Reclosed != 1 || c.Probes != 2 {
		t.Fatalf("counters %+v, want 2 probes and 1 reclose", c)
	}
}

// TestBreakerStaleTicketIgnored: an outcome reported on a ticket from an
// earlier breaker state must not move the breaker. A call admitted while
// closed that finishes after the breaker tripped and went half-open would
// otherwise close it with the real probe still in flight.
func TestBreakerStaleTicketIgnored(t *testing.T) {
	var fake atomic.Int64
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 1,
		CooldownBase:     time.Millisecond,
		CooldownCap:      time.Millisecond,
		now:              func() time.Time { return time.Unix(0, fake.Load()) },
	})
	slow := mustAllow(t, b)
	b.Failure(mustAllow(t, b))
	fake.Add(int64(2 * time.Millisecond))
	probe := mustAllow(t, b)
	if !probe.Probe() {
		t.Fatal("no probe after cooldown")
	}
	b.Success(slow)
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("stale success moved the breaker to %v", st)
	}
	b.Failure(slow)
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("stale failure moved the breaker to %v", st)
	}
	b.Success(probe)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("probe success left the breaker %v", st)
	}
	// The probe's ticket is spent: reporting it again changes nothing.
	b.Failure(probe)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("replayed probe ticket moved the breaker to %v", st)
	}
}
