package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/constellation"
	"repro/internal/mimo"
	"repro/internal/rng"
	"repro/internal/serve"
)

// testMIMO matches the serve test system: 4x4 QPSK.
var testMIMO = mimo.Config{Tx: 4, Rx: 4, Mod: constellation.QAM4, Convention: channel.PerTransmitSymbol}

var testFallback = FallbackSpec{Tx: 4, Rx: 4, Modulation: "qpsk"}

// toWire converts a generated frame to the wire request form.
func toWire(f *mimo.Frame) *serve.DecodeRequest {
	req := &serve.DecodeRequest{NoiseVar: f.NoiseVar}
	for i := 0; i < f.H.Rows; i++ {
		row := make([][2]float64, f.H.Cols)
		for j, c := range f.H.Row(i) {
			row[j] = [2]float64{real(c), imag(c)}
		}
		req.H = append(req.H, row)
	}
	for _, c := range f.Y {
		req.Y = append(req.Y, [2]float64{real(c), imag(c)})
	}
	return req
}

// genFrames draws deterministic wire frames.
func genFrames(t *testing.T, n int, seed uint64) []*mimo.Frame {
	t.Helper()
	r := rng.New(seed)
	out := make([]*mimo.Frame, n)
	for i := range out {
		f, err := mimo.GenerateFrame(r, testMIMO, 14)
		if err != nil {
			t.Fatalf("GenerateFrame: %v", err)
		}
		out[i] = f
	}
	return out
}

// stubShard is a scripted sdserver stand-in: canned decode answers, a
// settable health identity, and a ledger of what reached it.
type stubShard struct {
	srv     *httptest.Server
	decodes atomic.Uint64

	epoch    atomic.Int64
	instance atomic.Pointer[string]
	status   atomic.Pointer[string]

	// decodeStatus != 0 makes /v1/decode answer that HTTP status with
	// decodeCode instead of a canned success.
	decodeStatus atomic.Int32
	decodeCode   atomic.Pointer[string]
	// stallFor > 0 delays each decode answer.
	stallFor atomic.Int64
}

func newStubShard(t *testing.T, epoch int64, instance string) *stubShard {
	t.Helper()
	s := &stubShard{}
	s.epoch.Store(epoch)
	s.instance.Store(&instance)
	ok := "ok"
	s.status.Store(&ok)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(serve.HealthReport{
			Status: *s.status.Load(), Epoch: s.epoch.Load(), Instance: *s.instance.Load(),
		})
	})
	mux.HandleFunc("POST /v1/decode", func(w http.ResponseWriter, r *http.Request) {
		s.decodes.Add(1)
		if d := s.stallFor.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		if st := s.decodeStatus.Load(); st != 0 {
			code := ""
			if c := s.decodeCode.Load(); c != nil {
				code = *c
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(int(st))
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "scripted failure", "code": code})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(serve.DecodeResponse{
			APIVersion: serve.APIVersion, SymbolIndices: []int{0, 1, 2, 3},
			Bits: []int{0, 0, 0, 1, 1, 0, 1, 1}, Quality: "exact", BatchSize: 1,
		})
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

func (s *stubShard) fail(status int, code string) {
	s.decodeCode.Store(&code)
	s.decodeStatus.Store(int32(status))
}

func (s *stubShard) heal() { s.decodeStatus.Store(0) }

// newTestProxy builds a proxy over the stubs with test-friendly timings.
func newTestProxy(t *testing.T, stubs []*stubShard, mutate func(*Config)) *Proxy {
	t.Helper()
	urls := make([]string, len(stubs))
	for i, s := range stubs {
		urls[i] = s.srv.URL
	}
	cfg := Config{
		Shards:           urls,
		Replicas:         2,
		AttemptTimeout:   200 * time.Millisecond,
		ProbeInterval:    10 * time.Millisecond,
		DarkAfter:        2,
		FailureThreshold: 2,
		CooldownBase:     10 * time.Millisecond,
		CooldownCap:      20 * time.Millisecond,
		Fallback:         testFallback,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(p.Close)
	return p
}

// waitFor polls pred until it holds or the deadline passes.
func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAffinityRoutingSticksToOneShard: the same channel must always land on
// the same shard — that is the whole QR-cache locality story.
func TestAffinityRoutingSticksToOneShard(t *testing.T) {
	stubs := []*stubShard{newStubShard(t, 1, "a"), newStubShard(t, 1, "b"), newStubShard(t, 1, "c")}
	p := newTestProxy(t, stubs, nil)
	f := genFrames(t, 1, 21)[0]
	var servedBy string
	for i := 0; i < 12; i++ {
		resp, err := p.Decode(context.Background(), toWire(f))
		if err != nil {
			t.Fatalf("Decode %d: %v", i, err)
		}
		if resp.Fallback || resp.FailedOver {
			t.Fatalf("Decode %d took the degraded path with all shards healthy: %+v", i, resp)
		}
		if servedBy == "" {
			servedBy = resp.Shard
		} else if resp.Shard != servedBy {
			t.Fatalf("Decode %d served by %s, earlier by %s: affinity broken", i, resp.Shard, servedBy)
		}
	}
	touched := 0
	for _, s := range stubs {
		if s.decodes.Load() > 0 {
			touched++
		}
	}
	if touched != 1 {
		t.Fatalf("one channel touched %d shards, want 1", touched)
	}
}

// TestScatterRoutingSpreads: the baseline mode must not stick.
func TestScatterRoutingSpreads(t *testing.T) {
	stubs := []*stubShard{newStubShard(t, 1, "a"), newStubShard(t, 1, "b"), newStubShard(t, 1, "c")}
	p := newTestProxy(t, stubs, func(c *Config) { c.Routing = RoutingScatter })
	f := genFrames(t, 1, 21)[0]
	for i := 0; i < 12; i++ {
		if _, err := p.Decode(context.Background(), toWire(f)); err != nil {
			t.Fatalf("Decode %d: %v", i, err)
		}
	}
	for i, s := range stubs {
		if s.decodes.Load() == 0 {
			t.Fatalf("scatter routing never reached shard %d", i)
		}
	}
}

// TestFailoverToNextReplica: a 500ing primary must not surface to the
// client while a healthy replica exists.
func TestFailoverToNextReplica(t *testing.T) {
	stubs := []*stubShard{newStubShard(t, 1, "a"), newStubShard(t, 1, "b"), newStubShard(t, 1, "c")}
	p := newTestProxy(t, stubs, nil)
	f := genFrames(t, 1, 33)[0]

	// Find the primary for this channel, then break it.
	resp, err := p.Decode(context.Background(), toWire(f))
	if err != nil {
		t.Fatalf("warmup Decode: %v", err)
	}
	primary := resp.Shard
	for _, s := range stubs {
		if s.srv.URL == primary {
			s.fail(http.StatusInternalServerError, serve.CodeInternal)
		}
	}
	resp, err = p.Decode(context.Background(), toWire(f))
	if err != nil {
		t.Fatalf("Decode with broken primary: %v", err)
	}
	if !resp.FailedOver || resp.Shard == primary {
		t.Fatalf("expected failover off %s, got shard %s (failed_over=%v)", primary, resp.Shard, resp.FailedOver)
	}
	if got := p.Stats().Failovers; got == 0 {
		t.Fatalf("failovers = %d, want > 0", got)
	}
}

// TestPermanentErrorPropagates: a client error must not fail over or fall
// back — it would fail identically everywhere.
func TestPermanentErrorPropagates(t *testing.T) {
	stubs := []*stubShard{newStubShard(t, 1, "a"), newStubShard(t, 1, "b")}
	p := newTestProxy(t, stubs, nil)
	for _, s := range stubs {
		s.fail(http.StatusBadRequest, serve.CodeInvalidInput)
	}
	f := genFrames(t, 1, 44)[0]
	_, err := p.Decode(context.Background(), toWire(f))
	if err == nil {
		t.Fatal("a 400 from the shard must propagate, not be masked by fallback")
	}
	st := p.Stats()
	if st.Fallbacks != 0 {
		t.Fatalf("fallback fired on a permanent client error: %+v", st)
	}
	total := stubs[0].decodes.Load() + stubs[1].decodes.Load()
	if total != 1 {
		t.Fatalf("permanent error hit %d shards, want exactly 1 (no failover)", total)
	}
}

// TestAllReplicasDownFallsBackLocally is the zero-drop contract: every
// replica erroring still yields a valid answer, marked DegradedBy=cluster.
func TestAllReplicasDownFallsBackLocally(t *testing.T) {
	stubs := []*stubShard{newStubShard(t, 1, "a"), newStubShard(t, 1, "b")}
	p := newTestProxy(t, stubs, nil)
	for _, s := range stubs {
		s.fail(http.StatusInternalServerError, serve.CodeInternal)
	}
	f := genFrames(t, 1, 55)[0]
	resp, err := p.Decode(context.Background(), toWire(f))
	if err != nil {
		t.Fatalf("Decode with every replica down: %v", err)
	}
	if !resp.Fallback || resp.DegradedBy != DegradedByCluster {
		t.Fatalf("want local fallback with DegradedBy=%q, got %+v", DegradedByCluster, resp)
	}
	if len(resp.SymbolIndices) != testMIMO.Tx {
		t.Fatalf("fallback returned %d decisions for %d antennas", len(resp.SymbolIndices), testMIMO.Tx)
	}
	if st := p.Stats(); st.Fallbacks == 0 {
		t.Fatalf("fallback not recorded: %+v", st)
	}
}

// TestBreakerOpensAndSkips: repeated failures must open the shard's breaker
// so later frames stop paying the failed attempt.
func TestBreakerOpensAndSkips(t *testing.T) {
	stubs := []*stubShard{newStubShard(t, 1, "a"), newStubShard(t, 1, "b")}
	p := newTestProxy(t, stubs, nil)
	stubs[0].fail(http.StatusInternalServerError, serve.CodeInternal)
	stubs[1].fail(http.StatusInternalServerError, serve.CodeInternal)
	frames := genFrames(t, 8, 66)
	for _, f := range frames {
		if _, err := p.Decode(context.Background(), toWire(f)); err != nil {
			t.Fatalf("Decode: %v", err)
		}
	}
	st := p.Stats()
	if st.BreakerSkips == 0 {
		t.Fatalf("breakers never short-circuited a replica: %+v", st)
	}
	opened := false
	for _, si := range st.Shards {
		opened = opened || si.BreakerOpened > 0
	}
	if !opened {
		t.Fatalf("no shard breaker opened under sustained failure: %+v", st.Shards)
	}
}

// TestHedgingWinsOnSlowPrimary: a stalled primary must lose the race to the
// hedged replica once HedgeAfter passes.
func TestHedgingWinsOnSlowPrimary(t *testing.T) {
	stubs := []*stubShard{newStubShard(t, 1, "a"), newStubShard(t, 1, "b"), newStubShard(t, 1, "c")}
	p := newTestProxy(t, stubs, func(c *Config) {
		c.HedgeAfter = 5 * time.Millisecond
		c.HedgeBudget = 1
		c.AttemptTimeout = time.Second
	})
	f := genFrames(t, 1, 77)[0]
	if _, err := p.Decode(context.Background(), toWire(f)); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	// Stall the key's affinity primary, taken from the ring: the warmup's
	// winner need not be it, since a cold primary that overruns HedgeAfter
	// can lose the warmup to its own hedge.
	primary := p.candidates(f.H.Fingerprint())[0].id
	for _, s := range stubs {
		if s.srv.URL == primary {
			s.stallFor.Store(int64(300 * time.Millisecond))
		}
	}
	start := time.Now()
	resp2, err := p.Decode(context.Background(), toWire(f))
	if err != nil {
		t.Fatalf("Decode with stalled primary: %v", err)
	}
	if resp2.Shard == primary {
		t.Fatalf("stalled primary %s still won; hedge never fired", primary)
	}
	if !resp2.Hedged {
		t.Fatalf("response not marked hedged: %+v", resp2)
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Fatalf("hedged decode took %v, should beat the 300ms stall", took)
	}
	if st := p.Stats(); st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge ledger empty: %+v", st)
	}
}

// TestJoinLeaveReshapesRing: membership changes keep disruption near the
// fair share and the departed shard stops receiving traffic.
func TestJoinLeaveReshapesRing(t *testing.T) {
	stubs := []*stubShard{newStubShard(t, 1, "a"), newStubShard(t, 1, "b"), newStubShard(t, 1, "c")}
	p := newTestProxy(t, stubs, nil)
	extra := newStubShard(t, 1, "d")
	moved, err := p.Join(extra.srv.URL)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if moved <= 0 || moved > 1.6/4 {
		t.Fatalf("join moved %.3f of the keyspace, want in (0, %.3f]", moved, 1.6/4)
	}
	if _, err := p.Join(extra.srv.URL); err == nil {
		t.Fatal("double join must fail")
	}
	moved, err = p.Leave(context.Background(), extra.srv.URL)
	if err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if moved <= 0 || moved > 1.6/4 {
		t.Fatalf("leave moved %.3f of the keyspace, want in (0, %.3f]", moved, 1.6/4)
	}
	if _, err := p.Leave(context.Background(), extra.srv.URL); err == nil {
		t.Fatal("leaving a non-member must fail")
	}
	st := p.Stats()
	if st.Joins != 1 || st.Leaves != 1 || st.RingShards != 3 {
		t.Fatalf("membership ledger wrong: %+v", st)
	}
}

// TestRestartDetection: a shard coming back with a new epoch/instance must
// be counted — its caches are cold and affinity assumptions stale.
func TestRestartDetection(t *testing.T) {
	stubs := []*stubShard{newStubShard(t, 100, "aaaa"), newStubShard(t, 100, "bbbb")}
	p := newTestProxy(t, stubs, nil)
	waitFor(t, "first probes to land", func() bool {
		for _, si := range p.Stats().Shards {
			if si.Instance == "" {
				return false
			}
		}
		return true
	})
	newInst := "aaaa-reborn"
	stubs[0].epoch.Store(200)
	stubs[0].instance.Store(&newInst)
	waitFor(t, "restart detection", func() bool { return p.Stats().RestartsDetected >= 1 })
}

// TestHealthLadder walks ok → degraded → partitioned → unhealthy by
// progressively darkening shards (Replicas=1 so one dark shard already
// uncovers its keys).
func TestHealthLadder(t *testing.T) {
	stubs := []*stubShard{newStubShard(t, 1, "a"), newStubShard(t, 1, "b"), newStubShard(t, 1, "c")}
	p := newTestProxy(t, stubs, func(c *Config) { c.Replicas = 1 })
	waitFor(t, "health ok", func() bool { s, _ := p.Health(); return s == StateOK })

	// A shard self-reporting degradation grades the cluster degraded.
	deg := "degraded"
	stubs[0].status.Store(&deg)
	waitFor(t, "health degraded", func() bool { s, _ := p.Health(); return s == StateDegraded })
	ok := "ok"
	stubs[0].status.Store(&ok)

	// One unreachable shard with Replicas=1: its key ranges are uncovered.
	stubs[1].srv.Close()
	waitFor(t, "health partitioned", func() bool { s, _ := p.Health(); return s == StatePartitioned })
	if _, rep := p.Health(); rep.UncoveredReplicaSets == 0 {
		t.Fatal("partitioned without uncovered replica sets")
	}

	stubs[0].srv.Close()
	stubs[2].srv.Close()
	waitFor(t, "health unhealthy", func() bool { s, _ := p.Health(); return s == StateUnhealthy })
}

// TestHTTPRoundTrip exercises the proxy's own HTTP surface end to end.
func TestHTTPRoundTrip(t *testing.T) {
	stubs := []*stubShard{newStubShard(t, 1, "a"), newStubShard(t, 1, "b")}
	p := newTestProxy(t, stubs, nil)
	front := httptest.NewServer(NewHandler(p))
	defer front.Close()

	f := genFrames(t, 2, 88)
	body, _ := json.Marshal(toWire(f[0]))
	resp, err := http.Post(front.URL+"/v1/decode", "application/json", bytesReader(body))
	if err != nil {
		t.Fatalf("POST /v1/decode: %v", err)
	}
	var dr DecodeResponse
	mustDecode(t, resp, http.StatusOK, &dr)
	if dr.APIVersion != serve.APIVersion || dr.Shard == "" {
		t.Fatalf("bad decode response: %+v", dr)
	}

	batch, _ := json.Marshal(serve.DecodeRequest{Frames: []serve.DecodeRequest{*toWire(f[0]), *toWire(f[1])}})
	resp, err = http.Post(front.URL+"/v1/decode", "application/json", bytesReader(batch))
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	var br BatchDecodeResponse
	mustDecode(t, resp, http.StatusOK, &br)
	if len(br.Results) != 2 || br.Results[0].Error != "" || br.Results[1].Error != "" {
		t.Fatalf("bad batch response: %+v", br)
	}

	resp, err = http.Get(front.URL + "/v1/config")
	if err != nil {
		t.Fatalf("GET /v1/config: %v", err)
	}
	var ci ConfigInfo
	mustDecode(t, resp, http.StatusOK, &ci)
	if ci.TxAntennas != 4 || ci.Modulation != "qpsk" || len(ci.Shards) != 2 {
		t.Fatalf("bad config: %+v", ci)
	}

	resp, err = http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var hr HealthReport
	mustDecode(t, resp, http.StatusOK, &hr)
	if _, err := ParseState(hr.Status); err != nil {
		t.Fatalf("unparsable health status: %+v", hr)
	}

	resp, err = http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var st Stats
	mustDecode(t, resp, http.StatusOK, &st)
	if st.Submitted < 3 {
		t.Fatalf("metrics missed traffic: %+v", st)
	}

	// Join then leave a third shard over the wire.
	extra := newStubShard(t, 1, "c")
	jb, _ := json.Marshal(JoinRequest{URL: extra.srv.URL})
	resp, err = http.Post(front.URL+"/v1/shards", "application/json", bytesReader(jb))
	if err != nil {
		t.Fatalf("POST /v1/shards: %v", err)
	}
	var mr MembershipResponse
	mustDecode(t, resp, http.StatusOK, &mr)
	if len(mr.Shards) != 3 || mr.Moved <= 0 {
		t.Fatalf("bad join response: %+v", mr)
	}
	req, _ := http.NewRequest(http.MethodDelete, front.URL+"/v1/shards?url="+extra.srv.URL, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE /v1/shards: %v", err)
	}
	mustDecode(t, resp, http.StatusOK, &mr)
	if len(mr.Shards) != 2 {
		t.Fatalf("bad leave response: %+v", mr)
	}
}
