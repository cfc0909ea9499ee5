package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fpga"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// DegradedByCluster marks a frame answered by the proxy's own linear
// fallback because every replica for its key was dark, broken, or erroring.
// It is the cluster-tier analogue of serve's DegradedBy reasons: the answer
// is valid (never worse than ZF) but did not come from a shard.
const DegradedByCluster = "cluster"

// RoutingMode selects how the proxy picks replicas for a frame.
type RoutingMode int

const (
	// RoutingAffinity hashes the frame's channel fingerprint onto the ring,
	// so frames under one channel always hit the same shard and its QR cache.
	RoutingAffinity RoutingMode = iota
	// RoutingScatter rotates over shards ignoring the key — the no-affinity
	// baseline the cache-locality experiment compares against.
	RoutingScatter
)

// String names the mode for flags and reports.
func (m RoutingMode) String() string {
	switch m {
	case RoutingAffinity:
		return "affinity"
	case RoutingScatter:
		return "scatter"
	default:
		return fmt.Sprintf("RoutingMode(%d)", int(m))
	}
}

// ParseRoutingMode is the inverse of String ("random" and "rr" alias
// scatter).
func ParseRoutingMode(s string) (RoutingMode, error) {
	switch s {
	case "affinity":
		return RoutingAffinity, nil
	case "scatter", "random", "rr", "round-robin":
		return RoutingScatter, nil
	default:
		return 0, fmt.Errorf("cluster: unknown routing mode %q (want affinity or scatter)", s)
	}
}

// FallbackSpec describes the MIMO configuration the proxy's local fallback
// accelerator is built for. It must match the shards' configuration.
type FallbackSpec struct {
	Tx         int
	Rx         int
	Modulation string
}

// Config parameterizes a Proxy. Zero values select the documented defaults.
type Config struct {
	// Shards are the initial member base URLs (e.g. http://127.0.0.1:9101).
	Shards []string
	// Replicas is the ownership width: each key is served by up to Replicas
	// distinct shards in ring order. Default 2.
	Replicas int
	// VirtualNodes per shard on the ring. Default DefaultVirtualNodes.
	VirtualNodes int
	// Routing selects affinity (default) or scatter placement.
	Routing RoutingMode

	// AttemptTimeout bounds one decode exchange with one shard; expiry fails
	// the attempt over to the next replica. Default 1s.
	AttemptTimeout time.Duration
	// HedgeAfter launches a backup attempt on the next replica when the
	// leading attempt has not answered within this window. 0 disables.
	HedgeAfter time.Duration
	// HedgeBudget caps hedges as a fraction of primary successes (token
	// bucket, burst 8). Non-positive with HedgeAfter set defaults to 0.1.
	HedgeBudget float64

	// ProbeInterval is the health-probe period. Default 250ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe. Default ProbeInterval.
	ProbeTimeout time.Duration
	// DarkAfter is how many consecutive probe transport failures flip a
	// shard dark. Default 2.
	DarkAfter int

	// FailureThreshold, CooldownBase, CooldownCap parameterize each shard's
	// circuit breaker. Defaults 3, 100ms, 2s.
	FailureThreshold int
	CooldownBase     time.Duration
	CooldownCap      time.Duration

	// Seed drives breaker cooldown jitter (decorrelated per shard).
	Seed uint64

	// Fallback describes the local last-resort decoder. Required.
	Fallback FallbackSpec

	// Chaos, when set, wraps every shard's transport with the plan's
	// timeline faults (kill/stall/partition/flap by shard index).
	Chaos *faultinject.ClusterPlan

	// Transport overrides the base HTTP transport (tests inject
	// httptest-friendly ones). Default: a pooled clone of
	// http.DefaultTransport.
	Transport http.RoundTripper
}

// withDefaults fills the documented defaults.
func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = time.Second
	}
	if c.HedgeAfter > 0 && c.HedgeBudget <= 0 {
		c.HedgeBudget = 0.1
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.DarkAfter <= 0 {
		c.DarkAfter = 2
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.CooldownBase <= 0 {
		c.CooldownBase = 100 * time.Millisecond
	}
	if c.CooldownCap <= 0 {
		c.CooldownCap = 2 * time.Second
	}
	return c
}

// proxyMetrics is the cluster-wide ledger (per-shard slices live on the
// shards themselves).
type proxyMetrics struct {
	submitted        atomic.Uint64
	ok               atomic.Uint64
	invalid          atomic.Uint64
	failed           atomic.Uint64 // permanent errors propagated to the client
	failovers        atomic.Uint64 // successes served by a non-first replica
	hedges           atomic.Uint64 // backup attempts launched
	hedgeWins        atomic.Uint64 // races won by a hedged attempt
	hedgeWaste       atomic.Uint64 // losing attempts that finished fine anyway
	hedgeDenied      atomic.Uint64 // hedges refused by the budget
	fallbacks        atomic.Uint64 // frames served by the local fallback
	breakerSkips     atomic.Uint64 // replicas skipped behind an open breaker
	darkSkips        atomic.Uint64 // replicas skipped as dark/draining
	restartsDetected atomic.Uint64
	joins            atomic.Uint64
	leaves           atomic.Uint64
	lastDisruption   atomic.Uint64 // math.Float64bits of the last rebalance
	scatterCursor    atomic.Uint64 // rotation point for RoutingScatter

	// scMu guards scenarios: the per-workload-label routing splits. The
	// labeled path takes one short mutex per frame; unlabeled traffic never
	// touches it.
	scMu      sync.Mutex
	scenarios map[string]*scenarioCounters
}

// scenarioCounters is one workload label's slice of the proxy's traffic.
type scenarioCounters struct {
	submitted uint64
	ok        uint64
	failed    uint64
	failovers uint64
	fallbacks uint64
}

// scenario returns (allocating on first use) the counters for one label.
func (m *proxyMetrics) scenario(label string) *scenarioCounters {
	if m.scenarios == nil {
		m.scenarios = make(map[string]*scenarioCounters, 4)
	}
	c := m.scenarios[label]
	if c == nil {
		c = &scenarioCounters{}
		m.scenarios[label] = c
	}
	return c
}

// scenarioAdd applies fn to the label's counters under the lock; no-op for
// unlabeled traffic.
func (m *proxyMetrics) scenarioAdd(label string, fn func(*scenarioCounters)) {
	if label == "" {
		return
	}
	m.scMu.Lock()
	fn(m.scenario(label))
	m.scMu.Unlock()
}

// Proxy fronts a ring of sdserver shards: it fingerprint-routes frames for
// QR-cache affinity, fails over across replicas, hedges slow attempts, and
// degrades to a local linear decode when a key's whole replica set is dark —
// the zero-drop contract the chaos suite enforces.
type Proxy struct {
	cfg Config

	mu     sync.RWMutex
	ring   *Ring
	shards map[string]*shard
	next   int // join-order index generator (drives chaos shard indices)

	// Local fallback decoder. Serialized: it is a last resort, not a
	// throughput path, and the accelerator batch API is already parallel
	// inside.
	fbMu     sync.Mutex
	fallback *core.Accelerator
	cons     *constellation.Constellation

	hedgeBudget *resilience.Budget
	transport   http.RoundTripper

	m proxyMetrics

	stop      chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// errNoReplica means routing found no shard willing to take the frame.
var errNoReplica = errors.New("cluster: no routable replica")

// New builds the proxy, its local fallback accelerator, and the shard
// clients, then starts the health prober. The fallback spec must name a
// valid MIMO configuration — it is the proxy's availability floor.
func New(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	mod, err := constellation.ParseModulation(cfg.Fallback.Modulation)
	if err != nil {
		return nil, fmt.Errorf("cluster: fallback modulation: %w", err)
	}
	if cfg.Fallback.Tx <= 0 || cfg.Fallback.Rx <= 0 {
		return nil, fmt.Errorf("cluster: fallback needs positive antenna counts, got %dx%d", cfg.Fallback.Tx, cfg.Fallback.Rx)
	}
	acc, err := core.New(fpga.Optimized, mod, cfg.Fallback.Tx, cfg.Fallback.Rx, core.Options{ScalarEval: true})
	if err != nil {
		return nil, fmt.Errorf("cluster: fallback accelerator: %w", err)
	}
	p := &Proxy{
		cfg:       cfg,
		ring:      NewRing(nil, cfg.VirtualNodes),
		shards:    make(map[string]*shard),
		fallback:  acc,
		cons:      acc.Constellation(),
		transport: cfg.Transport,
		stop:      make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	if p.transport == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = 64
		p.transport = t
	}
	if cfg.HedgeAfter > 0 {
		p.hedgeBudget = resilience.NewBudget(cfg.HedgeBudget, 8)
	}
	if cfg.Chaos != nil {
		cfg.Chaos.Arm(time.Now())
	}
	for _, id := range cfg.Shards {
		if err := p.addShardLocked(id); err != nil {
			return nil, err
		}
	}
	go p.prober()
	return p, nil
}

// addShardLocked registers one shard (caller may be New, before the proxy
// escapes, or Join holding p.mu).
func (p *Proxy) addShardLocked(id string) error {
	if id == "" {
		return errors.New("cluster: empty shard URL")
	}
	if _, dup := p.shards[id]; dup {
		return fmt.Errorf("cluster: shard %s already joined", id)
	}
	idx := p.next
	p.next++
	transport := p.transport
	if p.cfg.Chaos != nil {
		transport = &chaosTransport{plan: p.cfg.Chaos, shard: idx, next: transport}
	}
	sh := newShard(id, idx, transport, 0, resilience.BreakerConfig{
		FailureThreshold: p.cfg.FailureThreshold,
		CooldownBase:     p.cfg.CooldownBase,
		CooldownCap:      p.cfg.CooldownCap,
		Seed:             p.cfg.Seed + uint64(idx)*0x9e3779b97f4a7c15,
	})
	p.shards[id] = sh
	p.ring = p.ring.With(id)
	return nil
}

// Join adds a shard to the ring at runtime. The new member starts live (the
// breaker and prober correct optimism within a probe interval) and only the
// keys it now owns move — the recorded disruption stays near 1/n.
func (p *Proxy) Join(id string) (disruption float64, err error) {
	p.mu.Lock()
	old := p.ring
	if err := p.addShardLocked(id); err != nil {
		p.mu.Unlock()
		return 0, err
	}
	disruption = Disruption(old, p.ring, 4096)
	p.mu.Unlock()
	p.m.joins.Add(1)
	p.m.lastDisruption.Store(math.Float64bits(disruption))
	return disruption, nil
}

// Leave drains a shard out of the ring: new frames reroute immediately, and
// the call waits for the shard's in-flight decodes to finish before
// forgetting it. The drain is best-effort — ctx expiry stops the wait, not
// the departure.
func (p *Proxy) Leave(ctx context.Context, id string) (disruption float64, err error) {
	p.mu.Lock()
	sh, ok := p.shards[id]
	if !ok {
		p.mu.Unlock()
		return 0, fmt.Errorf("cluster: shard %s not a member", id)
	}
	old := p.ring
	p.ring = p.ring.Without(id)
	sh.setState(ShardDraining)
	disruption = Disruption(old, p.ring, 4096)
	p.mu.Unlock()
	p.m.leaves.Add(1)
	p.m.lastDisruption.Store(math.Float64bits(disruption))

	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
drain:
	for sh.inFlight.Load() > 0 {
		select {
		case <-ctx.Done():
			break drain
		case <-tick.C:
		}
	}
	p.mu.Lock()
	delete(p.shards, id)
	p.mu.Unlock()
	sh.httpc.CloseIdleConnections()
	return disruption, nil
}

// Close stops the prober and releases shard connections. Safe to call more
// than once.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		close(p.stop)
		<-p.probeDone
		p.mu.RLock()
		defer p.mu.RUnlock()
		for _, sh := range p.shards {
			sh.httpc.CloseIdleConnections()
		}
	})
}

// candidates resolves the replica preference order for a key under the
// configured routing mode. Filtering (dark, draining, breaker) happens at
// launch time in race, not here — a snapshot would race the prober.
func (p *Proxy) candidates(key uint64) []*shard {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var ids []string
	if p.cfg.Routing == RoutingScatter {
		all := p.ring.Shards()
		if len(all) > 0 {
			start := int(p.m.scatterCursor.Add(1)) % len(all)
			n := p.cfg.Replicas
			if n > len(all) {
				n = len(all)
			}
			ids = make([]string, 0, n)
			for i := 0; i < n; i++ {
				ids = append(ids, all[(start+i)%len(all)])
			}
		}
	} else {
		ids = p.ring.Owners(key, p.cfg.Replicas)
	}
	out := make([]*shard, 0, len(ids))
	for _, id := range ids {
		if sh, ok := p.shards[id]; ok {
			out = append(out, sh)
		}
	}
	return out
}

// attemptOut is one shard attempt's outcome inside a race.
type attemptOut struct {
	resp  *serve.DecodeResponse
	err   error
	sh    *shard
	idx   int // preference-order index (0 = affinity primary)
	hedge bool
}

// race runs the failover/hedging loop for one frame: launch the first
// routable replica, add a hedged backup if the leader is slow (budget
// permitting), fail over to the next replica on retriable errors, and stop
// at the first success. Breaker verdicts settle inside each attempt's
// goroutine so abandoned attempts still report honestly; losers are not
// cancelled — their (bounded) completion keeps breaker state truthful.
func (p *Proxy) race(ctx context.Context, candidates []*shard, body []byte) (attemptOut, int, bool, error) {
	results := make(chan attemptOut, len(candidates))
	var won atomic.Bool
	attempts, inFlight, next := 0, 0, 0
	hedged := false

	launch := func(hedge bool) bool {
		for next < len(candidates) {
			sh := candidates[next]
			idx := next
			next++
			if !sh.routable() {
				p.m.darkSkips.Add(1)
				continue
			}
			ticket, ok := sh.breaker.Allow()
			if !ok {
				p.m.breakerSkips.Add(1)
				continue
			}
			attempts++
			inFlight++
			go func() {
				start := time.Now()
				actx, cancel := context.WithTimeout(ctx, p.cfg.AttemptTimeout)
				defer cancel()
				resp, err := sh.decode(actx, body)
				switch {
				case err == nil:
					sh.breaker.Success(ticket)
					sh.observeLatency(time.Since(start))
					if !won.CompareAndSwap(false, true) {
						p.m.hedgeWaste.Add(1)
					}
				case isPermanent(err):
					// The request is at fault, not the shard, but the shard
					// answered: that settles a half-open probe, which would
					// otherwise hold the breaker half-open for good.
					sh.breaker.Success(ticket)
				default:
					sh.breaker.Failure(ticket)
				}
				results <- attemptOut{resp: resp, err: err, sh: sh, idx: idx, hedge: hedge}
			}()
			return true
		}
		return false
	}

	if !launch(false) {
		return attemptOut{}, 0, false, errNoReplica
	}
	var hedgeC <-chan time.Time
	if p.cfg.HedgeAfter > 0 {
		t := time.NewTimer(p.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for {
		select {
		case o := <-results:
			inFlight--
			if o.err == nil {
				return o, attempts, hedged, nil
			}
			if isPermanent(o.err) {
				return attemptOut{}, attempts, hedged, o.err
			}
			lastErr = o.err
			if inFlight == 0 && !launch(false) {
				return attemptOut{}, attempts, hedged, lastErr
			}
		case <-hedgeC:
			hedgeC = nil
			if !p.hedgeBudget.Spend() {
				p.m.hedgeDenied.Add(1)
				continue
			}
			if launch(true) {
				hedged = true
				p.m.hedges.Add(1)
			}
		case <-ctx.Done():
			return attemptOut{}, attempts, hedged, ctx.Err()
		}
	}
}

// isPermanent reports whether a shard error would fail identically on any
// replica (client errors), so failover and fallback must not mask it.
func isPermanent(err error) bool {
	var she *shardHTTPError
	return errors.As(err, &she) && !she.retriable()
}

// Decode serves one frame: validate locally, fingerprint, race the replica
// set, and — if the whole set is dark or erroring — answer from the local
// linear fallback with DegradedBy=cluster. Only permanent client errors and
// the caller's own context expiry surface as errors; infrastructure failure
// never drops a valid frame.
func (p *Proxy) Decode(ctx context.Context, req *serve.DecodeRequest) (*DecodeResponse, error) {
	in, err := req.ToBatchInput()
	if err != nil {
		p.m.invalid.Add(1)
		return nil, fmt.Errorf("%w: %s", core.ErrInvalidInput, err)
	}
	if err := p.fallback.ValidateInput(in); err != nil {
		p.m.invalid.Add(1)
		return nil, err
	}
	p.m.submitted.Add(1)
	p.m.scenarioAdd(req.Scenario, func(c *scenarioCounters) { c.submitted++ })
	body, err := json.Marshal(req)
	if err != nil {
		p.m.failed.Add(1)
		p.m.scenarioAdd(req.Scenario, func(c *scenarioCounters) { c.failed++ })
		return nil, fmt.Errorf("cluster: marshal frame: %w", err)
	}
	key := in.H.Fingerprint()
	o, attempts, hedged, rerr := p.race(ctx, p.candidates(key), body)
	if rerr == nil {
		if o.idx == 0 {
			o.sh.asPrimary.Add(1)
		} else {
			o.sh.asFailover.Add(1)
			p.m.failovers.Add(1)
		}
		if o.hedge {
			o.sh.hedgedWins.Add(1)
			p.m.hedgeWins.Add(1)
		}
		p.m.ok.Add(1)
		p.m.scenarioAdd(req.Scenario, func(c *scenarioCounters) {
			c.ok++
			if o.idx > 0 {
				c.failovers++
			}
		})
		p.hedgeBudget.Earn(1)
		return &DecodeResponse{
			DecodeResponse: *o.resp,
			Shard:          o.sh.id,
			Attempts:       attempts,
			Hedged:         hedged,
			FailedOver:     o.idx > 0,
		}, nil
	}
	if isPermanent(rerr) {
		p.m.failed.Add(1)
		p.m.scenarioAdd(req.Scenario, func(c *scenarioCounters) { c.failed++ })
		return nil, rerr
	}
	if ctx.Err() != nil {
		p.m.failed.Add(1)
		p.m.scenarioAdd(req.Scenario, func(c *scenarioCounters) { c.failed++ })
		return nil, rerr
	}
	// Every replica dark, broken, or erroring: keep the zero-drop contract
	// with the local linear decode.
	resp, ferr := p.fallbackDecode(in, attempts, hedged)
	if ferr != nil {
		p.m.failed.Add(1)
		p.m.scenarioAdd(req.Scenario, func(c *scenarioCounters) { c.failed++ })
		return nil, errors.Join(rerr, ferr)
	}
	p.m.scenarioAdd(req.Scenario, func(c *scenarioCounters) {
		c.ok++
		c.fallbacks++
	})
	return resp, nil
}

// fallbackDecode answers one frame from the proxy-local linear decoder.
func (p *Proxy) fallbackDecode(in core.BatchInput, attempts int, hedged bool) (*DecodeResponse, error) {
	start := time.Now()
	p.fbMu.Lock()
	res, err := p.fallback.DecodeFallback(in)
	p.fbMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("cluster: local fallback decode: %w", err)
	}
	p.m.fallbacks.Add(1)
	p.m.ok.Add(1)
	buf := make([]int, p.cons.BitsPerSymbol())
	bits := make([]int, 0, len(res.SymbolIdx)*p.cons.BitsPerSymbol())
	for _, idx := range res.SymbolIdx {
		bits = append(bits, p.cons.BitsOf(idx, buf)...)
	}
	return &DecodeResponse{
		DecodeResponse: serve.DecodeResponse{
			APIVersion:    serve.APIVersion,
			SymbolIndices: res.SymbolIdx,
			Bits:          bits,
			Metric:        res.Metric,
			NodesExplored: res.Counters.NodesExpanded,
			Quality:       res.Quality.String(),
			DegradedBy:    DegradedByCluster,
			BatchSize:     1,
			ServiceNS:     int64(time.Since(start)),
			Shed:          true,
		},
		Attempts: attempts,
		Hedged:   hedged,
		Fallback: true,
	}, nil
}

// DecodeResponse is the proxy's wire answer: the shard's answer plus the
// routing trail — which shard served, how many attempts it took, whether a
// hedge fired, and whether the local fallback had to step in.
type DecodeResponse struct {
	serve.DecodeResponse
	Shard      string `json:"shard,omitempty"`
	Attempts   int    `json:"attempts"`
	Hedged     bool   `json:"hedged,omitempty"`
	FailedOver bool   `json:"failed_over,omitempty"`
	Fallback   bool   `json:"fallback,omitempty"`
}

// Stats is the proxy's /metrics snapshot.
type Stats struct {
	Health               string `json:"health"`
	Routing              string `json:"routing"`
	Replicas             int    `json:"replicas"`
	RingShards           int    `json:"ring_shards"`
	UncoveredReplicaSets int    `json:"uncovered_replica_sets"`
	Submitted            uint64 `json:"submitted"`
	OK                   uint64 `json:"ok"`
	Invalid              uint64 `json:"invalid"`
	Failed               uint64 `json:"failed"`
	Failovers            uint64 `json:"failovers"`
	Hedges               uint64 `json:"hedges"`
	HedgeWins            uint64 `json:"hedge_wins"`
	HedgeWaste           uint64 `json:"hedge_waste"`
	HedgeDenied          uint64 `json:"hedge_denied"`
	Fallbacks            uint64 `json:"fallbacks"`
	BreakerSkips         uint64 `json:"breaker_skips"`
	DarkSkips            uint64 `json:"dark_skips"`
	RestartsDetected     uint64 `json:"restarts_detected"`
	// SDCDetected totals the shards' silent-corruption detections as of
	// their last health probes (per-shard breakdown rides on Shards).
	SDCDetected        uint64  `json:"sdc_detected"`
	Joins              uint64  `json:"joins"`
	Leaves             uint64  `json:"leaves"`
	LastRebalanceMoved float64 `json:"last_rebalance_moved"`
	// Scenarios splits routed traffic by the workload label frames carried
	// (serve.DecodeRequest.Scenario). Absent until the first labeled frame.
	Scenarios map[string]ScenarioStats `json:"scenarios,omitempty"`
	Shards    []ShardInfo              `json:"shards"`
}

// ScenarioStats is one workload label's routing outcome ledger.
type ScenarioStats struct {
	Submitted uint64 `json:"submitted"`
	OK        uint64 `json:"ok"`
	Failed    uint64 `json:"failed"`
	Failovers uint64 `json:"failovers"`
	Fallbacks uint64 `json:"fallbacks"`
}

// Stats snapshots the cluster ledger.
func (p *Proxy) Stats() Stats {
	state, rep := p.Health()
	p.mu.RLock()
	ringLen := p.ring.Len()
	p.mu.RUnlock()
	var scenarios map[string]ScenarioStats
	p.m.scMu.Lock()
	if len(p.m.scenarios) > 0 {
		scenarios = make(map[string]ScenarioStats, len(p.m.scenarios))
		for label, c := range p.m.scenarios {
			scenarios[label] = ScenarioStats{
				Submitted: c.submitted,
				OK:        c.ok,
				Failed:    c.failed,
				Failovers: c.failovers,
				Fallbacks: c.fallbacks,
			}
		}
	}
	p.m.scMu.Unlock()
	return Stats{
		Health:               state.String(),
		Routing:              p.cfg.Routing.String(),
		Replicas:             p.cfg.Replicas,
		RingShards:           ringLen,
		UncoveredReplicaSets: rep.UncoveredReplicaSets,
		Submitted:            p.m.submitted.Load(),
		OK:                   p.m.ok.Load(),
		Invalid:              p.m.invalid.Load(),
		Failed:               p.m.failed.Load(),
		Failovers:            p.m.failovers.Load(),
		Hedges:               p.m.hedges.Load(),
		HedgeWins:            p.m.hedgeWins.Load(),
		HedgeWaste:           p.m.hedgeWaste.Load(),
		HedgeDenied:          p.m.hedgeDenied.Load(),
		Fallbacks:            p.m.fallbacks.Load(),
		BreakerSkips:         p.m.breakerSkips.Load(),
		DarkSkips:            p.m.darkSkips.Load(),
		RestartsDetected:     p.m.restartsDetected.Load(),
		SDCDetected:          rep.SDCDetected,
		Joins:                p.m.joins.Load(),
		Leaves:               p.m.leaves.Load(),
		LastRebalanceMoved:   math.Float64frombits(p.m.lastDisruption.Load()),
		Scenarios:            scenarios,
		Shards:               rep.Shards,
	}
}
