// Package adapt is the online complexity controller behind the DecodePolicy
// API: it watches per-frame SNR estimates, trace-fed search cost (an EWMA of
// expanded nodes per request class), and scheduler queue depth, and emits the
// core.DecodePolicy each request class should decode under next.
//
// The controller realizes the trade-off Dabah et al. describe for
// runtime-tunable sphere decoders: under light load everything runs the exact
// search on the serving engine; as cost pressure rises it walks down a ladder
// of cheaper configurations of that engine — SNR-scaled initial radius, then
// a tighter radius with a per-frame node budget — before surrendering to the
// linear detector. Degradation is immediate; recovery is hysteresis-gated so a
// saturated queue draining does not make the controller flap.
//
// All decisions are deterministic functions of the observation sequence: one
// mutex orders observations and decisions, and nothing consults time or
// randomness. Replaying the same (scenario, seed, level table) therefore
// replays the same decision sequence — the property the determinism tests
// pin.
package adapt

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/sphere"
	"repro/internal/trace"
)

// Level is one rung of the degradation ladder: a policy plus the conditions
// under which the controller may select it.
type Level struct {
	// Name labels the level in snapshots, metrics, and decision logs.
	Name string
	// Policy is the DecodePolicy this level decodes under.
	Policy core.DecodePolicy
	// MaxPressure is the highest cost pressure this level serves. The
	// controller picks the first level (in table order) whose MaxPressure
	// admits the current pressure; the last level should be +Inf so some
	// level always matches.
	MaxPressure float64
	// MinSNRdB gates the level on channel quality: below this estimated SNR
	// the level is skipped. Levels that lean on an SNR-scaled radius or a
	// tighter search only pay off when the noise is small enough; at low SNR
	// they retry or mis-decode their savings away. Use -Inf (or zero via
	// DefaultLevels) for unconditional levels.
	MinSNRdB float64
}

// Config parameterizes a Controller.
type Config struct {
	// Levels is the degradation ladder, least degraded first. Required.
	Levels []Level
	// NodeAlpha is the EWMA smoothing factor for per-class node cost
	// (0 < α ≤ 1); 0 defaults to 0.25.
	NodeAlpha float64
	// NodeCeiling normalizes node cost into pressure: an EWMA at the ceiling
	// contributes pressure 1.0. 0 defaults to 1<<20 expansions.
	NodeCeiling float64
	// PriorNodes seeds the node EWMA before a class's first observation.
	// 0 means "assume free until measured".
	PriorNodes float64
	// Hysteresis holds recovery: moving to a less degraded level requires
	// pressure ≤ (1−Hysteresis)·that level's MaxPressure. 0 defaults to 0.1;
	// negative disables.
	Hysteresis float64
}

// Decision is one Decide outcome: the chosen level and the inputs that chose
// it. The fields are plain values so tests can compare decision sequences.
type Decision struct {
	Class    string
	Level    string
	Policy   core.DecodePolicy
	Pressure float64
	SNRdB    float64
}

// classState is the controller's memory of one request class.
type classState struct {
	ewmaNodes float64
	ewmaSNR   float64
	observed  bool
	level     int            // current ladder rung (index into levels)
	decisions map[string]int // level name → times chosen
	quality   map[string]int // decoder.Quality name → frames observed
}

// Controller emits DecodePolicies per request class from online observations.
// All methods are safe for concurrent use; a single mutex serializes them, so
// the decision sequence is a deterministic function of the call sequence.
type Controller struct {
	mu      sync.Mutex
	cfg     Config
	classes map[string]*classState
}

// NewController validates the ladder and builds a controller.
func NewController(cfg Config) (*Controller, error) {
	if len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("adapt: no levels configured")
	}
	seen := make(map[string]bool, len(cfg.Levels))
	for i, l := range cfg.Levels {
		if l.Name == "" {
			return nil, fmt.Errorf("adapt: level %d has no name", i)
		}
		if seen[l.Name] {
			return nil, fmt.Errorf("adapt: duplicate level %q", l.Name)
		}
		seen[l.Name] = true
		if err := l.Policy.Validate(); err != nil {
			return nil, fmt.Errorf("adapt: level %q: %w", l.Name, err)
		}
		if math.IsNaN(l.MaxPressure) || l.MaxPressure < 0 {
			return nil, fmt.Errorf("adapt: level %q: invalid max pressure %v", l.Name, l.MaxPressure)
		}
	}
	if cfg.NodeAlpha == 0 {
		cfg.NodeAlpha = 0.25
	}
	if cfg.NodeAlpha < 0 || cfg.NodeAlpha > 1 {
		return nil, fmt.Errorf("adapt: node alpha %v outside (0,1]", cfg.NodeAlpha)
	}
	if cfg.NodeCeiling == 0 {
		cfg.NodeCeiling = 1 << 20
	}
	if cfg.NodeCeiling < 0 {
		return nil, fmt.Errorf("adapt: negative node ceiling %v", cfg.NodeCeiling)
	}
	if cfg.Hysteresis == 0 {
		cfg.Hysteresis = 0.1
	}
	if cfg.Hysteresis < 0 {
		cfg.Hysteresis = 0
	}
	return &Controller{cfg: cfg, classes: make(map[string]*classState)}, nil
}

// MustNewController is NewController for static tables known to be valid.
func MustNewController(cfg Config) *Controller {
	c, err := NewController(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// DefaultLevels is the stock degradation ladder for a deployment serving
// engine: every searching rung runs that engine, so the ladder trades search
// effort, never the engine itself. budgetNodes is the per-frame expansion
// cap of the budgeted rung (0 picks 1<<16).
//
// The rungs come from the adapt_levels table (sdbench -study adapt), which
// keeps a rung only while it is cheaper than the one above it:
//   - rvd-se already starts from the noise-scaled sphere 2·N·σ², so its
//     ladder is exact → budget → linear;
//   - sorted-dfs, the other served engine, gets an exact-radius rung
//     (radius-scale=2) between exact-full and budget: it starts at +Inf,
//     and that rung is what bounds its heavy tail.
//
// The ℓ∞ and fixed-complexity rungs are gone: on the measured workload both
// cost more than the rvd-se budget rung.
func DefaultLevels(engine sphere.Strategy, budgetNodes int64) []Level {
	if budgetNodes <= 0 {
		budgetNodes = 1 << 16
	}
	var levels []Level
	if engine == sphere.RealSE {
		levels = []Level{
			{Name: "exact", Policy: core.DecodePolicy{Strategy: engine}, MaxPressure: 1.5, MinSNRdB: math.Inf(-1)},
		}
	} else {
		levels = []Level{
			{Name: "exact-full", Policy: core.DecodePolicy{Strategy: engine}, MaxPressure: 0.5, MinSNRdB: math.Inf(-1)},
			{Name: "exact-radius", Policy: core.DecodePolicy{Strategy: engine, RadiusScale: 2}, MaxPressure: 1.5, MinSNRdB: 6},
		}
	}
	return append(levels,
		Level{
			Name:        "budget",
			Policy:      core.DecodePolicy{Strategy: engine, RadiusScale: 1.5, MaxNodes: budgetNodes},
			MaxPressure: 10,
			MinSNRdB:    math.Inf(-1),
		},
		Level{Name: "linear", Policy: core.DecodePolicy{Linear: true}, MaxPressure: math.Inf(1), MinSNRdB: math.Inf(-1)},
	)
}

// SNREstimateDB converts a per-frame noise-variance estimate into the SNR
// the controller gates levels on, inverting channel.NoiseVariance under the
// per-transmit-symbol convention (σ² = 10^(−SNR/10)).
func SNREstimateDB(noiseVar float64) float64 {
	if noiseVar <= 0 {
		return math.Inf(1)
	}
	return -10 * math.Log10(noiseVar)
}

// Observe feeds one decoded frame back into the controller: the class it
// belonged to, its estimated SNR, the tree expansions it cost, and the
// quality it finished at. The scheduler calls this from batch counters; the
// Recorder path feeds the same numbers from a trace.Recorder (the two agree
// by the recorder-tally invariant pinned in the trace tests).
func (c *Controller) Observe(class string, snrDB float64, nodes int64, q decoder.Quality) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.class(class)
	if !st.observed {
		st.ewmaNodes = float64(nodes)
		st.ewmaSNR = snrDB
		st.observed = true
	} else {
		a := c.cfg.NodeAlpha
		st.ewmaNodes += a * (float64(nodes) - st.ewmaNodes)
		st.ewmaSNR += a * (snrDB - st.ewmaSNR)
	}
	st.quality[q.String()]++
}

// Decide picks the policy for the next batch of the given class. queueDepth
// and queueCap describe the scheduler's backlog (cap ≤ 0 means unbounded:
// queue pressure 0); pressure is the max of queue pressure and the class's
// node EWMA over the ceiling. The returned Decision records the chosen level
// and the pressure that chose it.
func (c *Controller) Decide(class string, queueDepth, queueCap int) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.class(class)

	// Queue pressure is backlog over remaining headroom, not plain
	// occupancy: a half-full queue reads 1.0, three-quarters reads 3.0, and
	// saturation diverges — so a full queue always reaches the ladder's
	// deepest rungs no matter where the node EWMA sits.
	qp := 0.0
	if queueCap > 0 && queueDepth > 0 {
		if queueDepth >= queueCap {
			qp = math.Inf(1)
		} else {
			qp = float64(queueDepth) / float64(queueCap-queueDepth)
		}
	}
	nodes := st.ewmaNodes
	if !st.observed {
		nodes = c.cfg.PriorNodes
	}
	np := nodes / c.cfg.NodeCeiling
	pressure := math.Max(qp, np)
	snr := st.ewmaSNR
	if !st.observed {
		snr = math.Inf(1) // no evidence the channel is bad yet
	}

	idx := c.pick(st.level, pressure, snr)
	st.level = idx
	lvl := c.cfg.Levels[idx]
	st.decisions[lvl.Name]++
	return Decision{Class: class, Level: lvl.Name, Policy: lvl.Policy, Pressure: pressure, SNRdB: snr}
}

// pick resolves the ladder: first level whose MaxPressure admits pressure and
// whose MinSNRdB admits snr. Moving up the ladder (recovery, lower index than
// cur) additionally requires pressure to clear the hysteresis band below that
// level's threshold; moving down (degradation) is immediate.
func (c *Controller) pick(cur int, pressure, snr float64) int {
	for i, l := range c.cfg.Levels {
		if snr < l.MinSNRdB {
			continue
		}
		limit := l.MaxPressure
		if i < cur {
			limit *= 1 - c.cfg.Hysteresis
		}
		if pressure <= limit {
			return i
		}
	}
	return len(c.cfg.Levels) - 1
}

// class returns (creating if needed) the state of one request class. Caller
// holds c.mu.
func (c *Controller) class(name string) *classState {
	st := c.classes[name]
	if st == nil {
		st = &classState{
			decisions: make(map[string]int),
			quality:   make(map[string]int),
		}
		c.classes[name] = st
	}
	return st
}

// ClassSnapshot is the observable state of one request class.
type ClassSnapshot struct {
	Class     string         `json:"class"`
	Level     string         `json:"level"`
	Policy    string         `json:"policy"`
	EWMANodes float64        `json:"ewma_nodes"`
	EWMASNRdB float64        `json:"ewma_snr_db"`
	Decisions map[string]int `json:"decisions"`
	Quality   map[string]int `json:"quality"`
}

// Snapshot reports the controller's per-class state, classes sorted by name,
// for /v1/policy. Class policies are spelled relative to engine, the search
// strategy the server runs (see core.DecodePolicy.StringOn).
func (c *Controller) Snapshot(engine sphere.Strategy) []ClassSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.classes))
	for name := range c.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ClassSnapshot, 0, len(names))
	for _, name := range names {
		st := c.classes[name]
		lvl := c.cfg.Levels[st.level]
		cs := ClassSnapshot{
			Class:     name,
			Level:     lvl.Name,
			Policy:    lvl.Policy.StringOn(engine),
			EWMANodes: st.ewmaNodes,
			Decisions: make(map[string]int, len(st.decisions)),
			Quality:   make(map[string]int, len(st.quality)),
		}
		if st.observed {
			cs.EWMASNRdB = st.ewmaSNR
		}
		for k, v := range st.decisions {
			cs.Decisions[k] = v
		}
		for k, v := range st.quality {
			cs.Quality[k] = v
		}
		out = append(out, cs)
	}
	return out
}

// Levels exposes the configured ladder (a copy) for config echoes.
func (c *Controller) Levels() []Level {
	out := make([]Level, len(c.cfg.Levels))
	copy(out, c.cfg.Levels)
	return out
}

// Recorder adapts the controller into a trace.Recorder for one search of the
// given class at the given estimated SNR: expansions are tallied as the
// search runs and committed as one observation at SearchEnd, degraded
// searches counting as best-effort. This is the trace-fed ingestion path; a
// scheduler that already has batch counters can call Observe directly.
func (c *Controller) Recorder(class string, snrDB float64) trace.Recorder {
	return &obsRecorder{c: c, class: class, snrDB: snrDB}
}

type obsRecorder struct {
	c        *Controller
	class    string
	snrDB    float64
	nodes    int64
	degraded bool
}

func (r *obsRecorder) SearchStart(m, alphabet int, radiusSq float64) {}
func (r *obsRecorder) NodeExpanded(depth int)                        { r.nodes++ }
func (r *obsRecorder) Children(depth, pruned, kept int)              {}
func (r *obsRecorder) RadiusUpdate(radiusSq float64)                 {}
func (r *obsRecorder) Degraded(reason string)                        { r.degraded = true }

func (r *obsRecorder) SearchEnd(finalRadiusSq float64, retries int) {
	q := decoder.QualityExact
	if r.degraded {
		q = decoder.QualityBestEffort
	}
	r.c.Observe(r.class, r.snrDB, r.nodes, q)
	r.nodes, r.degraded = 0, false
}
