package serve

import (
	"fmt"
	"math"

	"repro/internal/adapt"
	"repro/internal/core"
)

// Decode-policy modes reported by PolicyInfo.Mode: which authority picks the
// DecodePolicy of each dispatched batch.
const (
	// PolicyModeDefault: no policy is applied; batches decode with the
	// backend's base configuration.
	PolicyModeDefault = "default"
	// PolicyModeFixed: Config.DecodePolicy is applied to every batch.
	PolicyModeFixed = "fixed"
	// PolicyModeAdaptive: the adapt.Controller decides per batch class.
	PolicyModeAdaptive = "adaptive"
	// PolicyModeOverride: a SetPolicy / PUT /v1/policy pin shadows both.
	PolicyModeOverride = "override"
)

// classOf maps a batch or frame scenario label onto the controller's request
// class: unlabeled traffic pools under "default", mixed batches under
// "mixed" (the scenarioMixed label the metrics splits already use).
func classOf(label string) string {
	if label == "" {
		return PolicyModeDefault
	}
	return label
}

// policyChecker is the optional Backend facet that can vet a DecodePolicy
// against the backend's modulation and engine constraints (core.Accelerator
// implements it). Backends without it get Validate-only checking.
type policyChecker interface {
	CheckPolicy(core.DecodePolicy) error
}

// checkPolicy vets p: structural validation always, backend constraints when
// the validation backend exposes them.
func (s *Scheduler) checkPolicy(p core.DecodePolicy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if pc, ok := s.validator.(policyChecker); ok {
		return pc.CheckPolicy(p)
	}
	return nil
}

// policyFor resolves the DecodePolicy for one batch of the given request
// class, plus the metrics label of the deciding authority ("override",
// "adaptive:<level>", "fixed", or "default"). A nil policy means "decode
// with the backend's base configuration".
func (s *Scheduler) policyFor(class string) (*core.DecodePolicy, string) {
	s.polMu.RLock()
	override, adaptive := s.polOverride, s.polAdaptive
	s.polMu.RUnlock()
	switch {
	case override != nil:
		return override, PolicyModeOverride
	case adaptive && s.cfg.Controller != nil:
		d := s.cfg.Controller.Decide(class, len(s.queue), s.cfg.QueueCap)
		p := d.Policy
		return &p, PolicyModeAdaptive + ":" + d.Level
	case s.cfg.DecodePolicy != nil:
		return s.cfg.DecodePolicy, PolicyModeFixed
	}
	return nil, PolicyModeDefault
}

// PolicyMode reports which authority currently decides batch policies.
func (s *Scheduler) PolicyMode() string {
	s.polMu.RLock()
	defer s.polMu.RUnlock()
	switch {
	case s.polOverride != nil:
		return PolicyModeOverride
	case s.polAdaptive && s.cfg.Controller != nil:
		return PolicyModeAdaptive
	case s.cfg.DecodePolicy != nil:
		return PolicyModeFixed
	}
	return PolicyModeDefault
}

// SetPolicy changes the decode-policy state at runtime (the PUT /v1/policy
// verb). spec is either "adaptive" — resume the configured controller — or
// any core.ParsePolicyOn spelling relative to the backend's engine (a spec
// without strategy= runs the engine the server serves), which pins that
// policy for every batch until the next SetPolicy. Pins are vetted against
// the backend before taking effect, so a live service cannot be steered onto
// an unservable policy.
func (s *Scheduler) SetPolicy(spec string) error {
	if spec == PolicyModeAdaptive {
		if s.cfg.Controller == nil {
			return fmt.Errorf("serve: no adaptive controller configured")
		}
		s.polMu.Lock()
		s.polOverride = nil
		s.polAdaptive = true
		s.polMu.Unlock()
		return nil
	}
	p, err := core.ParsePolicyOn(s.basePol.Strategy, spec)
	if err != nil {
		return err
	}
	if err := s.checkPolicy(p); err != nil {
		return err
	}
	s.polMu.Lock()
	s.polOverride = &p
	s.polAdaptive = false
	s.polMu.Unlock()
	return nil
}

// PolicyLevelInfo is one rung of the adaptive ladder as reported by
// GET /v1/policy. Infinite bounds (the unconditional last rung, an
// SNR-ungated level) are omitted rather than serialized — JSON has no Inf.
type PolicyLevelInfo struct {
	Name        string  `json:"name"`
	Policy      string  `json:"policy"`
	MaxPressure float64 `json:"max_pressure,omitempty"`
	MinSNRdB    float64 `json:"min_snr_db,omitempty"`
}

// PolicyInfo is the JSON body of GET /v1/policy: the deciding authority, the
// pinned/fixed policy spelling when one applies, the adaptive ladder and
// per-class controller state when a controller is configured, and the
// decision histogram.
type PolicyInfo struct {
	APIVersion string `json:"api_version"`
	Mode       string `json:"mode"`
	// Policy is the effective pinned spelling in override/fixed mode,
	// "adaptive" in adaptive mode, "default" otherwise.
	Policy    string                `json:"policy"`
	Levels    []PolicyLevelInfo     `json:"levels,omitempty"`
	Classes   []adapt.ClassSnapshot `json:"classes,omitempty"`
	Decisions map[string]uint64     `json:"decisions,omitempty"`
}

// PolicyInfo snapshots the decode-policy state. Policies are spelled
// relative to the backend's engine, so every echoed spelling re-parses to the
// same policy through SetPolicy on this server.
func (s *Scheduler) PolicyInfo() PolicyInfo {
	engine := s.basePol.Strategy
	info := PolicyInfo{APIVersion: APIVersion, Mode: s.PolicyMode()}
	switch info.Mode {
	case PolicyModeOverride:
		s.polMu.RLock()
		info.Policy = s.polOverride.StringOn(engine)
		s.polMu.RUnlock()
	case PolicyModeFixed:
		info.Policy = s.cfg.DecodePolicy.StringOn(engine)
	default:
		info.Policy = info.Mode
	}
	if ctrl := s.cfg.Controller; ctrl != nil {
		for _, l := range ctrl.Levels() {
			li := PolicyLevelInfo{Name: l.Name, Policy: l.Policy.StringOn(engine)}
			if !math.IsInf(l.MaxPressure, 1) {
				li.MaxPressure = l.MaxPressure
			}
			if !math.IsInf(l.MinSNRdB, -1) {
				li.MinSNRdB = l.MinSNRdB
			}
			info.Levels = append(info.Levels, li)
		}
		info.Classes = ctrl.Snapshot(engine)
	}
	s.m.mu.Lock()
	if len(s.m.policyDecisions) > 0 {
		info.Decisions = make(map[string]uint64, len(s.m.policyDecisions))
		for k, v := range s.m.policyDecisions {
			info.Decisions[k] = v
		}
	}
	s.m.mu.Unlock()
	return info
}
