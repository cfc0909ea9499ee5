package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sphere"
)

// DecodePolicy is the single named-options type for everything a deployment
// can trade between decode quality and decode cost: the served engine, the
// SNR-scaled initial radius (Dabah et al.'s complexity lever), a per-frame
// node budget, ABFT verification of the batched product, and the
// linear-only escape hatch. One value of this type travels the whole
// stack — an accelerator's BasePolicy, WithPolicy retargeting a single
// DecodeBatch call, internal/adapt emitting one per request class, and
// sdserver's /v1/policy endpoint round-tripping it as the
// StringOn/ParsePolicyOn spelling relative to the engine it serves. Every
// policy searches under the ℓ² norm; sphere's ℓ∞ and ablation strategies
// stay reachable through sphere.Config, not through a policy.
//
// The zero value is the paper's default pipeline (SortedDFS, unbounded
// radius and budget). DecodePolicy is comparable, so it can key caches of
// policy-derived decoder instances.
type DecodePolicy struct {
	// Strategy selects the engine: SortedDFS (the zero value) or RealSE.
	Strategy sphere.Strategy
	// Linear skips the tree search entirely: every frame is answered by the
	// linear fallback detector (best of Babai and sliced ZF). A linear
	// policy carries no other knobs — Validate rejects combinations.
	Linear bool
	// RadiusScale, when positive, starts every search from the SNR-scaled
	// sphere r² = RadiusScale·N·σ² instead of +Inf. This bounds the
	// heavy-tail excursions of depth-first search on bad channel draws while
	// staying exact (an empty sphere retries with a doubled radius). Zero
	// keeps the strategy's default start, which for ℓ² rvd-se is already
	// 2·N·σ² (see sphere.Config.InitialRadiusSq).
	RadiusScale float64
	// MaxNodes, when positive, caps each frame's tree expansions; exhaustion
	// degrades the result (anytime contract), never errors. Zero keeps the
	// decoder default.
	MaxNodes int64
	// VerifyGEMM turns on the ABFT checksum verification of every batched
	// child evaluation (internal/integrity): each GEMM output is checked
	// against a Huang–Abraham row checksum and recomputed in place on a
	// mismatch, so a transient bit flip in the product never reaches the
	// search. Implies GEMM evaluation, so it requires SortedDFS: rvd-se
	// evaluates children analytically and has no product to verify.
	VerifyGEMM bool
}

// strategyNames is the one canonical spelling table for the served
// engines. Every name round-trips through sphere.ParseStrategy, so flag
// parsing, /v1/policy bodies, and sdbench study labels cannot drift apart.
var strategyNames = map[sphere.Strategy]string{
	sphere.SortedDFS: "sorted-dfs",
	sphere.RealSE:    "rvd-se",
}

// Validate checks the policy's internal consistency. The rules mirror
// sphere.New so a policy that validates here builds a decoder there (up to
// modulation constraints, which depend on the accelerator).
func (p DecodePolicy) Validate() error {
	if p.Linear {
		if p != (DecodePolicy{Linear: true}) {
			return fmt.Errorf("core: a linear policy carries no other knobs (got %+v)", p)
		}
		return nil
	}
	if _, ok := strategyNames[p.Strategy]; !ok {
		return fmt.Errorf("core: strategy %v is not a served engine (want sorted-dfs or rvd-se)", p.Strategy)
	}
	if p.VerifyGEMM && p.Strategy == sphere.RealSE {
		return errors.New("core: verify checks GEMM products, which rvd-se does not compute")
	}
	if p.RadiusScale < 0 || p.RadiusScale != p.RadiusScale {
		return fmt.Errorf("core: invalid radius-scale %v", p.RadiusScale)
	}
	if p.MaxNodes < 0 {
		return fmt.Errorf("core: invalid max-nodes %d", p.MaxNodes)
	}
	return nil
}

// String renders the canonical spelling relative to the library default
// engine, SortedDFS: "default", "linear", or a comma-separated key=value
// list ("strategy=rvd-se", "radius-scale=2,max-nodes=4096").
// ParsePolicy(p.String()) == p for every valid policy.
func (p DecodePolicy) String() string { return p.StringOn(sphere.SortedDFS) }

// StringOn renders p for a deployment whose engine is base: the strategy
// is spelled only when it differs from base, so "default" names base's own
// search. ParsePolicyOn(base, p.StringOn(base)) == p for every valid policy.
func (p DecodePolicy) StringOn(base sphere.Strategy) string {
	if p.Linear {
		return "linear"
	}
	var parts []string
	if p.Strategy != base {
		parts = append(parts, "strategy="+strategyNames[p.Strategy])
	}
	if p.RadiusScale > 0 {
		parts = append(parts, "radius-scale="+strconv.FormatFloat(p.RadiusScale, 'g', -1, 64))
	}
	if p.MaxNodes > 0 {
		parts = append(parts, "max-nodes="+strconv.FormatInt(p.MaxNodes, 10))
	}
	if p.VerifyGEMM {
		parts = append(parts, "verify")
	}
	if len(parts) == 0 {
		return "default"
	}
	return strings.Join(parts, ",")
}

// ParsePolicy parses the String spelling: "default" (or ""), "linear", or
// comma-separated items where each item is key=value (strategy,
// radius-scale, max-nodes, verify), the bare flag "verify", or a bare
// engine name ("rvd-se"). Strategy values go through sphere.ParseStrategy,
// so every spelling it accepts for the two served engines is accepted
// here — the one table all binaries share; any other strategy fails
// Validate. A spelling without a strategy selects SortedDFS.
func ParsePolicy(s string) (DecodePolicy, error) { return ParsePolicyOn(sphere.SortedDFS, s) }

// ParsePolicyOn is ParsePolicy for a deployment whose engine is base: a
// spelling without a strategy selects base, so "default" and
// "max-nodes=4096" run the engine the deployment serves, and
// "strategy=sorted-dfs" still selects the paper's engine.
func ParsePolicyOn(base sphere.Strategy, s string) (DecodePolicy, error) {
	p := DecodePolicy{Strategy: base}
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "default":
		return p, nil
	case "linear":
		return DecodePolicy{Linear: true}, nil
	}
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, hasEq := strings.Cut(item, "=")
		key = strings.TrimSpace(strings.ToLower(key))
		val = strings.TrimSpace(val)
		if !hasEq {
			switch key {
			case "verify":
				p.VerifyGEMM = true
				continue
			case "linear":
				return p, fmt.Errorf("core: policy %q: linear composes with nothing; spell it alone", s)
			}
			if st, err := sphere.ParseStrategy(key); err == nil {
				p.Strategy = st
				continue
			}
			return p, fmt.Errorf("core: policy %q: unknown item %q", s, item)
		}
		switch key {
		case "strategy":
			st, err := sphere.ParseStrategy(val)
			if err != nil {
				return p, fmt.Errorf("core: policy %q: %w", s, err)
			}
			p.Strategy = st
		case "radius-scale":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return p, fmt.Errorf("core: policy %q: radius-scale: %w", s, err)
			}
			p.RadiusScale = f
		case "max-nodes":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return p, fmt.Errorf("core: policy %q: max-nodes: %w", s, err)
			}
			p.MaxNodes = n
		case "verify":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return p, fmt.Errorf("core: policy %q: verify: %w", s, err)
			}
			p.VerifyGEMM = b
		default:
			return p, fmt.Errorf("core: policy %q: unknown key %q", s, key)
		}
	}
	if err := p.Validate(); err != nil {
		return DecodePolicy{}, err
	}
	return p, nil
}

// sphereConfig derives the sphere.Config a policy selects, starting from the
// accelerator's base configuration (which carries the constellation, the
// eval-path default, and the per-decode deadline). The policy owns every
// radius/budget knob: base radius settings are cleared, not merged, and the
// search is always ℓ².
func (p DecodePolicy) sphereConfig(base sphere.Config) sphere.Config {
	cfg := base
	cfg.Strategy = p.Strategy
	cfg.Norm = sphere.NormL2
	cfg.InitialRadiusSq = 0
	cfg.BabaiRadius = false
	cfg.AutoRadius = p.RadiusScale > 0
	cfg.RadiusScale = p.RadiusScale
	cfg.MaxNodes = p.MaxNodes // zero resolves to the decoder default
	cfg.HardBudget = false
	// Integrity is a deployment property: a per-request policy can add
	// verification but never strip it from an accelerator built with it on.
	cfg.VerifyGEMM = base.VerifyGEMM || p.VerifyGEMM
	cfg.Recorder = nil
	return cfg
}
