package core

import (
	"strings"
	"testing"

	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/mimo"
	"repro/internal/sphere"
)

func TestPolicyStringParseRoundTrip(t *testing.T) {
	cases := []DecodePolicy{
		{},
		{Linear: true},
		{Strategy: sphere.RealSE},
		{RadiusScale: 2},
		{RadiusScale: 1.5, MaxNodes: 4096},
		{VerifyGEMM: true},
		{Strategy: sphere.RealSE, RadiusScale: 0.5, MaxNodes: 1 << 20},
		{RadiusScale: 0.5, MaxNodes: 1 << 20, VerifyGEMM: true},
	}
	for _, p := range cases {
		s := p.String()
		back, err := ParsePolicy(s)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", s, err)
			continue
		}
		if back != p {
			t.Errorf("round trip %q: got %+v, want %+v", s, back, p)
		}
	}
}

// TestPolicySpellingRelativeToEngine: on a deployment serving base, a
// spelling without strategy= selects base, every valid policy round-trips
// through StringOn/ParsePolicyOn, and the library spelling is the SortedDFS
// case of the same code.
func TestPolicySpellingRelativeToEngine(t *testing.T) {
	policies := []DecodePolicy{
		{},
		{Linear: true},
		{Strategy: sphere.RealSE},
		{Strategy: sphere.RealSE, RadiusScale: 1.5, MaxNodes: 4096},
		{RadiusScale: 2},
		{VerifyGEMM: true},
	}
	for _, base := range []sphere.Strategy{sphere.SortedDFS, sphere.RealSE} {
		for _, p := range policies {
			s := p.StringOn(base)
			back, err := ParsePolicyOn(base, s)
			if err != nil || back != p {
				t.Errorf("base %v: %+v spelled %q parses to %+v (err %v)", base, p, s, back, err)
			}
		}
		for in, want := range map[string]DecodePolicy{
			"":                      {Strategy: base},
			"default":               {Strategy: base},
			"linear":                {Linear: true},
			"max-nodes=4096":        {Strategy: base, MaxNodes: 4096},
			"strategy=sorted-dfs":   {Strategy: sphere.SortedDFS},
			"rvd-se,radius-scale=2": {Strategy: sphere.RealSE, RadiusScale: 2},
		} {
			if got, err := ParsePolicyOn(base, in); err != nil || got != want {
				t.Errorf("base %v: ParsePolicyOn(%q) = %+v (err %v), want %+v", base, in, got, err, want)
			}
		}
	}
	if got := (DecodePolicy{Strategy: sphere.RealSE, MaxNodes: 4096}).StringOn(sphere.RealSE); got != "max-nodes=4096" {
		t.Errorf("rvd-se budget on rvd-se spelled %q", got)
	}
	if got := (DecodePolicy{}).StringOn(sphere.RealSE); got != "strategy=sorted-dfs" {
		t.Errorf("sorted-dfs on rvd-se spelled %q", got)
	}
	// No norm is spelled on any engine, and verify is refused where the
	// spelling resolves to rvd-se.
	for _, base := range []sphere.Strategy{sphere.SortedDFS, sphere.RealSE} {
		for _, in := range []string{"norm=linf", "linf", "norm=l2", "l2"} {
			if _, err := ParsePolicyOn(base, in); err == nil {
				t.Errorf("base %v: ParsePolicyOn(%q) accepted", base, in)
			}
		}
	}
	if _, err := ParsePolicyOn(sphere.RealSE, "verify"); err == nil {
		t.Error("verify on rvd-se accepted")
	}
	if got, err := ParsePolicyOn(sphere.SortedDFS, "verify"); err != nil || got != (DecodePolicy{VerifyGEMM: true}) {
		t.Errorf("verify on sorted-dfs = %+v (err %v)", got, err)
	}
}

func TestPolicyStringCanonical(t *testing.T) {
	cases := []struct {
		p    DecodePolicy
		want string
	}{
		{DecodePolicy{}, "default"},
		{DecodePolicy{Linear: true}, "linear"},
		{DecodePolicy{Strategy: sphere.RealSE, MaxNodes: 100}, "strategy=rvd-se,max-nodes=100"},
		{DecodePolicy{RadiusScale: 2, MaxNodes: 100}, "radius-scale=2,max-nodes=100"},
		{DecodePolicy{MaxNodes: 100, VerifyGEMM: true}, "max-nodes=100,verify"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestParsePolicySpellings(t *testing.T) {
	// The one spelling table: bare names, key=value, aliases from
	// sphere.ParseStrategy, whitespace, case.
	cases := []struct {
		in   string
		want DecodePolicy
	}{
		{"", DecodePolicy{}},
		{"default", DecodePolicy{}},
		{"  Default ", DecodePolicy{}},
		{"LINEAR", DecodePolicy{Linear: true}},
		{"rvd-se", DecodePolicy{Strategy: sphere.RealSE}},
		{"strategy=SD-RVD-SE", DecodePolicy{Strategy: sphere.RealSE}},
		{"strategy=sorted", DecodePolicy{}},
		{"verify", DecodePolicy{VerifyGEMM: true}},
		{"verify=false", DecodePolicy{}},
		{"Verify=TRUE", DecodePolicy{VerifyGEMM: true}},
		{" radius-scale=2 , max-nodes=512 ", DecodePolicy{RadiusScale: 2, MaxNodes: 512}},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParsePolicy(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParsePolicyRejects(t *testing.T) {
	bad := []string{
		"strategy=warp",      // unknown strategy
		"strategy=plain-dfs", // the ablation strategies are not served
		"best-fs",            // in every spelling
		"strategy=bfs",
		"fsd",
		"norm=linf",           // the norm is not a policy knob
		"norm=l2",             // not even the served one
		"linf",                // nor a bare norm name
		"rvd-se,linf",         // beside a valid engine
		"rvd-se,verify",       // rvd-se computes no GEMM to verify
		"fp16",                // the half-precision GEMM key is gone
		"fp16=true",           // in every spelling
		"radius-scale=2,fp16", // including beside valid items
		"linear,max-nodes=5",  // linear composes with nothing
		"radius-scale=-1",
		"radius-scale=nan",
		"max-nodes=-5",
		"max-nodes=many",
		"turbo",          // unknown bare item
		"speed=11",       // unknown key
		"verify=perhaps", // unparsable bool
		"linear,verify",  // linear composes with nothing
	}
	for _, s := range bad {
		if _, err := ParsePolicy(s); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", s)
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := (DecodePolicy{}).Validate(); err != nil {
		t.Fatalf("zero policy invalid: %v", err)
	}
	if err := (DecodePolicy{Linear: true}).Validate(); err != nil {
		t.Fatalf("linear policy invalid: %v", err)
	}
	bad := []DecodePolicy{
		{Linear: true, MaxNodes: 5},
		{Linear: true, VerifyGEMM: true},
		{Strategy: sphere.Strategy(99)},
		{Strategy: sphere.PlainDFS},
		{Strategy: sphere.BestFS},
		{Strategy: sphere.BFS},
		{Strategy: sphere.FSD},
		{Strategy: sphere.RealSE, VerifyGEMM: true},
		{RadiusScale: -2},
		{MaxNodes: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", p)
		}
	}
}

// TestOptionsPolicyConfiguresAccelerator: the base policy New derives from
// Options names the engine the base decoder runs, and decoding under it
// explicitly resolves to that same decoder.
func TestOptionsPolicyConfiguresAccelerator(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{Strategy: sphere.RealSE, MaxNodes: 4096})
	if want := (DecodePolicy{Strategy: sphere.RealSE, MaxNodes: 4096}); acc.BasePolicy() != want {
		t.Fatalf("base policy %+v, want %+v", acc.BasePolicy(), want)
	}
	if !strings.Contains(acc.sd.Name(), "RVD-SE") {
		t.Fatalf("base strategy not applied: %s", acc.sd.Name())
	}
	inputs, _ := batchFor(t, cfg4(), 14, 4, 11)
	rep, err := acc.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := acc.DecodeBatch(inputs, WithPolicy(acc.BasePolicy()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		if rep.Results[i].Metric != pol.Results[i].Metric {
			t.Fatalf("frame %d: base %v, explicit base policy %v", i, rep.Results[i].Metric, pol.Results[i].Metric)
		}
	}
}

// TestNewValidatesBasePolicy: New refuses Options whose base policy does
// not validate — an ablation strategy, a norm other than ℓ², or GEMM
// verification on rvd-se.
func TestNewValidatesBasePolicy(t *testing.T) {
	bad := []Options{
		{Strategy: sphere.PlainDFS},
		{Strategy: sphere.BestFS},
		{Strategy: sphere.BFS},
		{Strategy: sphere.FSD},
		{Strategy: sphere.RealSE, Norm: sphere.NormLInf},
		{Norm: sphere.NormLInf},
		{Strategy: sphere.RealSE, VerifyGEMM: true},
		{MaxNodes: -1},
	}
	for _, o := range bad {
		if _, err := New(fpga.Optimized, constellation.QAM4, 6, 6, o); err == nil {
			t.Errorf("New(%+v) accepted", o)
		}
	}
}

func TestWithPolicyRetargetsBatch(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	inputs, sent := batchFor(t, cfg4(), 14, 12, 21)

	base, err := acc.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	p := DecodePolicy{Strategy: sphere.RealSE, RadiusScale: 2}
	pol, err := acc.DecodeBatch(inputs, WithPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	if sd := acc.sdCache[p]; sd == nil || !strings.Contains(sd.Name(), "RVD-SE") {
		t.Fatalf("policy batch did not run the rvd-se engine (cached %v)", sd)
	}
	// Both engines are exact ℓ² searches: the retargeted batch must return
	// the base decode's ML decisions on every frame.
	for i := range base.Results {
		for j := range sent[i] {
			if base.Results[i].SymbolIdx[j] != pol.Results[i].SymbolIdx[j] {
				t.Fatalf("frame %d symbol %d differs between base and rvd-se policy", i, j)
			}
		}
	}
}

func TestWithPolicyLinearFallsBack(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	inputs, _ := batchFor(t, cfg4(), 14, 6, 31)
	rep, err := acc.DecodeBatch(inputs, WithPolicy(DecodePolicy{Linear: true}))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range rep.Results {
		if res.Quality != decoder.QualityFallback {
			t.Fatalf("frame %d: quality %v, want fallback", i, res.Quality)
		}
		if res.DegradedBy != decoder.DegradedByPolicy {
			t.Fatalf("frame %d: degraded-by %q, want %q", i, res.DegradedBy, decoder.DegradedByPolicy)
		}
	}
}

func TestWithFallbackKeepsOverloadReason(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	inputs, _ := batchFor(t, cfg4(), 14, 3, 41)
	rep, err := acc.DecodeBatch(inputs, WithFallback())
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range rep.Results {
		if res.DegradedBy != decoder.DegradedByOverload {
			t.Fatalf("frame %d: degraded-by %q, want %q", i, res.DegradedBy, decoder.DegradedByOverload)
		}
	}
}

func TestWithPolicyInvalidPolicyErrors(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	inputs, _ := batchFor(t, cfg4(), 14, 2, 51)
	if _, err := acc.DecodeBatch(inputs, WithPolicy(DecodePolicy{Strategy: sphere.FSD})); err == nil {
		t.Fatal("invalid policy accepted")
	}
	// Modulation-dependent rejection: RealSE needs square QAM, and BPSK has
	// no PAM decomposition. The policy validates, but DecodeBatch must still
	// reject it because the accelerator cannot build it.
	bpsk := MustNew(fpga.Optimized, constellation.BPSK, 6, 6, Options{})
	bpskInputs, _ := batchFor(t, mimo.Config{Tx: 6, Rx: 6, Mod: constellation.BPSK}, 14, 2, 51)
	if _, err := bpsk.DecodeBatch(bpskInputs, WithPolicy(DecodePolicy{Strategy: sphere.RealSE})); err == nil {
		t.Fatal("unbuildable policy accepted")
	}
}

func TestPolicyDecoderCache(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	p := DecodePolicy{RadiusScale: 2}
	sd1, err := acc.sdFor(p)
	if err != nil {
		t.Fatal(err)
	}
	sd2, err := acc.sdFor(p)
	if err != nil {
		t.Fatal(err)
	}
	if sd1 != sd2 {
		t.Fatal("repeated policy rebuilt the decoder")
	}
	// The base policy resolves to the base decoder, no cache entry.
	sdBase, err := acc.sdFor(acc.basePolicy)
	if err != nil {
		t.Fatal(err)
	}
	if sdBase != acc.sd {
		t.Fatal("base policy did not resolve to the base decoder")
	}
	if _, ok := acc.sdCache[acc.basePolicy]; ok {
		t.Fatal("base policy cached redundantly")
	}
}

func TestCheckPolicy(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	ok := []DecodePolicy{
		{},
		{Linear: true},
		{Strategy: sphere.RealSE, RadiusScale: 2},
		{RadiusScale: 2, MaxNodes: 1000, VerifyGEMM: true},
	}
	for _, p := range ok {
		if err := acc.CheckPolicy(p); err != nil {
			t.Errorf("CheckPolicy(%s): %v", p, err)
		}
	}
	bad := []DecodePolicy{
		{Strategy: sphere.FSD},
		{Strategy: sphere.RealSE, VerifyGEMM: true},
		{RadiusScale: -1},
		{MaxNodes: -1},
	}
	for _, p := range bad {
		if err := acc.CheckPolicy(p); err == nil {
			t.Errorf("CheckPolicy(%+v) accepted", p)
		}
	}
	// VerifyGEMM is sticky: on a verifying accelerator every policy runs
	// verified, so rvd-se is refused even when the policy does not ask for
	// verification itself.
	verified := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{VerifyGEMM: true})
	if err := verified.CheckPolicy(DecodePolicy{Strategy: sphere.RealSE}); err == nil {
		t.Error("rvd-se accepted on a verifying accelerator")
	}
	if err := verified.CheckPolicy(DecodePolicy{RadiusScale: 2}); err != nil {
		t.Errorf("sorted-dfs radius policy on a verifying accelerator: %v", err)
	}
}

func TestBatchBudgetCapsPolicyBudget(t *testing.T) {
	// A policy with a generous per-frame budget under a tiny batch pool:
	// the pool wins, frames degrade with the budget's reason.
	acc := MustNew(fpga.Optimized, constellation.QAM16, 8, 8, Options{ScalarEval: true})
	inputs, _ := batchFor(t, mimo.Config{Tx: 8, Rx: 8, Mod: constellation.QAM16}, 4, 8, 61)
	rep, err := acc.DecodeBatch(inputs,
		WithPolicy(DecodePolicy{MaxNodes: 1 << 40}),
		WithBudget(BatchBudget{NodeBudget: 50}),
	)
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for _, res := range rep.Results {
		if res.Quality != decoder.QualityExact {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("tiny batch pool under a huge policy budget degraded nothing")
	}
}
