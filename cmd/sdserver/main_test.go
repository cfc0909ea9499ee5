package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/sphere"
)

func defaultOptions() options {
	return options{
		tx: 4, rx: 4, mod: "qpsk", variant: "optimized",
		maxBatch: 8, maxWait: time.Millisecond, workers: 1, queueCap: 32,
		policy: "reject",
	}
}

// serverConfig builds a server from o and returns what its /v1/config
// advertises.
func serverConfig(t *testing.T, o options) serve.ConfigInfo {
	t.Helper()
	sched, handler, _, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	srv := httptest.NewServer(handler)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info serve.ConfigInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if !sched.Healthy() {
		t.Fatal("fresh server not healthy")
	}
	return info
}

func TestBuildServer(t *testing.T) {
	info := serverConfig(t, defaultOptions())
	if info.TxAntennas != 4 || info.Modulation != "4-QAM" || info.Policy != "reject" || info.MaxBatch != 8 {
		t.Fatalf("config %+v", info)
	}
	// With no -strategy, square QAM is served by the real-valued SE engine
	// and everything else by the complex sorted DFS, both under ℓ².
	for mod, want := range map[string]string{"qpsk": "SD-RVD-SE", "16qam": "SD-RVD-SE", "bpsk": "SD-SortedDFS"} {
		o := defaultOptions()
		o.mod = mod
		if info := serverConfig(t, o); info.Strategy != want || info.Norm != "l2" {
			t.Errorf("%s: default engine %q/%q, want %q/l2", mod, info.Strategy, info.Norm, want)
		}
	}
	o := defaultOptions()
	o.strategy = "sorted-dfs"
	if got := serverConfig(t, o).Strategy; got != "SD-SortedDFS" {
		t.Errorf("explicit sorted-dfs advertised %q", got)
	}
}

// TestVerifyGEMMKeepsGEMMEngine: -verify-gemm without -strategy keeps the
// complex sorted DFS, whose GEMM products it verifies; -verify-gemm with
// -strategy rvd-se is refused rather than silently verifying nothing, and
// so is a runtime pin that would move the server onto rvd-se.
func TestVerifyGEMMKeepsGEMMEngine(t *testing.T) {
	o := defaultOptions()
	o.verifyGEMM = true
	if got := serverConfig(t, o).Strategy; got != "SD-SortedDFS" {
		t.Errorf("-verify-gemm default strategy %q, want SD-SortedDFS", got)
	}
	sched, _, _, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	if err := sched.SetPolicy("strategy=rvd-se"); err == nil {
		t.Error("-verify-gemm server accepted a strategy=rvd-se pin")
	}
	o.strategy = "rvd-se"
	if sched, _, _, err := buildServer(o); err == nil {
		sched.Close()
		t.Fatal("-verify-gemm -strategy rvd-se accepted")
	}
}

// TestFlags: only the two served engines are -strategy values, and the
// retired -norm and -scalar-eval flags are unknown.
func TestFlags(t *testing.T) {
	parse := func(args ...string) (options, error) {
		var o options
		fs := flag.NewFlagSet("sdserver", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs, &o)
		return o, fs.Parse(args)
	}
	for _, args := range [][]string{{"-norm", "linf"}, {"-norm", "l2"}, {"-scalar-eval=false"}, {"-scalar-eval"}} {
		if _, err := parse(args...); err == nil {
			t.Errorf("%q parsed", args)
		}
	}
	o, err := parse("-strategy", "rvd-se", "-mod", "16qam")
	if err != nil || o.strategy != "rvd-se" {
		t.Fatalf("-strategy rvd-se: %+v (err %v)", o, err)
	}
}

// TestBuildServerSDCWiring pins the integrity plumbing: -sdc-chaos hands the
// plan back for the exit-stats log, and the hardened server still serves.
func TestBuildServerSDCWiring(t *testing.T) {
	o := defaultOptions()
	o.verifyGEMM = true
	o.sdcChaos = "metric=0.5"
	o.chaosSeed = 11
	sched, _, plan, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	if plan == nil {
		t.Fatal("armed -sdc-chaos returned a nil plan")
	}

	if sched2, _, plan2, err := buildServer(defaultOptions()); err != nil {
		t.Fatal(err)
	} else {
		sched2.Close()
		if plan2 != nil {
			t.Fatal("plan returned without -sdc-chaos")
		}
	}
}

func TestBuildServerRejectsBadOptions(t *testing.T) {
	cases := []func(*options){
		func(o *options) { o.mod = "8psk" },
		func(o *options) { o.variant = "quantum" },
		func(o *options) { o.policy = "pray" },
		func(o *options) { o.tx = 0 },
		func(o *options) { o.deadline = -time.Second },
		func(o *options) { o.sdcChaos = "qr=2" },
		func(o *options) { o.sdcChaos = "voltage=0.1" },
		func(o *options) { o.strategy = "bfs" },
		func(o *options) { o.strategy = "plain-dfs" },
		func(o *options) { o.strategy = "best-fs" },
		func(o *options) { o.strategy = "fsd" },
		func(o *options) { o.strategy = "warp" },
		func(o *options) { o.decodePolicy = "norm=linf" },
		func(o *options) { o.decodePolicy = "strategy=fsd" },
	}
	for i, mutate := range cases {
		o := defaultOptions()
		mutate(&o)
		sched, _, _, err := buildServer(o)
		if err == nil {
			sched.Close()
			t.Errorf("case %d: bad options accepted: %+v", i, o)
		}
	}
}

// TestPolicyRunsServedEngine: a -decode-policy or PUT /v1/policy spelling
// without strategy= runs the engine the server serves (rvd-se for QPSK,
// sorted-dfs for BPSK), the echoes re-parse to the same policy on that
// server, and an -adaptive server's ladder is all engine-relative rungs.
func TestPolicyRunsServedEngine(t *testing.T) {
	cases := []struct {
		mod    string
		engine sphere.Strategy
		ladder []string
	}{
		{"qpsk", sphere.RealSE, []string{"default", "radius-scale=1.5,max-nodes=4096", "linear"}},
		{"bpsk", sphere.SortedDFS, []string{"default", "radius-scale=2", "radius-scale=1.5,max-nodes=4096", "linear"}},
	}
	for _, tc := range cases {
		o := defaultOptions()
		o.mod = tc.mod
		o.decodePolicy = "max-nodes=4096"
		sched, _, _, err := buildServer(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := sched.PolicyInfo().Policy; got != "max-nodes=4096" {
			t.Errorf("%s: -decode-policy echoed %q", tc.mod, got)
		}
		if got := sched.Config().DecodePolicy; got == nil || got.Strategy != tc.engine {
			t.Errorf("%s: -decode-policy without strategy= selected %+v, want %v", tc.mod, got, tc.engine)
		}
		sched.Close()

		o.decodePolicy = "strategy=sorted-dfs"
		sched, _, _, err = buildServer(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := sched.Config().DecodePolicy; got == nil || got.Strategy != sphere.SortedDFS {
			t.Errorf("%s: strategy=sorted-dfs selected %+v", tc.mod, got)
		}
		echo := sched.PolicyInfo().Policy
		if err := sched.SetPolicy(echo); err != nil || sched.PolicyInfo().Policy != echo {
			t.Errorf("%s: echo %q does not re-parse to itself (err %v)", tc.mod, echo, err)
		}
		sched.Close()

		o.decodePolicy = ""
		o.adaptive = true
		o.nodeBudget = 4096
		sched, _, _, err = buildServer(o)
		if err != nil {
			t.Fatal(err)
		}
		var ladder []string
		for _, l := range sched.PolicyInfo().Levels {
			ladder = append(ladder, l.Policy)
		}
		if !slices.Equal(ladder, tc.ladder) {
			t.Errorf("%s: adaptive ladder %q, want %q", tc.mod, ladder, tc.ladder)
		}
		if err := sched.SetPolicy("max-nodes=4096"); err != nil {
			t.Fatal(err)
		}
		if got := sched.PolicyInfo().Policy; got != "max-nodes=4096" {
			t.Errorf("%s: PUT max-nodes=4096 echoed %q", tc.mod, got)
		}
		sched.Close()
	}
}
