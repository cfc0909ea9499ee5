package main

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

func defaultOptions() options {
	return options{
		tx: 4, rx: 4, mod: "qpsk", variant: "optimized",
		maxBatch: 8, maxWait: time.Millisecond, workers: 1, queueCap: 32,
		policy: "reject", scalarEval: true,
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
	// and everything else by the complex sorted DFS.
	for mod, want := range map[string]string{"qpsk": "SD-RVD-SE", "16qam": "SD-RVD-SE", "bpsk": "SD-SortedDFS"} {
		o := defaultOptions()
		o.mod = mod
		if got := serverConfig(t, o).Strategy; got != want {
			t.Errorf("%s: default strategy %q, want %q", mod, got, want)
		}
	}
	o := defaultOptions()
	o.strategy = "sorted-dfs"
	if got := serverConfig(t, o).Strategy; got != "SD-SortedDFS" {
		t.Errorf("explicit sorted-dfs advertised %q", got)
	}
}

// TestVerifyGEMMKeepsGEMMEngine: -verify-gemm without -strategy keeps the
// complex sorted DFS, whose GEMM products it verifies, and -verify-gemm
// with -strategy rvd-se is refused rather than silently verifying nothing.
func TestVerifyGEMMKeepsGEMMEngine(t *testing.T) {
	o := defaultOptions()
	o.verifyGEMM = true
	if got := serverConfig(t, o).Strategy; got != "SD-SortedDFS" {
		t.Errorf("-verify-gemm default strategy %q, want SD-SortedDFS", got)
	}
	o.strategy = "rvd-se"
	if sched, _, _, err := buildServer(o); err == nil {
		sched.Close()
		t.Fatal("-verify-gemm -strategy rvd-se accepted")
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
