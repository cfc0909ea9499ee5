package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
	"repro/internal/sphere"
)

// TestPolicyFanout drives the proxy's GET/PUT /v1/policy surface against two
// real sdserver-stack shards, one per served engine: GET aggregates each
// shard's own policy state, PUT broadcasts a pin to every shard, a spelling
// every shard refuses answers 400 without moving any shard, and a dead shard
// turns a broadcast into 502 with per-shard outcomes.
func TestPolicyFanout(t *testing.T) {
	shards := []*httptest.Server{newRealShardOn(t, sphere.RealSE), newRealShard(t)}
	urls := []string{shards[0].URL, shards[1].URL}
	p, err := New(Config{Shards: urls, Fallback: testFallback})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(p.Close)
	front := httptest.NewServer(NewHandler(p))
	defer front.Close()

	getFanout := func(wantStatus int) PolicyFanoutResponse {
		t.Helper()
		resp, err := http.Get(front.URL + "/v1/policy")
		if err != nil {
			t.Fatalf("GET /v1/policy: %v", err)
		}
		var out PolicyFanoutResponse
		mustDecode(t, resp, wantStatus, &out)
		return out
	}
	put := func(spec string) (*http.Response, error) {
		t.Helper()
		body, _ := json.Marshal(serve.PolicyUpdate{Policy: spec})
		req, err := http.NewRequest(http.MethodPut, front.URL+"/v1/policy", bytesReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		return http.DefaultClient.Do(req)
	}
	shardPolicy := func(out PolicyFanoutResponse, i int) serve.PolicyInfo {
		t.Helper()
		if out.Shards[i].Error != "" {
			t.Fatalf("shard %d errored: %s", i, out.Shards[i].Error)
		}
		var pi serve.PolicyInfo
		if err := json.Unmarshal(out.Shards[i].Policy, &pi); err != nil {
			t.Fatalf("shard %d policy body: %v", i, err)
		}
		return pi
	}

	out := getFanout(http.StatusOK)
	if len(out.Shards) != 2 {
		t.Fatalf("fan-out over %d shards: %+v", len(out.Shards), out)
	}
	for i := range out.Shards {
		if pi := shardPolicy(out, i); pi.Mode != serve.PolicyModeDefault {
			t.Fatalf("shard %d initial mode %q", i, pi.Mode)
		}
	}

	// Broadcast a pin; every shard must flip to override.
	resp, err := put("radius-scale=2")
	if err != nil {
		t.Fatalf("PUT /v1/policy: %v", err)
	}
	var bc PolicyFanoutResponse
	mustDecode(t, resp, http.StatusOK, &bc)
	out = getFanout(http.StatusOK)
	for i := range out.Shards {
		pi := shardPolicy(out, i)
		if pi.Mode != serve.PolicyModeOverride || pi.Policy != "radius-scale=2" {
			t.Fatalf("shard %d after broadcast: mode %q policy %q", i, pi.Mode, pi.Policy)
		}
	}

	// The norm is no policy knob on either engine: both shards refuse
	// norm=linf, so the proxy answers 400 and no shard moves.
	resp, err = put("norm=linf")
	if err != nil {
		t.Fatalf("PUT bad policy: %v", err)
	}
	var refused PolicyFanoutResponse
	mustDecode(t, resp, http.StatusBadRequest, &refused)
	for i, sr := range refused.Shards {
		if sr.Error == "" {
			t.Fatalf("shard %d accepted norm=linf: %+v", i, sr)
		}
	}
	out = getFanout(http.StatusOK)
	for i := range out.Shards {
		if pi := shardPolicy(out, i); pi.Policy != "radius-scale=2" {
			t.Fatalf("bad PUT mutated shard %d: %q", i, pi.Policy)
		}
	}

	// Kill one shard: broadcasts degrade to 502 with per-shard outcomes.
	shards[1].Close()
	resp, err = put("linear")
	if err != nil {
		t.Fatalf("PUT with dead shard: %v", err)
	}
	var partial PolicyFanoutResponse
	mustDecode(t, resp, http.StatusBadGateway, &partial)
	live, dead := 0, 0
	for _, sr := range partial.Shards {
		if sr.Error != "" {
			dead++
		} else {
			live++
		}
	}
	if live != 1 || dead != 1 {
		t.Fatalf("partial broadcast outcomes live=%d dead=%d: %+v", live, dead, partial)
	}
}

// TestPolicyPutVettedByShards: the proxy holds no policy parser of its own.
// A spelling is relative to the engine each shard serves, so verify moves a
// sorted-dfs shard and is refused by an rvd-se one, which computes no GEMM
// product to verify: the proxy answers 200 on an all-sorted-dfs ring and
// 502 with per-shard outcomes on a mixed one.
func TestPolicyPutVettedByShards(t *testing.T) {
	put := func(front string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(serve.PolicyUpdate{Policy: "verify"})
		req, err := http.NewRequest(http.MethodPut, front+"/v1/policy", bytesReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("PUT /v1/policy: %v", err)
		}
		return resp
	}
	proxy := func(shards ...*httptest.Server) string {
		t.Helper()
		urls := make([]string, len(shards))
		for i, s := range shards {
			urls[i] = s.URL
		}
		p, err := New(Config{Shards: urls, Fallback: testFallback})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(p.Close)
		front := httptest.NewServer(NewHandler(p))
		t.Cleanup(front.Close)
		return front.URL
	}

	var out PolicyFanoutResponse
	mustDecode(t, put(proxy(newRealShardOn(t, sphere.SortedDFS), newRealShardOn(t, sphere.SortedDFS))), http.StatusOK, &out)
	for i, sr := range out.Shards {
		var pi serve.PolicyInfo
		if sr.Error != "" || json.Unmarshal(sr.Policy, &pi) != nil || pi.Policy != "verify" {
			t.Fatalf("sorted-dfs shard %d: %+v", i, sr)
		}
	}

	rvd, dfs := newRealShardOn(t, sphere.RealSE), newRealShardOn(t, sphere.SortedDFS)
	var mixed PolicyFanoutResponse
	mustDecode(t, put(proxy(rvd, dfs)), http.StatusBadGateway, &mixed)
	for _, sr := range mixed.Shards {
		if moved := sr.Error == ""; moved != (sr.URL == dfs.URL) {
			t.Fatalf("mixed ring: shard %s moved=%v: %+v", sr.URL, moved, sr)
		}
	}
}
