package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/sphere"
)

func mustNewRequest(t *testing.T, method, url string, body []byte) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	return req
}

func submitAll(t *testing.T, s *Scheduler, n int, seed uint64) []*Response {
	t.Helper()
	out := make([]*Response, n)
	for i, in := range genInputs(t, n, seed) {
		resp, err := s.Submit(context.Background(), in)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		out[i] = resp
	}
	return out
}

func TestFixedDecodePolicy(t *testing.T) {
	p := core.DecodePolicy{RadiusScale: 2}
	s := newScheduler(t, Config{DecodePolicy: &p})
	if got := s.PolicyMode(); got != PolicyModeFixed {
		t.Fatalf("mode %q", got)
	}
	submitAll(t, s, 8, 1)
	st := s.Stats()
	if st.PolicyDecisions[PolicyModeFixed] == 0 {
		t.Fatalf("no fixed policy decisions recorded: %+v", st.PolicyDecisions)
	}
	if st.QualityCounts["exact"] != 8 {
		t.Fatalf("quality %+v", st.QualityCounts)
	}
}

func TestNewRejectsUnservableFixedPolicy(t *testing.T) {
	for _, p := range []core.DecodePolicy{
		{Strategy: sphere.FSD},                        // an ablation, not a served engine
		{Strategy: sphere.RealSE, VerifyGEMM: true},   // no GEMM product to verify
		{Strategy: sphere.SortedDFS, RadiusScale: -1}, // malformed knob
	} {
		if _, err := New(Config{DecodePolicy: &p}, newFactory(t)); err == nil {
			t.Fatalf("unservable fixed policy %+v accepted", p)
		}
	}
}

// TestSetPolicyKeepsGEMMVerification: a backend built with VerifyGEMM keeps
// it under every runtime policy, so a pin that would move it onto rvd-se —
// which computes no GEMM product to verify — is refused and changes nothing.
func TestSetPolicyKeepsGEMMVerification(t *testing.T) {
	s, err := New(Config{}, func() (Backend, error) {
		return core.New(fpga.Optimized, testMIMO.Mod, testMIMO.Tx, testMIMO.Rx, core.Options{VerifyGEMM: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for _, spelling := range []string{"strategy=rvd-se", "rvd-se,radius-scale=2"} {
		if err := s.SetPolicy(spelling); err == nil {
			t.Fatalf("SetPolicy(%q) accepted on a verify-gemm backend", spelling)
		}
	}
	if got := s.PolicyMode(); got != PolicyModeDefault {
		t.Fatalf("refused pins left mode %q", got)
	}
	if err := s.SetPolicy("radius-scale=2"); err != nil {
		t.Fatalf("sorted-dfs pin on a verify-gemm backend: %v", err)
	}
}

func TestAdaptivePolicyDecidesAndObserves(t *testing.T) {
	ctrl := adapt.MustNewController(adapt.Config{Levels: adapt.DefaultLevels(sphere.SortedDFS, 4096)})
	s := newScheduler(t, Config{Controller: ctrl})
	if got := s.PolicyMode(); got != PolicyModeAdaptive {
		t.Fatalf("mode %q", got)
	}
	submitAll(t, s, 8, 2)
	st := s.Stats()
	adaptive := uint64(0)
	for src, n := range st.PolicyDecisions {
		if strings.HasPrefix(src, PolicyModeAdaptive+":") {
			adaptive += n
		}
	}
	if adaptive == 0 {
		t.Fatalf("no adaptive decisions: %+v", st.PolicyDecisions)
	}
	// The feedback loop must have populated the controller's default class.
	snaps := ctrl.Snapshot(sphere.SortedDFS)
	if len(snaps) != 1 || snaps[0].Class != "default" {
		t.Fatalf("controller classes %+v", snaps)
	}
	if snaps[0].Quality["exact"] != 8 {
		t.Fatalf("controller quality histogram %+v", snaps[0].Quality)
	}
	if snaps[0].EWMANodes <= 0 {
		t.Fatal("node EWMA never fed")
	}
}

func TestSetPolicyOverrideAndResume(t *testing.T) {
	ctrl := adapt.MustNewController(adapt.Config{Levels: adapt.DefaultLevels(sphere.SortedDFS, 4096)})
	s := newScheduler(t, Config{Controller: ctrl})

	if err := s.SetPolicy("linear"); err != nil {
		t.Fatalf("SetPolicy(linear): %v", err)
	}
	if got := s.PolicyMode(); got != PolicyModeOverride {
		t.Fatalf("mode %q after pin", got)
	}
	for _, resp := range submitAll(t, s, 4, 3) {
		if resp.Result.Quality != decoder.QualityFallback {
			t.Fatalf("pinned linear served quality %v", resp.Result.Quality)
		}
		if resp.Result.DegradedBy != decoder.DegradedByPolicy {
			t.Fatalf("pinned linear degraded-by %q", resp.Result.DegradedBy)
		}
	}

	if err := s.SetPolicy("adaptive"); err != nil {
		t.Fatalf("SetPolicy(adaptive): %v", err)
	}
	if got := s.PolicyMode(); got != PolicyModeAdaptive {
		t.Fatalf("mode %q after resume", got)
	}
	for _, resp := range submitAll(t, s, 4, 4) {
		if resp.Result.Quality != decoder.QualityExact {
			t.Fatalf("resumed adaptive served quality %v", resp.Result.Quality)
		}
	}
}

func TestSetPolicyRejectsBadSpecs(t *testing.T) {
	s := newScheduler(t, Config{}) // no controller
	if err := s.SetPolicy("adaptive"); err == nil {
		t.Fatal("adaptive accepted without a controller")
	}
	if err := s.SetPolicy("strategy=warp"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// The norm is no policy knob, and the ablation strategies are not
	// served engines.
	for _, spec := range []string{"norm=linf", "linf", "strategy=bfs", "fsd"} {
		if err := s.SetPolicy(spec); err == nil {
			t.Fatalf("SetPolicy(%q) accepted", spec)
		}
	}
}

func TestPolicyHTTPRoundTrip(t *testing.T) {
	ctrl := adapt.MustNewController(adapt.Config{Levels: adapt.DefaultLevels(sphere.SortedDFS, 4096)})
	s := newScheduler(t, Config{Controller: ctrl})
	h := NewHandler(s, testMIMO.Tx, testMIMO.Rx, "qam4")
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) map[string]any {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	if body := get("/v1/policy"); body["mode"] != "adaptive" {
		t.Fatalf("GET /v1/policy mode %v", body["mode"])
	} else if levels, ok := body["levels"].([]any); !ok || len(levels) == 0 {
		t.Fatalf("GET /v1/policy carries no ladder: %v", body["levels"])
	}
	if body := get("/v1/config"); body["policy_mode"] != "adaptive" || body["decode_policy"] != "adaptive" {
		t.Fatalf("config echo %v / %v", body["policy_mode"], body["decode_policy"])
	}

	// PUT a pin, confirm the echo flips everywhere.
	req, _ := json.Marshal(PolicyUpdate{Policy: "radius-scale=2,max-nodes=4096"})
	hreq, err := srv.Client().Do(mustNewRequest(t, "PUT", srv.URL+"/v1/policy", req))
	if err != nil {
		t.Fatal(err)
	}
	defer hreq.Body.Close()
	if hreq.StatusCode != 200 {
		t.Fatalf("PUT /v1/policy: %d", hreq.StatusCode)
	}
	var after PolicyInfo
	if err := json.NewDecoder(hreq.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if after.Mode != PolicyModeOverride || after.Policy != "radius-scale=2,max-nodes=4096" {
		t.Fatalf("PUT echo %+v", after)
	}
	if body := get("/v1/config"); body["policy_mode"] != "override" || body["decode_policy"] != "radius-scale=2,max-nodes=4096" {
		t.Fatalf("config echo after PUT: %v / %v", body["policy_mode"], body["decode_policy"])
	}

	// A bad spelling is a 400 and changes nothing. The retired fp16 key is
	// one: the half-precision GEMM datapath is no longer a policy.
	for _, spelling := range []string{"norm=linf", "radius-scale=2,fp16"} {
		bad, _ := json.Marshal(PolicyUpdate{Policy: spelling})
		resp, err := srv.Client().Do(mustNewRequest(t, "PUT", srv.URL+"/v1/policy", bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("bad PUT %q status %d", spelling, resp.StatusCode)
		}
	}
	if body := get("/v1/policy"); body["policy"] != "radius-scale=2,max-nodes=4096" {
		t.Fatalf("bad PUT mutated state: %v", body["policy"])
	}
}

// TestPolicySpellingFollowsServedEngine: a policy without strategy= runs the
// engine the backend serves, on both kinds of server, and every spelling
// GET /v1/policy echoes re-parses to the same policy there. The engine is
// observable per frame: sorted-dfs sorts children (CompareOps > 0), rvd-se
// enumerates them analytically (CompareOps == 0).
func TestPolicySpellingFollowsServedEngine(t *testing.T) {
	for _, engine := range []sphere.Strategy{sphere.RealSE, sphere.SortedDFS} {
		t.Run(engine.String(), func(t *testing.T) {
			ctrl := adapt.MustNewController(adapt.Config{Levels: adapt.DefaultLevels(engine, 4096)})
			s, err := New(Config{Controller: ctrl}, func() (Backend, error) {
				return core.New(fpga.Optimized, testMIMO.Mod, testMIMO.Tx, testMIMO.Rx,
					core.Options{ScalarEval: true, Strategy: engine})
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			servedBy := func(seed uint64) sphere.Strategy {
				t.Helper()
				resp := submitAll(t, s, 1, seed)[0]
				if resp.Result.Quality != decoder.QualityExact {
					t.Fatalf("quality %v", resp.Result.Quality)
				}
				if resp.Result.Counters.CompareOps > 0 {
					return sphere.SortedDFS
				}
				return sphere.RealSE
			}
			if got := servedBy(1); got != engine {
				t.Fatalf("adaptive server decoded on %v", got)
			}

			// The ladder is spelled relative to the engine: no strategy=,
			// and neither the ℓ∞ nor the fixed-complexity rung.
			info := s.PolicyInfo()
			if len(info.Levels) == 0 || len(info.Classes) == 0 {
				t.Fatalf("no ladder or class state echoed: %+v", info)
			}
			for _, c := range info.Classes {
				if c.Policy != info.Levels[0].Policy {
					t.Fatalf("class %q at %q spelled %q, want the exact rung's %q", c.Class, c.Level, c.Policy, info.Levels[0].Policy)
				}
			}
			for _, l := range info.Levels {
				if strings.Contains(l.Policy, "strategy=") || strings.Contains(l.Policy, "linf") || strings.Contains(l.Policy, "fsd") {
					t.Fatalf("rung %q spelled %q", l.Name, l.Policy)
				}
				if err := s.SetPolicy(l.Policy); err != nil {
					t.Fatalf("echoed rung %q does not re-parse: %v", l.Policy, err)
				}
				if got := s.PolicyInfo().Policy; got != l.Policy {
					t.Fatalf("rung %q pinned back as %q", l.Policy, got)
				}
			}

			// A pin without strategy= serves the engine; strategy=sorted-dfs
			// always selects the paper's engine, and echoes as such only
			// where it is not already the engine.
			if err := s.SetPolicy("max-nodes=4096"); err != nil {
				t.Fatal(err)
			}
			if got := s.PolicyInfo().Policy; got != "max-nodes=4096" {
				t.Fatalf("pin echoed %q", got)
			}
			if got := servedBy(2); got != engine {
				t.Fatalf("pin without strategy= decoded on %v", got)
			}
			if err := s.SetPolicy("strategy=sorted-dfs"); err != nil {
				t.Fatal(err)
			}
			want := "strategy=sorted-dfs"
			if engine == sphere.SortedDFS {
				want = "default"
			}
			if got := s.PolicyInfo().Policy; got != want {
				t.Fatalf("sorted-dfs pin echoed %q, want %q", got, want)
			}
			if got := servedBy(3); got != sphere.SortedDFS {
				t.Fatalf("strategy=sorted-dfs decoded on %v", got)
			}
			if err := s.SetPolicy(want); err != nil || servedBy(4) != sphere.SortedDFS {
				t.Fatalf("echo %q did not re-pin sorted-dfs (err %v)", want, err)
			}

			// norm=linf is refused on every engine. verify names no
			// strategy, so it is servable exactly where the engine computes
			// GEMM products: sorted-dfs.
			if err := s.SetPolicy("norm=linf"); err == nil {
				t.Fatalf("norm=linf accepted on %v", engine)
			}
			err = s.SetPolicy("verify")
			if (err == nil) != (engine == sphere.SortedDFS) {
				t.Fatalf("verify on %v: err %v", engine, err)
			}
		})
	}
}
