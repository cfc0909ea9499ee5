package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cmatrix"
	"repro/internal/serve"
)

// bodies builds the request bodies of the first two requests of w's pool.
func bodies(t *testing.T, w workload, seed uint64) [][]byte {
	t.Helper()
	frames, err := w.gen(seed, 2*w.framesPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := buildRequests(frames, w.framesPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = r.body
	}
	return out
}

func TestSeedDeterminesRequestBodies(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := bodies(t, w, 7), bodies(t, w, 7)
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("seed 7 built two different bodies for request %d", i)
				}
			}
			c := bodies(t, w, 8)
			for i := range a {
				if bytes.Equal(a[i], c[i]) {
					t.Fatalf("seeds 7 and 8 built the same body for request %d", i)
				}
			}
		})
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond: exactly ten
		{999, 0.99, 990, false}, // nine beyond
		{100, 0.50, 50, true},   // fifty beyond
		{10, 0.50, 5, false},    // five beyond
		{2000, 0.999, 1998, false},
		{11000, 0.999, 10989, true},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported support")
	}
}

// fakeFrames is a two-frame pool with known references, and okAnswer a
// single-frame answer matching both.
func fakeFrames() []frame {
	ref := []int{1, 2}
	return []frame{{H: cmatrix.NewMatrix(2, 2), Ref: ref}, {H: cmatrix.NewMatrix(2, 2), Ref: ref}}
}

func okAnswer(w http.ResponseWriter) {
	json.NewEncoder(w).Encode(serve.DecodeResponse{SymbolIndices: []int{1, 2}, Quality: "exact"})
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
		okAnswer(w)
	}))
	defer srv.Close()
	reqs := []request{{body: []byte(`{}`), frames: []int{0}}}
	p := runLoad(newClient(1), srv.URL, reqs, fakeFrames(), loadConfig{
		openLoop: true, rate: 100, clients: 1, duration: 600 * time.Millisecond,
	})
	if len(p.samples) != 60 {
		t.Fatalf("sent %d requests in 0.6s at 100/s, want 60", len(p.samples))
	}
	byDue := map[time.Duration]sample{}
	for _, s := range p.samples {
		byDue[s.due] = s
	}
	// Request 3 (due at 20ms) stalls until ~320ms; request 4 was due at
	// 30ms but could only leave after it, so ~290ms of its latency is the
	// stall, charged from when it was due.
	next := byDue[30*time.Millisecond]
	if late := next.sent - next.due; late < stall-50*time.Millisecond {
		t.Errorf("request after the stall left %v late, want about %v", late, stall-10*time.Millisecond)
	}
	if next.latency() < stall-50*time.Millisecond {
		t.Errorf("request after the stall has latency %v; the stall was not charged to it", next.latency())
	}
	if first := byDue[0]; first.latency() > 100*time.Millisecond {
		t.Errorf("request before the stall has latency %v", first.latency())
	}
}

func TestEachFailureKindCountedOnce(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct{ Kind string }
		json.NewDecoder(r.Body).Decode(&body)
		switch body.Kind {
		case "refused":
			w.WriteHeader(http.StatusTooManyRequests)
		case "status":
			w.WriteHeader(http.StatusInternalServerError)
		case "transport":
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
		case "mismatch":
			json.NewEncoder(w).Encode(serve.DecodeResponse{SymbolIndices: []int{2, 1}, Quality: "exact"})
		case "batch":
			ok := &serve.DecodeResponse{SymbolIndices: []int{1, 2}, Quality: "exact"}
			bad := &serve.DecodeResponse{SymbolIndices: []int{0, 0}, Quality: "exact"}
			json.NewEncoder(w).Encode(serve.BatchDecodeResponse{Results: []serve.BatchDecodeResult{
				{DecodeResponse: ok}, {Error: "serve: overloaded, request rejected"}, {DecodeResponse: bad},
			}})
		default:
			okAnswer(w)
		}
	}))
	defer srv.Close()
	frames := fakeFrames()
	frames = append(frames, frames[0])
	client := newClient(1)
	for _, tc := range []struct {
		kind   string
		frames []int
		want   map[failKind]int
	}{
		{"ok", []int{0}, map[failKind]int{failNone: 1}},
		{"refused", []int{0}, map[failKind]int{failRefused: 1}},
		{"status", []int{0}, map[failKind]int{failStatus: 1}},
		{"transport", []int{0}, map[failKind]int{failTransport: 1}},
		{"mismatch", []int{0}, map[failKind]int{failMismatch: 1}},
		{"refused", []int{0, 1, 2}, map[failKind]int{failRefused: 3}},
		{"batch", []int{0, 1, 2}, map[failKind]int{failNone: 1, failFrame: 1, failMismatch: 1}},
	} {
		r := request{body: []byte(`{"Kind":"` + tc.kind + `"}`), frames: tc.frames}
		s := send(client, srv.URL, r, frames, false, time.Now())
		for k := failKind(0); k < numFailKinds; k++ {
			if s.fails[k] != tc.want[k] {
				t.Errorf("%s over %d frames: %s counted %d times, want %d", tc.kind, len(tc.frames), failNames[k], s.fails[k], tc.want[k])
			}
		}
		if s.failed() != len(tc.frames)-tc.want[failNone] {
			t.Errorf("%s: failed() = %d", tc.kind, s.failed())
		}
	}
}

func TestClosedLoopStaysWithinConnectionLimit(t *testing.T) {
	var mu sync.Mutex
	conns := map[string]bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		conns[r.RemoteAddr] = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
		okAnswer(w)
	}))
	defer srv.Close()
	reqs := []request{{body: []byte(`{}`), frames: []int{0}}}
	p := runLoad(newClient(maxConns), srv.URL, reqs, fakeFrames(), loadConfig{clients: maxConns, duration: 200 * time.Millisecond})
	if n := len(p.samples); p.totals().ok != n || n == 0 {
		t.Fatalf("%d of %d requests ok", p.totals().ok, n)
	}
	if len(conns) > maxConns {
		t.Errorf("load used %d connections, limit %d", len(conns), maxConns)
	}
}

func TestFlagDefaultParsesUsage(t *testing.T) {
	usage := "Usage of sdserver:\n  -pprof\n    \texpose profiling\n  -scalar-eval\n    \tuse the scalar path (default true)\n  -strategy string\n    \ttree search\n"
	for name, want := range map[string]bool{"scalar-eval": true, "pprof": false, "missing": false} {
		if got := defaultTrue(usage, name); got != want {
			t.Errorf("defaultTrue(%q) = %v, want %v", name, got, want)
		}
	}
}
