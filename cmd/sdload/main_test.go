package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.99); got != 0 {
		t.Fatalf("empty percentile %v", got)
	}
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond // sorted 1..100ms
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
		{0.0, 1 * time.Millisecond},
	}
	for _, c := range cases {
		if got := percentile(lats, c.p); got != c.want {
			t.Errorf("p%.0f = %v, want %v", c.p*100, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := []sample{
		{latency: 2 * time.Millisecond, status: http.StatusOK, batchSize: 4, quality: "exact"},
		{latency: 4 * time.Millisecond, status: http.StatusOK, batchSize: 2, quality: "exact"},
		{latency: 1 * time.Millisecond, status: http.StatusOK, batchSize: 3, quality: "fallback", shed: true},
		{latency: time.Millisecond, status: http.StatusTooManyRequests},
		{latency: time.Millisecond, status: http.StatusInternalServerError},
		{latency: time.Millisecond, status: -1}, // transport failure: no HTTP answer at all
	}
	s := summarize(samples, time.Second)
	if s.Requests != 6 || s.OK != 3 || s.Rejected != 1 || s.Errors != 1 || s.TransportErrors != 1 {
		t.Fatalf("summary %+v", s)
	}
	if s.Throughput != 3 {
		t.Fatalf("throughput %v", s.Throughput)
	}
	if s.MeanBatchSize != 3 {
		t.Fatalf("mean batch size %v", s.MeanBatchSize)
	}
	if s.Quality["exact"] != 2 || s.Quality["fallback"] != 1 || s.Shed != 1 {
		t.Fatalf("quality %+v shed %d", s.Quality, s.Shed)
	}
	if s.MaxLatency != 4*time.Millisecond || s.P50 != 2*time.Millisecond {
		t.Fatalf("latency %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := summarize(nil, 0)
	if s.Requests != 0 || s.Throughput != 0 || s.P99 != 0 || s.MeanBatchSize != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

// TestFetchMetricsShapes: the metrics fetch reads a shard's /metrics and
// also sdproxy's, whose sdc_detected is a number where a shard's is a
// per-site map.
func TestFetchMetricsShapes(t *testing.T) {
	bodies := map[string]any{
		"shard": serve.Stats{
			GCPauseNs: 1234, DecodeAllocsPerOp: 2.5,
			SDCDetected: map[string]uint64{"gemm": 1},
			Scenarios:   map[string]serve.ScenarioStats{"grid": {QRCacheHits: 7, QRCacheMisses: 1}},
		},
		"proxy": cluster.Stats{
			Health: "ok", SDCDetected: 3,
			Scenarios: map[string]cluster.ScenarioStats{"grid": {Submitted: 8, OK: 8}},
		},
	}
	for name, body := range bodies {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if err := json.NewEncoder(w).Encode(body); err != nil {
				t.Error(err)
			}
		}))
		st, err := fetchMetrics(srv.Client(), srv.URL)
		srv.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "shard" && (st.GCPauseNs != 1234 || st.DecodeAllocsPerOp != 2.5 || st.Scenarios["grid"].QRCacheHits != 7) {
			t.Errorf("shard metrics read as %+v", st)
		}
	}
}
