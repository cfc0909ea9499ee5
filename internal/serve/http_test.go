package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// wireRequest converts a test input into the JSON wire form.
func wireRequest(t *testing.T, n int, seed uint64) []byte {
	t.Helper()
	in := genInputs(t, n, seed)[n-1]
	req := DecodeRequest{NoiseVar: in.NoiseVar}
	for i := 0; i < in.H.Rows; i++ {
		row := make([][2]float64, in.H.Cols)
		for j, v := range in.H.Row(i) {
			row[j] = [2]float64{real(v), imag(v)}
		}
		req.H = append(req.H, row)
	}
	for _, v := range in.Y {
		req.Y = append(req.Y, [2]float64{real(v), imag(v)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func newTestServer(t *testing.T, cfg Config) (*Scheduler, *httptest.Server) {
	t.Helper()
	s := newScheduler(t, cfg)
	srv := httptest.NewServer(NewHandler(s, testMIMO.Tx, testMIMO.Rx, "4-QAM"))
	t.Cleanup(srv.Close)
	return s, srv
}

func TestHTTPDecodeRoundTrip(t *testing.T) {
	s, srv := newTestServer(t, Config{MaxBatch: 4, MaxWait: time.Millisecond})
	resp, err := http.Post(srv.URL+"/v1/decode", "application/json", bytes.NewReader(wireRequest(t, 1, 61)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out DecodeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.SymbolIndices) != testMIMO.Tx {
		t.Fatalf("got %d symbols, want %d", len(out.SymbolIndices), testMIMO.Tx)
	}
	if len(out.Bits) != testMIMO.Tx*2 { // 4-QAM: 2 bits/symbol
		t.Fatalf("got %d bits, want %d", len(out.Bits), testMIMO.Tx*2)
	}
	if out.Quality != "exact" {
		t.Fatalf("quality %q", out.Quality)
	}
	if out.BatchSize < 1 {
		t.Fatalf("batch size %d", out.BatchSize)
	}
	if st := s.Stats(); st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", "{nope"},
		{"empty body", "{}"},
		{"ragged matrix", `{"h":[[[1,0],[0,1]],[[1,0]]],"y":[[1,0],[0,1]],"noise_var":0.1}`},
		{"bad noise var", strings.Replace(string(wireRequest(t, 1, 67)), `"noise_var":`, `"noise_var":-`, 1)},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/v1/decode", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
}

func TestHTTPConfigMetricsHealth(t *testing.T) {
	s, srv := newTestServer(t, Config{MaxBatch: 8, MaxWait: 2 * time.Millisecond, Policy: ShedToLinear})

	var info ConfigInfo
	resp, err := http.Get(srv.URL + "/v1/config")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.TxAntennas != testMIMO.Tx || info.RxAntennas != testMIMO.Rx || info.Modulation != "4-QAM" {
		t.Fatalf("config %+v", info)
	}
	if info.MaxBatch != 8 || info.Policy != "shed-to-linear" {
		t.Fatalf("config %+v", info)
	}

	// Decode one frame, then metrics must reflect it.
	resp, err = http.Post(srv.URL+"/v1/decode", "application/json", bytes.NewReader(wireRequest(t, 1, 71)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var st Stats
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Completed != 1 || st.Batches != 1 || st.QualityCounts["exact"] != 1 {
		t.Fatalf("metrics %+v", st)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	s.Close()
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/decode", "application/json", bytes.NewReader(wireRequest(t, 1, 71)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("decode after Close: %d, want 503", resp.StatusCode)
	}
}

func TestHTTPOverloadStatus(t *testing.T) {
	s, err := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, Workers: 1, QueueCap: 1, Policy: Reject},
		newSlowFactory(t, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(NewHandler(s, testMIMO.Tx, testMIMO.Rx, "4-QAM"))
	t.Cleanup(srv.Close)

	body := wireRequest(t, 1, 73)
	codes := make(chan int, 12)
	for i := 0; i < cap(codes); i++ {
		go func() {
			resp, err := http.Post(srv.URL+"/v1/decode", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	got := map[int]int{}
	for i := 0; i < cap(codes); i++ {
		got[<-codes]++
	}
	if got[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no 429s under saturation: %v", got)
	}
	if got[http.StatusOK] == 0 {
		t.Fatalf("no successes under saturation: %v", got)
	}
}

// TestHTTPBatchRejectsBeforeSubmitting: an envelope with one bad frame is
// rejected whole, and none of its good frames reach the scheduler.
func TestHTTPBatchRejectsBeforeSubmitting(t *testing.T) {
	s, srv := newTestServer(t, Config{MaxBatch: 4, MaxWait: time.Millisecond})
	var env DecodeRequest
	for i := 0; i < 15; i++ {
		var one DecodeRequest
		if err := json.Unmarshal(wireRequest(t, 1, uint64(120+i)), &one); err != nil {
			t.Fatal(err)
		}
		env.Frames = append(env.Frames, one)
	}
	ragged := env.Frames[0]
	ragged.H = append(append([][][2]float64(nil), ragged.H...), ragged.H[0][:1])
	env.Frames = append(env.Frames, ragged)
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Submitted
	resp, err := http.Post(srv.URL+"/v1/decode", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	// Give any frame that did slip through time to land in the counters.
	time.Sleep(50 * time.Millisecond)
	if after := s.Stats().Submitted; after != before {
		t.Fatalf("submitted went %d -> %d for a rejected envelope", before, after)
	}
}
