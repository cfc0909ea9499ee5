package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestSchedulerTracePublish: with a hub subscriber, every decoded request
// yields one schema-valid wire frame whose tallies match the decode the
// client saw.
func TestSchedulerTracePublish(t *testing.T) {
	s := newScheduler(t, Config{MaxBatch: 4, MaxWait: time.Millisecond})
	ch := s.Traces().Subscribe(8)
	defer s.Traces().Unsubscribe(ch)

	in := genInputs(t, 1, 31)[0]
	resp, err := s.Submit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}

	var f *trace.Frame
	select {
	case f = <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("no trace frame published within 2s")
	}
	line, err := f.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ValidateFrame(line); err != nil {
		t.Fatalf("published frame fails schema validation: %v\n%s", err, line)
	}
	if f.Source != "serve" {
		t.Fatalf("source %q", f.Source)
	}
	if f.NodesVisited != resp.Result.Counters.NodesExpanded {
		t.Fatalf("frame visits %d, decode reported %d", f.NodesVisited, resp.Result.Counters.NodesExpanded)
	}
	if f.Quality != resp.Result.Quality.String() {
		t.Fatalf("frame quality %q, decode %q", f.Quality, resp.Result.Quality)
	}
	if f.BatchSpanID == 0 {
		t.Fatal("frame carries no batch span")
	}
	names := map[string]bool{}
	for _, sp := range f.Spans {
		names[sp.Name] = true
		if sp.Name != "batch" && sp.ParentID != f.BatchSpanID {
			t.Fatalf("span %q not parented on the batch span", sp.Name)
		}
	}
	for _, want := range []string{"batch", "queue-wait", "batch-form", "preprocess", "search", "respond"} {
		if !names[want] {
			t.Fatalf("missing span %q (have %v)", want, names)
		}
	}
}

// TestSchedulerTraceInactive: with no subscribers, no frames accumulate and
// the dispatch path never arms tracing.
func TestSchedulerTraceInactive(t *testing.T) {
	s := newScheduler(t, Config{MaxBatch: 2, MaxWait: time.Millisecond})
	if s.Traces().Active() {
		t.Fatal("hub active with no subscribers")
	}
	for _, in := range genInputs(t, 3, 37) {
		if _, err := s.Submit(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	// Subscribing now must not replay anything: publication is live-only.
	ch := s.Traces().Subscribe(4)
	defer s.Traces().Unsubscribe(ch)
	select {
	case f := <-ch:
		t.Fatalf("frame %d published from an untraced batch", f.FrameID)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestHTTPTraceStream: GET /v1/trace streams newline-delimited frames that
// validate against the wire schema, and ends after the requested count.
func TestHTTPTraceStream(t *testing.T) {
	s, srv := newTestServer(t, Config{MaxBatch: 4, MaxWait: time.Millisecond})

	const want = 3
	type streamOut struct {
		lines [][]byte
		err   error
	}
	done := make(chan streamOut, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/trace?frames=" + "3")
		if err != nil {
			done <- streamOut{err: err}
			return
		}
		defer resp.Body.Close()
		var out streamOut
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			out.lines = append(out.lines, append([]byte(nil), sc.Bytes()...))
		}
		out.err = sc.Err()
		done <- out
	}()

	// Wait for the stream to arm tracing before generating traffic.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Traces().Active() {
		if time.Now().After(deadline) {
			t.Fatal("trace subscription never became active")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < want+1; i++ { // one spare in case a publish races the arm
		resp, err := http.Post(srv.URL+"/v1/decode", "application/json", bytes.NewReader(wireRequest(t, 1, uint64(80+i))))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if len(out.lines) != want {
			t.Fatalf("streamed %d lines, want %d", len(out.lines), want)
		}
		for i, line := range out.lines {
			if _, err := trace.ValidateFrame(line); err != nil {
				t.Fatalf("line %d fails schema validation: %v\n%s", i, err, line)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("trace stream did not complete")
	}

	if resp, err := http.Get(srv.URL + "/v1/trace?frames=nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad frames param: status %d, want 400", resp.StatusCode)
		}
	}
}

// TestHTTPAPIVersionAndTypedErrors: every /v1 body carries api_version, and
// error envelopes carry a machine-readable code — including unknown-field
// rejection.
func TestHTTPAPIVersionAndTypedErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{MaxBatch: 2, MaxWait: time.Millisecond})

	resp, err := http.Post(srv.URL+"/v1/decode", "application/json", bytes.NewReader(wireRequest(t, 1, 83)))
	if err != nil {
		t.Fatal(err)
	}
	var out DecodeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.APIVersion != APIVersion {
		t.Fatalf("decode api_version %q, want %q", out.APIVersion, APIVersion)
	}

	var info ConfigInfo
	resp, err = http.Get(srv.URL + "/v1/config")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.APIVersion != APIVersion {
		t.Fatalf("config api_version %q, want %q", info.APIVersion, APIVersion)
	}

	cases := []struct {
		name string
		body string
		code string
	}{
		{"unknown field", `{"h":[[[1,0]]],"y":[[1,0]],"noise_var":0.1,"surprise":1}`, CodeBadRequest},
		{"mixed forms", `{"h":[[[1,0]]],"frames":[{"h":[[[1,0]]],"y":[[1,0]],"noise_var":0.1}]}`, CodeBadRequest},
		{"nested frames", `{"frames":[{"frames":[{"h":[[[1,0]]]}]}]}`, CodeBadRequest},
		{"undecodable shape", `{"h":[[[1,0]]],"y":[[1,0],[0,1]],"noise_var":0.1}`, CodeInvalidInput},
		{"empty first row", `{"h":[[]],"y":[[1,0]],"noise_var":0.1}`, CodeBadRequest},
		{"empty rows in an envelope", `{"frames":[{"h":[[[1,0]]],"y":[[1,0]],"noise_var":0.1},{"h":[[],[]]}]}`, CodeBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/v1/decode", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s: decoding error envelope: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		if eb.Code != c.code {
			t.Errorf("%s: code %q, want %q", c.name, eb.Code, c.code)
		}
		if eb.Error == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}
}

// TestHTTPBatchDecode: the frames form decodes every frame and answers with
// per-frame results in request order.
func TestHTTPBatchDecode(t *testing.T) {
	s, srv := newTestServer(t, Config{MaxBatch: 4, MaxWait: 2 * time.Millisecond})
	const n = 5
	var env DecodeRequest
	for i := 0; i < n; i++ {
		var one DecodeRequest
		if err := json.Unmarshal(wireRequest(t, 1, uint64(90+i)), &one); err != nil {
			t.Fatal(err)
		}
		env.Frames = append(env.Frames, one)
	}
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/decode", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out BatchDecodeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.APIVersion != APIVersion {
		t.Fatalf("api_version %q", out.APIVersion)
	}
	if len(out.Results) != n {
		t.Fatalf("%d results for %d frames", len(out.Results), n)
	}
	for i, res := range out.Results {
		if res.Error != "" {
			t.Fatalf("frame %d errored: %s", i, res.Error)
		}
		if res.DecodeResponse == nil || res.Quality != "exact" {
			t.Fatalf("frame %d: %+v", i, res)
		}
	}
	st := s.Stats()
	if st.Completed != n {
		t.Fatalf("completed %d, want %d", st.Completed, n)
	}
	// Concurrent submission must have let the batcher coalesce: fewer
	// dispatches than frames.
	if st.Batches >= n {
		t.Logf("warning: no coalescing observed (batches=%d)", st.Batches)
	}
}

// TestHTTPMetricsPrometheus: /metrics stays JSON by default and renders the
// text exposition on request.
func TestHTTPMetricsPrometheus(t *testing.T) {
	_, srv := newTestServer(t, Config{MaxBatch: 2, MaxWait: time.Millisecond})
	resp, err := http.Post(srv.URL+"/v1/decode", "application/json", bytes.NewReader(wireRequest(t, 1, 97)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default /metrics content type %q, want JSON", ct)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Completed != 1 {
		t.Fatalf("completed %d", st.Completed)
	}

	resp, err = http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"# TYPE mimosd_requests_completed_total counter",
		"mimosd_requests_completed_total 1",
		"# TYPE mimosd_service_seconds histogram",
		`mimosd_service_seconds_bucket{le="+Inf"} 1`,
		`mimosd_frames_by_quality_total{quality="exact"} 1`,
		"mimosd_queue_depth",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}

	req, err := http.NewRequest("GET", srv.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Accept negotiation gave content type %q", ct)
	}
}
