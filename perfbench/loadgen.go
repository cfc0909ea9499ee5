package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// failKind classifies why a frame counts as failed. Every attempted frame
// lands in exactly one kind.
type failKind int

const (
	failNone      failKind = iota
	failRefused            // HTTP 429
	failStatus             // any other non-200 status
	failTransport          // no HTTP answer, or an unreadable body
	failFrame              // a per-frame error inside a 200 batch answer
	failMismatch           // symbols differ from the ML reference
	numFailKinds
)

var failNames = [numFailKinds]string{"ok", "refused", "status", "transport", "frame_error", "mismatch"}

// frameLive is what the server reported for one frame (kept in traced runs).
type frameLive struct {
	pool        int // index into the frame pool
	queueWaitNS int64
	serviceNS   int64
	simulatedNS int64
	nodes       int64
	batchSize   int
}

// sample is one request's outcome. Times are offsets from the phase start.
type sample struct {
	req             int // index into the request pool
	due, sent, done time.Duration
	frames, exact   int
	fails           [numFailKinds]int
	reqBytes        int
	respBytes       int
	// serverMax is the largest queue wait + service among the request's
	// frames: the part of the latency spent inside the scheduler.
	serverMax time.Duration
	// live holds the per-frame server fields (traced runs only), and
	// answer the parsed body so the codec replay can re-encode it.
	live   []frameLive
	answer any
}

// latency is the request's latency from when it was due, which in an open
// loop includes any time the generator ran late.
func (s *sample) latency() time.Duration { return s.done - s.due }

// failed counts the request's failed frames.
func (s *sample) failed() int { return s.frames - s.fails[failNone] }

// loadConfig shapes one load phase.
type loadConfig struct {
	openLoop bool
	rate     float64 // requests/s (open loop)
	clients  int
	duration time.Duration
	// offset is the index of the first request in the cycled pool, so a
	// measured phase continues where warm-up stopped.
	offset int
	// traced keeps per-frame server fields and parsed answers.
	traced bool
}

// phase is the outcome of one load phase.
type phase struct {
	samples []sample
	// wall runs from the phase start to the last answer.
	wall time.Duration
}

// runLoad drives base with the pooled requests for cfg.duration over at most
// cfg.clients connections. In an open loop request i is due at i/rate after
// the start whatever the server does; a request that finds every connection
// busy goes out late, and its latency still counts from when it was due.
func runLoad(client *http.Client, base string, reqs []request, frames []frame, cfg loadConfig) phase {
	var (
		mu      sync.Mutex
		samples []sample
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	interval := time.Duration(0)
	if cfg.openLoop {
		interval = time.Duration(float64(time.Second) / cfg.rate)
	}
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for {
				i := int(next.Add(1) - 1)
				var due time.Duration
				if cfg.openLoop {
					due = time.Duration(i) * interval
					if due >= cfg.duration {
						break
					}
					if wait := due - time.Since(start); wait > 0 {
						time.Sleep(wait)
					}
				} else {
					due = time.Since(start)
					if due >= cfg.duration {
						break
					}
				}
				ri := (cfg.offset + i) % len(reqs)
				sm := send(client, base, reqs[ri], frames, cfg.traced, start)
				sm.req, sm.due = ri, due
				local = append(local, sm)
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p := phase{samples: samples}
	for _, s := range samples {
		if s.done > p.wall {
			p.wall = s.done
		}
	}
	return p
}

// send posts one request and scores the answer against the ML references;
// sent and done are offsets from start.
func send(client *http.Client, base string, r request, frames []frame, traced bool, start time.Time) sample {
	sm := sample{frames: len(r.frames), reqBytes: len(r.body)}
	sm.sent = time.Since(start)
	status, body, err := post(client, base+"/v1/decode", r.body)
	sm.done = time.Since(start)
	sm.respBytes = len(body)
	score(&sm, status, body, err, r, frames, traced)
	return sm
}

// post sends body and reads the whole answer.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// score classifies every frame of one answer into exactly one failKind and
// tallies exact-quality frames.
func score(sm *sample, status int, body []byte, err error, r request, frames []frame, traced bool) {
	failAll := func(k failKind) { sm.fails[k] += len(r.frames) }
	switch {
	case err != nil:
		failAll(failTransport)
		return
	case status == http.StatusTooManyRequests:
		failAll(failRefused)
		return
	case status != http.StatusOK:
		failAll(failStatus)
		return
	}
	var answers []*serve.DecodeResponse
	var frameErrs []string
	if len(r.frames) == 1 {
		var one serve.DecodeResponse
		if json.Unmarshal(body, &one) != nil {
			failAll(failTransport)
			return
		}
		answers, frameErrs = []*serve.DecodeResponse{&one}, []string{""}
		if traced {
			sm.answer = &one
		}
	} else {
		var batch serve.BatchDecodeResponse
		if json.Unmarshal(body, &batch) != nil || len(batch.Results) != len(r.frames) {
			failAll(failTransport)
			return
		}
		for _, res := range batch.Results {
			answers = append(answers, res.DecodeResponse)
			frameErrs = append(frameErrs, res.Error)
		}
		if traced {
			sm.answer = &batch
		}
	}
	for k, a := range answers {
		idx := r.frames[k]
		switch {
		case frameErrs[k] != "" || a == nil:
			sm.fails[failFrame]++
			continue
		case !slices.Equal(a.SymbolIndices, frames[idx].Ref):
			sm.fails[failMismatch]++
		default:
			sm.fails[failNone]++
		}
		if a.Quality == "exact" {
			sm.exact++
		}
		if d := time.Duration(a.QueueWaitNS + a.ServiceNS); d > sm.serverMax {
			sm.serverMax = d
		}
		if traced {
			sm.live = append(sm.live, frameLive{
				pool: idx, queueWaitNS: a.QueueWaitNS, serviceNS: a.ServiceNS,
				simulatedNS: a.SimulatedNS, nodes: a.NodesExplored, batchSize: a.BatchSize,
			})
		}
	}
}

// totals sums a phase's frame accounting.
type totals struct {
	frames, ok, exact int
	fails             [numFailKinds]int
}

func (p phase) totals() totals {
	var t totals
	for i := range p.samples {
		s := &p.samples[i]
		t.frames += s.frames
		t.exact += s.exact
		for k, n := range s.fails {
			t.fails[k] += n
		}
	}
	t.ok = t.fails[failNone]
	return t
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}
