// Command sdload is a load generator for sdserver: it discovers the
// server's MIMO configuration, draws Monte-Carlo frames to match, and fires
// decode requests in either closed-loop (fixed concurrency, next request
// leaves when the previous returns) or open-loop (fixed arrival rate,
// latency reveals queueing) mode, then reports throughput, latency
// percentiles, observed batch sizes, and the decode-quality mix.
//
// Usage:
//
//	sdload -addr http://localhost:8080 -duration 5s -conc 8          # closed loop
//	sdload -addr http://localhost:8080 -duration 5s -rate 2000       # open loop
//
// The exit status is 1 if fewer than -min-ok requests succeed, which lets
// CI smoke tests assert liveness (`make serve-smoke`).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	mimosd "repro"
	"repro/internal/ofdm/scenario"
	"repro/internal/serve"
)

// sample is one request's outcome.
type sample struct {
	latency   time.Duration
	status    int
	batchSize int
	quality   string
	shed      bool
	target    string
	scenario  string
}

// targetSummary is one endpoint's slice of a multi-target run: where the
// latency and errors actually landed when -targets spreads load over several
// shards or proxies.
type targetSummary struct {
	Requests        int           `json:"requests"`
	OK              int           `json:"ok"`
	Rejected        int           `json:"rejected"`
	Errors          int           `json:"errors"`
	TransportErrors int           `json:"transport_errors"`
	Throughput      float64       `json:"throughput_rps"`
	P50             time.Duration `json:"p50_ns"`
	P95             time.Duration `json:"p95_ns"`
	MaxLatency      time.Duration `json:"max_ns"`
}

// summary aggregates a run.
type summary struct {
	Requests int `json:"requests"`
	OK       int `json:"ok"`
	Rejected int `json:"rejected"` // HTTP 429
	// Errors counts HTTP-level failures (the server answered with a non-OK,
	// non-429 status); TransportErrors counts requests that never got an
	// HTTP answer at all (dial/read failures, malformed bodies). The chaos
	// smoke asserts TransportErrors == 0: under fault injection every frame
	// must still be answered or typed-rejected, never dropped on the floor.
	Errors          int            `json:"errors"`
	TransportErrors int            `json:"transport_errors"`
	Elapsed         time.Duration  `json:"elapsed_ns"`
	Throughput      float64        `json:"throughput_rps"`
	P50             time.Duration  `json:"p50_ns"`
	P95             time.Duration  `json:"p95_ns"`
	P99             time.Duration  `json:"p99_ns"`
	MaxLatency      time.Duration  `json:"max_ns"`
	MeanBatchSize   float64        `json:"mean_batch_size"`
	Quality         map[string]int `json:"quality"`
	Shed            int            `json:"shed"`

	// Server-side runtime health, copied from a final GET /metrics (zero if
	// the fetch failed): cumulative GC pause and allocations per decoded
	// frame — the live regression signal for the zero-alloc hot path.
	GCPauseNs         uint64  `json:"go_gc_pause_ns"`
	DecodeAllocsPerOp float64 `json:"decode_allocs_per_op"`

	// PerTarget splits the run by endpoint when -targets names more than
	// one; nil for single-target runs.
	PerTarget map[string]targetSummary `json:"per_target,omitempty"`

	// PerScenario splits a -scenario run by workload: quality mix, BER vs
	// the ZF floor, latency percentiles, transport errors, the server-side
	// QR-cache split, and the SLO verdict. Nil outside scenario mode.
	PerScenario map[string]scenarioReport `json:"per_scenario,omitempty"`
}

// percentile returns the p-quantile (0..1) of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// summarize reduces samples to a report.
func summarize(samples []sample, elapsed time.Duration) summary {
	s := summary{Requests: len(samples), Elapsed: elapsed, Quality: map[string]int{}}
	var lats []time.Duration
	batchSum := 0
	for _, sm := range samples {
		switch {
		case sm.status == http.StatusOK:
			s.OK++
			lats = append(lats, sm.latency)
			batchSum += sm.batchSize
			s.Quality[sm.quality]++
			if sm.shed {
				s.Shed++
			}
		case sm.status == http.StatusTooManyRequests:
			s.Rejected++
		case sm.status < 0:
			s.TransportErrors++
		default:
			s.Errors++
		}
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	s.P50 = percentile(lats, 0.50)
	s.P95 = percentile(lats, 0.95)
	s.P99 = percentile(lats, 0.99)
	if len(lats) > 0 {
		s.MaxLatency = lats[len(lats)-1]
	}
	if s.OK > 0 {
		s.MeanBatchSize = float64(batchSum) / float64(s.OK)
	}
	if elapsed > 0 {
		s.Throughput = float64(s.OK) / elapsed.Seconds()
	}
	return s
}

// splitByTarget reduces samples to per-endpoint summaries (nil when every
// sample hit the same single target).
func splitByTarget(samples []sample, elapsed time.Duration, targets []string) map[string]targetSummary {
	if len(targets) < 2 {
		return nil
	}
	lats := map[string][]time.Duration{}
	out := map[string]targetSummary{}
	for _, sm := range samples {
		ts := out[sm.target]
		ts.Requests++
		switch {
		case sm.status == http.StatusOK:
			ts.OK++
			lats[sm.target] = append(lats[sm.target], sm.latency)
		case sm.status == http.StatusTooManyRequests:
			ts.Rejected++
		case sm.status < 0:
			ts.TransportErrors++
		default:
			ts.Errors++
		}
		out[sm.target] = ts
	}
	for tgt, ts := range out {
		l := lats[tgt]
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		ts.P50 = percentile(l, 0.50)
		ts.P95 = percentile(l, 0.95)
		if len(l) > 0 {
			ts.MaxLatency = l[len(l)-1]
		}
		if elapsed > 0 {
			ts.Throughput = float64(ts.OK) / elapsed.Seconds()
		}
		out[tgt] = ts
	}
	return out
}

// waitReady polls GET /healthz with short exponential backoff until the
// server answers at all — any HTTP status counts (a draining or degraded
// server is up, just not ok), only transport errors keep us waiting. This
// absorbs the connection-refused window when a smoke script starts sdload
// and sdserver together.
func waitReady(client *http.Client, addr string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	backoff := 20 * time.Millisecond
	var lastErr error
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return fmt.Errorf("server not reachable after %v: %w", patience, lastErr)
		}
		time.Sleep(backoff)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// fetchConfig polls GET /v1/config until the server answers (it may still
// be booting when a smoke script starts us) or the patience runs out.
func fetchConfig(client *http.Client, addr string, patience time.Duration) (*serve.ConfigInfo, error) {
	deadline := time.Now().Add(patience)
	var lastErr error
	for {
		resp, err := client.Get(addr + "/v1/config")
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				var info serve.ConfigInfo
				err = json.NewDecoder(resp.Body).Decode(&info)
				resp.Body.Close()
				if err == nil {
					return &info, nil
				}
				lastErr = err
			} else {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lastErr = fmt.Errorf("config endpoint: HTTP %d", resp.StatusCode)
			}
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server not reachable after %v: %w", patience, lastErr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// targetMetrics is the part of a GET /metrics body sdload reads. Decoding
// only these fields lets the fetch work against sdproxy too, whose /metrics
// differs from a shard's elsewhere (sdc_detected is a total there and a
// per-site map on a shard).
type targetMetrics struct {
	GCPauseNs         uint64                         `json:"go_gc_pause_ns"`
	DecodeAllocsPerOp float64                        `json:"decode_allocs_per_op"`
	Scenarios         map[string]serve.ScenarioStats `json:"scenarios"`
}

// fetchMetrics grabs one metrics snapshot from GET /metrics.
func fetchMetrics(client *http.Client, addr string) (*targetMetrics, error) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("metrics endpoint: HTTP %d", resp.StatusCode)
	}
	var st targetMetrics
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// buildBodies pre-marshals a pool of request bodies matching the server's
// MIMO configuration so the hot loop only does HTTP.
func buildBodies(info *serve.ConfigInfo, snrDB float64, pool int, seed uint64) ([][]byte, error) {
	cfg := mimosd.Config{TxAntennas: info.TxAntennas, RxAntennas: info.RxAntennas, Modulation: info.Modulation}
	bodies := make([][]byte, pool)
	for i := range bodies {
		l, err := mimosd.RandomLink(cfg, snrDB, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		req := serve.DecodeRequest{NoiseVar: l.NoiseVar}
		for _, row := range l.H {
			wr := make([][2]float64, len(row))
			for j, v := range row {
				wr[j] = [2]float64{real(v), imag(v)}
			}
			req.H = append(req.H, wr)
		}
		for _, v := range l.Y {
			req.Y = append(req.Y, [2]float64{real(v), imag(v)})
		}
		if bodies[i], err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// fire sends one request and records the outcome.
func fire(client *http.Client, addr string, body []byte) sample {
	start := time.Now()
	resp, err := client.Post(addr+"/v1/decode", "application/json", bytes.NewReader(body))
	if err != nil {
		return sample{latency: time.Since(start), status: -1, target: addr}
	}
	defer resp.Body.Close()
	sm := sample{status: resp.StatusCode, target: addr}
	if resp.StatusCode == http.StatusOK {
		var out serve.DecodeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			sm.status = -1
		} else {
			sm.batchSize = out.BatchSize
			sm.quality = out.Quality
			sm.shed = out.Shed
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	sm.latency = time.Since(start)
	return sm
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "sdserver base URL")
		targetsF = flag.String("targets", "", "comma-separated endpoints to spread load over round-robin (overrides -addr); the summary adds per-target splits")
		duration = flag.Duration("duration", 5*time.Second, "run length")
		conc     = flag.Int("conc", 8, "closed-loop concurrency (ignored when -rate > 0)")
		rate     = flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
		snr      = flag.Float64("snr", 12, "SNR (dB) of the generated frames")
		pool     = flag.Int("pool", 128, "distinct pre-generated frames to cycle through")
		seed     = flag.Uint64("seed", 1, "RNG seed for frame generation")
		minOK    = flag.Int("min-ok", 0, "exit 1 unless at least this many requests succeed")
		patience = flag.Duration("patience", 5*time.Second, "how long to wait for the server to come up")
		jsonOut  = flag.Bool("json", false, "emit the summary as JSON instead of text")
		scenF    = flag.String("scenario", "", "run named OFDM scenarios (comma-separated, or \"all\") instead of random load; -seed drives the whole frame sequence")
		noSLO    = flag.Bool("no-slo", false, "report SLO violations without failing the exit status (scenario mode)")
		listScen = flag.Bool("list-scenarios", false, "list the shipped scenario names and exit")
	)
	flag.Parse()

	if *listScen {
		for _, sc := range scenario.All() {
			fmt.Printf("%-20s %d frames  %s\n", sc.Name, sc.Frames(), sc.Description)
		}
		return
	}

	// The default transport keeps only two idle connections per host, which
	// serializes a high-rate open loop on connection setup; let the pool
	// match the offered concurrency.
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        2048,
			MaxIdleConnsPerHost: 2048,
		},
	}
	targets := []string{*addr}
	if *targetsF != "" {
		targets = targets[:0]
		for _, t := range strings.Split(*targetsF, ",") {
			if t = strings.TrimRight(strings.TrimSpace(t), "/"); t != "" {
				targets = append(targets, t)
			}
		}
		if len(targets) == 0 {
			log.Fatal("sdload: -targets named no usable endpoints")
		}
	}
	for _, t := range targets {
		if err := waitReady(client, t, *patience); err != nil {
			log.Fatalf("sdload: %v", err)
		}
	}
	info, err := fetchConfig(client, targets[0], *patience)
	if err != nil {
		log.Fatalf("sdload: %v", err)
	}
	if *scenF != "" {
		runScenarioMode(client, targets, info, scenarioModeOptions{
			arg: *scenF, seed: *seed, conc: *conc,
			jsonOut: *jsonOut, noSLO: *noSLO, minOK: *minOK,
		})
		return
	}
	bodies, err := buildBodies(info, *snr, *pool, *seed)
	if err != nil {
		log.Fatalf("sdload: generating frames: %v", err)
	}

	var (
		mu      sync.Mutex
		samples []sample
	)
	record := func(sm sample) {
		mu.Lock()
		samples = append(samples, sm)
		mu.Unlock()
	}

	start := time.Now()
	stop := start.Add(*duration)
	var wg sync.WaitGroup
	if *rate > 0 {
		// Open loop: arrivals at a fixed rate regardless of completions.
		// Tickers coalesce above ~1 kHz, so each tick fires however many
		// arrivals are due by now rather than exactly one.
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		// Bound in-flight requests so a saturated server degrades the load
		// generator gracefully instead of drowning it in goroutines;
		// arrivals past the bound are dropped client-side and reported.
		inflight := make(chan struct{}, 2048)
		fired, droppedClient := 0, 0
		for now := range ticker.C {
			if now.After(stop) {
				break
			}
			due := int(now.Sub(start).Seconds() * *rate)
			for ; fired < due; fired++ {
				body := bodies[fired%len(bodies)]
				select {
				case inflight <- struct{}{}:
				default:
					droppedClient++
					continue
				}
				tgt := targets[fired%len(targets)]
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-inflight }()
					record(fire(client, tgt, body))
				}()
			}
		}
		if droppedClient > 0 {
			fmt.Fprintf(os.Stderr, "sdload: %d arrivals dropped client-side (in-flight cap)\n", droppedClient)
		}
	} else {
		// Closed loop: conc workers, each back-to-back.
		for w := 0; w < *conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; time.Now().Before(stop); i += *conc {
					record(fire(client, targets[i%len(targets)], bodies[i%len(bodies)]))
				}
			}(w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	s := summarize(samples, elapsed)
	s.PerTarget = splitByTarget(samples, elapsed, targets)
	if st, err := fetchMetrics(client, targets[0]); err != nil {
		fmt.Fprintf(os.Stderr, "sdload: metrics fetch failed: %v\n", err)
	} else {
		s.GCPauseNs = st.GCPauseNs
		s.DecodeAllocsPerOp = st.DecodeAllocsPerOp
	}
	if *jsonOut {
		out, _ := json.MarshalIndent(s, "", "  ")
		fmt.Println(string(out))
	} else {
		mode := fmt.Sprintf("closed-loop conc=%d", *conc)
		if *rate > 0 {
			mode = fmt.Sprintf("open-loop rate=%g/s", *rate)
		}
		engine := ""
		if info.Strategy != "" {
			engine = fmt.Sprintf(", %s/%s", info.Strategy, info.Norm)
		}
		fmt.Printf("sdload: %s against %s (%dx%d %s%s)\n", mode, strings.Join(targets, ", "), info.TxAntennas, info.RxAntennas, info.Modulation, engine)
		fmt.Printf("  requests    %d (ok %d, rejected %d, errors %d, transport %d) in %v\n",
			s.Requests, s.OK, s.Rejected, s.Errors, s.TransportErrors, elapsed.Round(time.Millisecond))
		fmt.Printf("  throughput  %.1f req/s\n", s.Throughput)
		fmt.Printf("  latency     p50 %v  p95 %v  p99 %v  max %v\n", s.P50, s.P95, s.P99, s.MaxLatency)
		fmt.Printf("  batch size  mean %.2f (server-side coalescing)\n", s.MeanBatchSize)
		fmt.Printf("  quality     %v  shed %d\n", s.Quality, s.Shed)
		fmt.Printf("  server      gc pause %v total, %.1f allocs/frame\n",
			time.Duration(s.GCPauseNs), s.DecodeAllocsPerOp)
		if len(s.PerTarget) > 0 {
			tgts := make([]string, 0, len(s.PerTarget))
			for t := range s.PerTarget {
				tgts = append(tgts, t)
			}
			sort.Strings(tgts)
			for _, t := range tgts {
				ts := s.PerTarget[t]
				fmt.Printf("  target %-28s ok %d  rejected %d  errors %d  transport %d  p50 %v  p95 %v\n",
					t, ts.OK, ts.Rejected, ts.Errors, ts.TransportErrors, ts.P50, ts.P95)
			}
		}
	}
	if s.OK < *minOK {
		fmt.Fprintf(os.Stderr, "sdload: only %d ok responses, need %d\n", s.OK, *minOK)
		os.Exit(1)
	}
}
