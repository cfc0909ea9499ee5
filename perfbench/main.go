// Command perfbench measures what a frame served by sdserver costs, end to
// end and layer by layer. It builds its inputs from a seed, launches the
// repository's own sdserver binary on loopback, drives it over at most two
// connections, checks every answer against an in-process maximum-likelihood
// reference, and prints one JSON result line.
//
// Usage (from the repository root, through the wrapper that builds both
// binaries):
//
//	bash perfbench/run.sh --workload grid-dense --seed 1 --seconds 55 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced and
// a traced load phase on the same server, replays the traced frames through
// each layer's public functions, reports the per-layer metrics and writes
// the span file. The exit status is nonzero when any frame failed or
// disagreed with its reference.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// setupRuns is how many times a run launches the server to time set-up,
// half before the load and half after it, so that the launches fall in
// different episodes of the host's varying CPU speed; the median is
// reported.
const setupRuns = 8

// warmup is the untimed load phase that fills the QR cache, the connection
// pool and the server's heap before measuring.
const warmup = 2 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContext records what a result was measured on.
type runContext struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       int               `json:"trace"`
	ServerFlags []string          `json:"sdserver_flags"`
	Config      *serve.ConfigInfo `json:"server_config"`
	CPUs        int               `json:"cpus"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	GoVersion   string            `json:"go_version"`
	SetupRunsS  []float64         `json:"setup_runs_s"`
	Requests    int               `json:"requests"`
	Failures    map[string]int    `json:"failures"`
	// Reported holds the end-to-end metrics that BENCHMARK.json does not
	// gate (their run-to-run spread on a shared 2-CPU host exceeds any
	// usable bound), and, in a traced run, the untraced phase's gated ones.
	Reported map[string]metric `json:"reported_metrics"`
	Notes    []string          `json:"notes,omitempty"`
}

// liveServers tracks started servers so a signal can stop them.
var liveServers struct {
	sync.Mutex
	set map[*server]bool
}

func track(s *server, on bool) {
	liveServers.Lock()
	defer liveServers.Unlock()
	if liveServers.set == nil {
		liveServers.set = map[*server]bool{}
	}
	if on {
		liveServers.set[s] = true
	} else {
		delete(liveServers.set, s)
	}
}

func main() {
	var (
		name      = flag.String("workload", "", "workload name: grid-dense, mimo-search or frame-stream")
		seed      = flag.Uint64("seed", 1, "input seed (the default seed is 1)")
		seconds   = flag.Int("seconds", 55, "seconds of measured load; a traced run splits them between an untraced and a traced phase")
		traceF    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		serverBin = flag.String("server-bin", "", "path to the sdserver binary")
		outDir    = flag.String("out-dir", ".bench_build/perfbench", "directory for server logs, span files and result records")
	)
	flag.Parse()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		liveServers.Lock()
		for s := range liveServers.set {
			s.stop()
		}
		os.Exit(1)
	}()

	ok, err := run(*name, *seed, *seconds, *traceF, *serverBin, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its result; ok is false when
// any frame failed or a cross-check did not hold.
func run(name string, seed uint64, seconds, traced int, serverBin, outDir string) (bool, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return false, err
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return false, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat(serverBin); err != nil {
		return false, fmt.Errorf("sdserver binary: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	in, err := prepare(w, seed)
	if err != nil {
		return false, err
	}
	ctx := runContext{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}

	// Set-up: launch the server several times; the median exec → first
	// decode is setup_s. The last launch before the load carries it.
	var setups []float64
	launch := func(k int) (*server, error) {
		logPath := filepath.Join(outDir, fmt.Sprintf("sdserver-%s-%d.log", w.name, k))
		s, err := startServer(serverBin, w.serverArgs, logPath, in.probe, in.frames[0].Ref)
		if err != nil {
			return nil, err
		}
		track(s, true)
		setups = append(setups, s.setup.Seconds())
		return s, nil
	}
	stop := func(s *server) {
		s.stop()
		track(s, false)
	}
	var srv *server
	for k := 0; k < setupRuns/2; k++ {
		if srv != nil {
			stop(srv)
		}
		if srv, err = launch(k); err != nil {
			return false, err
		}
	}
	defer stop(srv)
	ctx.ServerFlags = srv.args

	client := newClient(maxConns)
	var info serve.ConfigInfo
	if err := getJSON(client, srv.base+"/v1/config", &info); err != nil {
		return false, err
	}
	ctx.Config = &info

	cfg := loadConfig{openLoop: w.openLoop, rate: w.rate, clients: w.clients, duration: warmup}
	warm := runLoad(client, srv.base, in.reqs, in.frames, cfg)
	cfg.offset += len(warm.samples)
	// A traced run splits its time between an untraced and a traced phase
	// of equal length; their difference is the tracing overhead.
	phaseSeconds := seconds
	if traced == 1 {
		phaseSeconds = max(seconds/2, 1)
	}
	cfg.duration = time.Duration(phaseSeconds) * time.Second

	plain, err := measure(client, srv, in, cfg)
	if err != nil {
		return false, err
	}
	cfg.offset += len(plain.phase.samples)
	all := []*measured{plain}
	var tr *measured
	if traced == 1 {
		cfg.traced = true
		if tr, err = measure(client, srv, in, cfg); err != nil {
			return false, err
		}
		all = append(all, tr)
	}
	for k := setupRuns / 2; k < setupRuns; k++ {
		s, err := launch(k)
		if err != nil {
			return false, err
		}
		stop(s)
	}
	ctx.SetupRunsS = setups

	checksOK := true
	metrics, reported, err := endToEnd(plain, median(setups))
	if err != nil {
		return false, err
	}
	ctx.Reported = reported
	if traced == 1 {
		for k, v := range metrics {
			ctx.Reported[k] = v
		}
		var notes []string
		if metrics, notes, err = perLayer(w, in, &info, serverBin, plain, tr, outDir, seed); err != nil {
			return false, err
		}
		if len(notes) > 0 {
			checksOK = false
			ctx.Notes = append(ctx.Notes, notes...)
		}
	}

	res := result{Correct: checksOK, Metrics: metrics}
	ctx.Failures = map[string]int{}
	for _, m := range all {
		t := m.phase.totals()
		res.Attempted += t.frames
		res.Failed += t.frames - t.ok
		ctx.Requests += len(m.phase.samples)
		for k := failRefused; k < numFailKinds; k++ {
			ctx.Failures[failNames[k]] += t.fails[k]
		}
	}
	if res.Attempted == 0 {
		return false, errors.New("no frame was attempted")
	}
	ctx.Reported["error_frac"] = metric{float64(res.Failed) / float64(res.Attempted), "fraction"}
	if res.Failed > 0 {
		res.Correct = false
	}

	if err := emit(ctx, res, outDir); err != nil {
		return false, err
	}
	return res.Correct, nil
}

// inputs is everything a run derives from the seed before the server starts.
type inputs struct {
	frames []frame
	reqs   []request
	probe  []byte // single-frame body of frames[0], used to time set-up
}

func prepare(w workload, seed uint64) (*inputs, error) {
	// A few spare candidates stand in for frames a reference ceiling drops.
	cands, err := w.gen(seed, w.poolFrames+w.poolFrames/64)
	if err != nil {
		return nil, err
	}
	mod, err := w.modulation()
	if err != nil {
		return nil, err
	}
	frames, err := withReferences(cands, mod, w.maxRefNodes, w.poolFrames)
	if err != nil {
		return nil, err
	}
	reqs, err := buildRequests(frames, w.framesPerRequest)
	if err != nil {
		return nil, err
	}
	probe, err := json.Marshal(wireFrame(frames[0]))
	if err != nil {
		return nil, err
	}
	return &inputs{frames: frames, reqs: reqs, probe: probe}, nil
}

// measured is one load phase with the server-side deltas around it.
type measured struct {
	phase          phase
	before, after  serve.Stats
	cpu            time.Duration // server user + system time during the phase
	peakRSS        float64       // MiB, at the end of the phase
	allocsPerFrame float64
}

func measure(client *http.Client, srv *server, in *inputs, cfg loadConfig) (*measured, error) {
	m := &measured{}
	if err := getJSON(client, srv.base+"/metrics", &m.before); err != nil {
		return nil, err
	}
	pid := srv.cmd.Process.Pid
	p0, err := readProc(pid)
	if err != nil {
		return nil, err
	}
	m.phase = runLoad(client, srv.base, in.reqs, in.frames, cfg)
	p1, err := readProc(pid)
	if err != nil {
		return nil, err
	}
	m.cpu, m.peakRSS = p1.cpu-p0.cpu, p1.peakRSS
	if err := getJSON(client, srv.base+"/metrics", &m.after); err != nil {
		return nil, err
	}
	done0 := float64(m.before.Completed + m.before.Shed)
	done1 := float64(m.after.Completed + m.after.Shed)
	if done1 > done0 {
		m.allocsPerFrame = (m.after.DecodeAllocsPerOp*done1 - m.before.DecodeAllocsPerOp*done0) / (done1 - done0)
	}
	return m, nil
}

// endToEnd computes the metrics a user of the server sees: the ones
// BENCHMARK.json gates, and the ones only reported.
func endToEnd(m *measured, setup float64) (gated, reported map[string]metric, err error) {
	t := m.phase.totals()
	lat := make([]float64, len(m.phase.samples))
	for i := range m.phase.samples {
		lat[i] = ms(m.phase.samples[i].latency())
	}
	sort.Float64s(lat)
	p50, _ := percentile(lat, 0.50)
	if t.ok == 0 {
		return nil, nil, errors.New("no frame was answered correctly")
	}
	gated = map[string]metric{
		"frames_per_s":   {float64(t.ok) / m.phase.wall.Seconds(), "1/s"},
		"latency_p50_ms": {p50, "ms"},
		"exact_frac":     {float64(t.exact) / float64(t.frames), "fraction"},
		"server_rss_mb":  {m.peakRSS, "MiB"},
		"setup_s":        {setup, "s"},
	}
	reported = map[string]metric{
		"server_cpu_ms_per_kframe": {ms(m.cpu) / (float64(t.ok) / 1000), "ms"},
	}
	// p99 is left out when fewer than ten requests lie beyond it, as in
	// the shorter untraced phase of a traced grid-dense run.
	if p99, ok := percentile(lat, 0.99); ok {
		reported["latency_p99_ms"] = metric{p99, "ms"}
	}
	return gated, reported, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// emit prints the run context and the result (the last line of standard
// output) and keeps both in outDir.
func emit(ctx runContext, res result, outDir string) error {
	c, err := json.Marshal(map[string]any{"context": ctx})
	if err != nil {
		return err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return err
	}
	rec := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", ctx.Workload, ctx.Seed, ctx.Trace))
	if err := os.WriteFile(rec, append(append(c, '\n'), append(r, '\n')...), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics)+len(ctx.Reported))
	for k := range res.Metrics {
		names = append(names, k)
	}
	for k := range ctx.Reported {
		if _, dup := res.Metrics[k]; !dup {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %d frames, %d failed\n", ctx.Workload, ctx.Seed, res.Attempted, res.Failed)
	for _, k := range names {
		m, ok := res.Metrics[k]
		if !ok {
			m = ctx.Reported[k]
		}
		fmt.Fprintf(os.Stderr, "  %-36s %12.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Println(string(c))
	fmt.Println(string(r))
	return nil
}
