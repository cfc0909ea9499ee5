// Command sdtrace dissects sphere-decoder searches through the trace
// recorder: per-level visit/prune tallies against the exhaustive tree (the
// paper's Fig. 5 pruning evidence), radius trajectories, and the serving
// pipeline's span breakdown.
//
// Subcommands:
//
//	sdtrace sim      decode Monte-Carlo frames locally and trace each search
//	sdtrace capture  stream JSON-lines traces from a live sdserver /v1/trace
//	sdtrace summary  render a per-level table from captured JSON lines
//
// Invoked with no subcommand (flags only), it runs the legacy per-frame
// search profile over DecodeTraced.
//
// Usage:
//
//	sdtrace sim -tx 10 -rx 10 -mod 4qam -snr 4 -frames 20
//	sdtrace sim -frames 100 -jsonl > traces.jsonl
//	sdtrace capture -url http://127.0.0.1:8080 -frames 8 -stim
//	sdtrace summary -in traces.jsonl
//
// Every path re-validates the counter-consistency invariant (per-level
// visits sum exactly to the decoder-reported node count) and exits 1 when a
// frame violates it.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/channel"
	"repro/internal/constellation"
	"repro/internal/mimo"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sphere"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "sim":
			runSim(os.Args[2:])
		case "capture":
			runCapture(os.Args[2:])
		case "summary":
			runSummary(os.Args[2:])
		default:
			fatal(fmt.Errorf("unknown subcommand %q (want sim, capture, or summary)", os.Args[1]))
		}
		return
	}
	legacy(os.Args[1:])
}

// runSim decodes frames locally with a SearchTrace recorder installed and
// emits the wire frames (table or JSON lines).
func runSim(args []string) {
	fs := flag.NewFlagSet("sdtrace sim", flag.ExitOnError)
	var (
		tx     = fs.Int("tx", 10, "transmit antennas")
		rx     = fs.Int("rx", 10, "receive antennas")
		mod    = fs.String("mod", "4qam", "modulation")
		snr    = fs.Float64("snr", 4, "SNR (dB)")
		frames = fs.Int("frames", 20, "frames to trace")
		seed   = fs.Uint64("seed", 1, "RNG seed")
		radius = fs.Float64("radius-scale", 8, "initial radius scale (0 = infinite)")
		jsonl  = fs.Bool("jsonl", false, "emit JSON-lines wire frames instead of the summary table")
	)
	_ = fs.Parse(args)

	m, err := constellation.ParseModulation(*mod)
	if err != nil {
		fatal(err)
	}
	cfg := mimo.Config{Tx: *tx, Rx: *rx, Mod: m, Convention: channel.PerTransmitSymbol}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	st := trace.NewSearchTrace()
	scfg := sphere.Config{Const: constellation.New(m), Strategy: sphere.SortedDFS, Recorder: st}
	if *radius > 0 {
		scfg.AutoRadius = true
		scfg.RadiusScale = *radius
	}
	sd, err := sphere.New(scfg)
	if err != nil {
		fatal(err)
	}

	r := rng.New(*seed)
	out := make([]*trace.Frame, 0, *frames)
	for i := 0; i < *frames; i++ {
		mf, err := mimo.GenerateFrame(r, cfg, *snr)
		if err != nil {
			fatal(err)
		}
		res, err := sd.Decode(mf.H, mf.Y, mf.NoiseVar)
		if err != nil {
			fatal(err)
		}
		if got, want := st.NodesVisited(), res.Counters.NodesExpanded; got != want {
			fatal(fmt.Errorf("frame %d: recorder visits %d != decoder counter %d (counter-consistency violated)", i, got, want))
		}
		f := trace.NewFrame(st, "sim")
		f.FrameID = uint64(i + 1)
		f.Quality = res.Quality.String()
		f.DegradedBy = res.DegradedBy
		line, err := f.MarshalLine()
		if err != nil {
			fatal(err)
		}
		if _, err := trace.ValidateFrame(line); err != nil {
			fatal(fmt.Errorf("frame %d fails its own schema: %w", i, err))
		}
		if *jsonl {
			fmt.Println(string(line))
			continue
		}
		out = append(out, f)
	}
	if *jsonl {
		return
	}
	title := fmt.Sprintf("Sphere search vs exhaustive tree: %v @ %g dB, %d frames", cfg, *snr, *frames)
	if err := renderSummary(os.Stdout, title, out); err != nil {
		fatal(err)
	}
}

// runCapture streams frames from a live sdserver, optionally stimulating it
// with generated traffic so the stream has something to carry.
func runCapture(args []string) {
	fs := flag.NewFlagSet("sdtrace capture", flag.ExitOnError)
	var (
		url     = fs.String("url", "http://127.0.0.1:8080", "sdserver base URL")
		frames  = fs.Int("frames", 8, "frames to capture")
		stim    = fs.Bool("stim", false, "generate decode traffic against the server while capturing")
		snr     = fs.Float64("snr", 8, "SNR of generated stimulation traffic (dB)")
		seed    = fs.Uint64("seed", 1, "stimulation RNG seed")
		jsonl   = fs.Bool("jsonl", false, "emit the raw JSON lines instead of the summary table")
		timeout = fs.Duration("timeout", 30*time.Second, "overall capture deadline")
	)
	_ = fs.Parse(args)
	if *frames <= 0 {
		fatal(fmt.Errorf("frames must be positive, got %d", *frames))
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	info, err := fetchConfig(ctx, *url)
	if err != nil {
		fatal(fmt.Errorf("GET /v1/config: %w", err))
	}

	req, err := http.NewRequestWithContext(ctx, "GET", fmt.Sprintf("%s/v1/trace?frames=%d", *url, *frames), nil)
	if err != nil {
		fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal(fmt.Errorf("GET /v1/trace: %w", err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("GET /v1/trace: status %s", resp.Status))
	}

	if *stim {
		go stimulate(ctx, *url, info, *snr, *seed)
	}

	var out []*trace.Frame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f, err := trace.ValidateFrame(sc.Bytes())
		if err != nil {
			fatal(fmt.Errorf("captured line %d: %w", len(out), err))
		}
		if *jsonl {
			fmt.Println(string(sc.Bytes()))
		}
		out = append(out, f)
	}
	if err := sc.Err(); err != nil {
		fatal(fmt.Errorf("reading trace stream: %w", err))
	}
	if len(out) < *frames {
		fatal(fmt.Errorf("stream ended after %d of %d frames (server draining, or no traffic — try -stim)", len(out), *frames))
	}
	if *jsonl {
		return
	}
	title := fmt.Sprintf("Captured serve traces: %s (%dx%d %s), %d frames",
		*url, info.Tx, info.Rx, info.Modulation, len(out))
	if err := renderSummary(os.Stdout, title, out); err != nil {
		fatal(err)
	}
}

// runSummary renders a table from previously captured JSON lines.
func runSummary(args []string) {
	fs := flag.NewFlagSet("sdtrace summary", flag.ExitOnError)
	in := fs.String("in", "-", "JSON-lines input file (- for stdin)")
	_ = fs.Parse(args)

	var r io.Reader = os.Stdin
	name := "stdin"
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
		name = *in
	}
	var out []*trace.Frame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		f, err := trace.ValidateFrame(sc.Bytes())
		if err != nil {
			fatal(fmt.Errorf("%s line %d: %w", name, len(out)+1, err))
		}
		out = append(out, f)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(out) == 0 {
		fatal(fmt.Errorf("%s holds no trace frames", name))
	}
	if err := renderSummary(os.Stdout, fmt.Sprintf("Trace summary: %s, %d frames", name, len(out)), out); err != nil {
		fatal(err)
	}
}

// serverInfo is the slice of /v1/config sdtrace needs.
type serverInfo struct {
	Tx         int    `json:"tx_antennas"`
	Rx         int    `json:"rx_antennas"`
	Modulation string `json:"modulation"`
}

func fetchConfig(ctx context.Context, url string) (serverInfo, error) {
	var info serverInfo
	req, err := http.NewRequestWithContext(ctx, "GET", url+"/v1/config", nil)
	if err != nil {
		return info, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("status %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return info, err
	}
	if info.Tx <= 0 || info.Rx <= 0 {
		return info, fmt.Errorf("implausible server config %+v", info)
	}
	return info, nil
}

// wireDecode mirrors the /v1/decode single-frame body.
type wireDecode struct {
	H        [][][2]float64 `json:"h"`
	Y        [][2]float64   `json:"y"`
	NoiseVar float64        `json:"noise_var"`
}

// stimulate posts generated frames at the server until ctx ends. Errors are
// ignored: the capture loop is the judge of success.
func stimulate(ctx context.Context, url string, info serverInfo, snr float64, seed uint64) {
	m, err := constellation.ParseModulation(info.Modulation)
	if err != nil {
		return
	}
	cfg := mimo.Config{Tx: info.Tx, Rx: info.Rx, Mod: m, Convention: channel.PerTransmitSymbol}
	r := rng.New(seed)
	for ctx.Err() == nil {
		f, err := mimo.GenerateFrame(r, cfg, snr)
		if err != nil {
			return
		}
		w := wireDecode{NoiseVar: f.NoiseVar}
		for i := 0; i < f.H.Rows; i++ {
			row := make([][2]float64, f.H.Cols)
			for j, v := range f.H.Row(i) {
				row[j] = [2]float64{real(v), imag(v)}
			}
			w.H = append(w.H, row)
		}
		for _, v := range f.Y {
			w.Y = append(w.Y, [2]float64{real(v), imag(v)})
		}
		body, err := json.Marshal(w)
		if err != nil {
			return
		}
		req, err := http.NewRequestWithContext(ctx, "POST", url+"/v1/decode", bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// renderSummary prints the per-level visited-vs-full-tree table (Fig. 5
// style) plus aggregate search and pipeline statistics, re-checking the
// counter-consistency invariant across all frames.
func renderSummary(w io.Writer, title string, frames []*trace.Frame) error {
	maxDepth := 0
	for _, f := range frames {
		if f.M > maxDepth {
			maxDepth = f.M
		}
	}
	type levelAgg struct {
		visits, pruned, kept int64
		full                 float64
	}
	levels := make([]levelAgg, maxDepth+1)
	var totalVisits, reportedVisits int64
	var totalFull float64
	quality := map[string]int{}
	spanSum := map[string]time.Duration{}
	spanCount := map[string]int{}
	var searchNS int64
	for _, f := range frames {
		for _, l := range f.Levels {
			levels[l.Depth].visits += l.Visits
			levels[l.Depth].pruned += l.Pruned
			levels[l.Depth].kept += l.Kept
			levels[l.Depth].full += l.FullWidth
			totalVisits += l.Visits
		}
		reportedVisits += f.NodesVisited
		totalFull += f.FullTreeNodes
		quality[f.Quality]++
		searchNS += f.SearchNS
		for _, s := range f.Spans {
			spanSum[s.Name] += time.Duration(s.DurNS)
			spanCount[s.Name]++
		}
	}
	if totalVisits != reportedVisits {
		return fmt.Errorf("counter self-check failed: per-level visits sum to %d, frames report %d", totalVisits, reportedVisits)
	}

	t := report.NewTable(title, "depth", "visited", "full-tree", "visited-%", "pruned", "kept")
	for d, l := range levels {
		pct := 0.0
		if l.full > 0 {
			pct = 100 * float64(l.visits) / l.full
		}
		t.AddRow(fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", l.visits),
			fmt.Sprintf("%.0f", l.full),
			fmt.Sprintf("%.4f", pct),
			fmt.Sprintf("%d", l.pruned),
			fmt.Sprintf("%d", l.kept))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nNodes visited: %d of %.0f exhaustive (%.6f%%) — counter self-check OK\n",
		totalVisits, totalFull, 100*float64(totalVisits)/totalFull)
	fmt.Fprintf(w, "Mean search time: %v/frame\n", time.Duration(searchNS/int64(len(frames))))
	quals := make([]string, 0, len(quality))
	for q := range quality {
		quals = append(quals, q)
	}
	sort.Strings(quals)
	for _, q := range quals {
		fmt.Fprintf(w, "Quality %-12s %d frames\n", q+":", quality[q])
	}
	if len(spanSum) > 0 {
		fmt.Fprintf(w, "\nServing pipeline (mean per traced frame):\n")
		names := make([]string, 0, len(spanSum))
		for n := range spanSum {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-12s %v\n", n, spanSum[n]/time.Duration(spanCount[n]))
		}
	}
	return nil
}

// legacy is the original per-frame profile mode (no subcommand).
func legacy(args []string) {
	fs := flag.NewFlagSet("sdtrace", flag.ExitOnError)
	var (
		tx     = fs.Int("tx", 10, "transmit antennas")
		rx     = fs.Int("rx", 10, "receive antennas")
		mod    = fs.String("mod", "4qam", "modulation")
		snr    = fs.Float64("snr", 4, "SNR (dB)")
		frames = fs.Int("frames", 20, "frames to trace")
		seed   = fs.Uint64("seed", 1, "RNG seed")
		radius = fs.Float64("radius-scale", 8, "initial radius scale (0 = infinite)")
		csv    = fs.Bool("csv", false, "emit per-frame CSV only")
	)
	_ = fs.Parse(args)

	m, err := constellation.ParseModulation(*mod)
	if err != nil {
		fatal(err)
	}
	cfg := mimo.Config{Tx: *tx, Rx: *rx, Mod: m, Convention: channel.PerTransmitSymbol}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	scfg := sphere.Config{Const: constellation.New(m), Strategy: sphere.SortedDFS}
	if *radius > 0 {
		scfg.AutoRadius = true
		scfg.RadiusScale = *radius
	}
	sd, err := sphere.New(scfg)
	if err != nil {
		fatal(err)
	}

	r := rng.New(*seed)
	nodesPerFrame := make([]float64, 0, *frames)
	depthPop := make([]int64, *tx+1)
	var firstTrajectory []float64

	t := report.NewTable(
		fmt.Sprintf("Per-frame search profile: %v @ %g dB (radius scale %g)", cfg, *snr, *radius),
		"frame", "nodes", "leaves", "radius-updates", "pruned", "max-list", "retries", "metric")
	if *csv {
		fmt.Println("frame,nodes,leaves,radius_updates,pruned,max_list,retries,metric")
	}
	for i := 0; i < *frames; i++ {
		f, err := mimo.GenerateFrame(r, cfg, *snr)
		if err != nil {
			fatal(err)
		}
		res, info, err := sd.DecodeTraced(f.H, f.Y, f.NoiseVar)
		if err != nil {
			fatal(err)
		}
		c := res.Counters
		nodesPerFrame = append(nodesPerFrame, float64(c.NodesExpanded))
		for d, n := range info.MST.DepthPopulation() {
			depthPop[d] += n
		}
		if firstTrajectory == nil {
			firstTrajectory = info.RadiusTrajectory()
		}
		if *csv {
			fmt.Printf("%d,%d,%d,%d,%d,%d,%d,%g\n", i, c.NodesExpanded, c.LeavesReached,
				c.RadiusUpdates, c.ChildrenPruned, c.MaxListLen, info.Retries, res.Metric)
			continue
		}
		if i < 25 {
			t.AddRow(fmt.Sprintf("%d", i),
				fmt.Sprintf("%d", c.NodesExpanded),
				fmt.Sprintf("%d", c.LeavesReached),
				fmt.Sprintf("%d", c.RadiusUpdates),
				fmt.Sprintf("%d", c.ChildrenPruned),
				fmt.Sprintf("%d", c.MaxListLen),
				fmt.Sprintf("%d", info.Retries),
				fmt.Sprintf("%.3f", res.Metric))
		}
	}
	if *csv {
		return
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}

	s := stats.Summarize(nodesPerFrame)
	fmt.Printf("\nNodes/frame: %s (p95 %.0f)\n", s, stats.Percentile(nodesPerFrame, 95))

	fmt.Println("\nAggregate node population by tree depth (root=0):")
	var maxPop int64 = 1
	for _, n := range depthPop {
		if n > maxPop {
			maxPop = n
		}
	}
	for d, n := range depthPop {
		bar := int(n * 50 / maxPop)
		fmt.Printf("  depth %2d %8d |%s\n", d, n, repeat('#', bar))
	}

	fmt.Println("\nRadius trajectory of frame 0 (improving-leaf PDs):")
	for i, pd := range firstTrajectory {
		fmt.Printf("  update %2d: r² = %.4f\n", i, pd)
	}
}

func repeat(c byte, n int) string {
	if n < 0 {
		n = 0
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdtrace:", err)
	os.Exit(1)
}
