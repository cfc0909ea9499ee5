package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/integrity"
	"repro/internal/serve"
	"repro/internal/sphere"
)

// replayFrames bounds how many of the traced run's frames the inner layers
// replay (the first ones answered, in request order).
const replayFrames = 4096

// replayed is one traced request picked for replay.
type replayed struct {
	s     *sample
	trace int64 // span trace id
	span  int64 // the request's span id
}

// perLayer turns the traced phase tr (and the untraced phase plain, for the
// tracing overhead) into the per-layer metrics. It replays the traced frames
// through each layer's public functions, cross-checks the replayed search
// against what the server reported, and writes the span file. notes lists
// every cross-check that failed.
func perLayer(w workload, in *inputs, info *serve.ConfigInfo, serverBin string, plain, tr *measured, outDir string, seed uint64) (map[string]metric, []string, error) {
	rec := newRecorder()
	var notes []string

	// Live spans: one per traced request, with the scheduler's share of it
	// as children. The server reports durations, not instants, so queue wait
	// is placed at the request's send time and service right after it.
	samples := append([]sample(nil), tr.phase.samples...)
	sort.Slice(samples, func(a, b int) bool { return samples[a].sent < samples[b].sent })
	var picked []replayed
	nFrames := 0
	for i := range samples {
		s := &samples[i]
		tid := int64(i + 1)
		id := rec.add(tid, 0, "http.request", s.sent, s.done)
		if nFrames < replayFrames && s.failed() == 0 {
			for _, fl := range s.live {
				qStart := s.sent
				qEnd := qStart + time.Duration(fl.queueWaitNS)
				q := rec.add(tid, id, "serve.queue_wait", qStart, qEnd)
				rec.attr(q, "pool_frame", float64(fl.pool))
				sv := rec.add(tid, id, "serve.service", qEnd, qEnd+time.Duration(fl.serviceNS))
				rec.attr(sv, "batch_size", float64(fl.batchSize))
				rec.attr(sv, "nodes_explored", float64(fl.nodes))
				rec.attr(sv, "simulated_ns", float64(fl.simulatedNS))
			}
			picked = append(picked, replayed{s: s, trace: tid, span: id})
			nFrames += len(s.live)
		}
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// http: client latency minus the scheduler's share, and body sizes.
	var self, reqKB, respKB, late []float64
	for i := range samples {
		s := &samples[i]
		self = append(self, ms(s.done-s.sent-s.serverMax))
		reqKB = append(reqKB, float64(s.reqBytes)/1024)
		respKB = append(respKB, float64(s.respBytes)/1024)
		late = append(late, ms(s.sent-s.due))
	}
	put("http.self_ms", median(self), "ms")
	put("http.request_kb", mean(reqKB), "KiB")
	put("http.response_kb", mean(respKB), "KiB")

	// serve: per-frame queue wait from the answers, batch figures from the
	// /metrics deltas.
	var qw []float64
	for i := range samples {
		for _, fl := range samples[i].live {
			qw = append(qw, float64(fl.queueWaitNS)/1e3)
		}
	}
	sort.Float64s(qw)
	q50, _ := percentile(qw, 0.50)
	q99, ok := percentile(qw, 0.99)
	if !ok {
		return nil, nil, fmt.Errorf("%d frames give queue-wait p99 fewer than 10 samples beyond it", len(qw))
	}
	put("serve.queue_wait_us_p50", q50, "us")
	put("serve.queue_wait_us_p99", q99, "us")
	b, a := tr.before, tr.after
	batches := float64(a.Batches - b.Batches)
	batched := float64(a.BatchedFrames - b.BatchedFrames)
	put("serve.batch_size_mean", batched/batches, "frames")
	put("serve.service_us_per_batch", float64(a.Service.Sum-b.Service.Sum)/1e3/float64(a.Service.Count-b.Service.Count), "us")
	put("serve.refused", float64(a.Rejected-b.Rejected), "count")
	put("serve.shed", float64(a.Shed-b.Shed), "count")
	put("serve.retries", float64(a.Retries-b.Retries), "count")
	var fb float64
	for k, v := range a.FallbackByReason {
		fb += float64(v - b.FallbackByReason[k])
	}
	put("serve.fallback_frames", fb, "count")
	hits := float64(a.QRCacheHits - b.QRCacheHits)
	misses := float64(a.QRCacheMisses - b.QRCacheMisses)
	put("core.qr_hit_rate", hits/(hits+misses), "fraction")
	put("fpga.modeled_us_per_frame", float64(a.SimulatedTime-b.SimulatedTime)/1e3/batched, "us")
	put("runtime.allocs_per_frame", tr.allocsPerFrame, "count")
	put("runtime.gc_pause_ms_per_s", float64(a.GCPauseNs-b.GCPauseNs)/1e6/tr.phase.wall.Seconds(), "ms/s")
	sort.Float64s(late)
	lateP99, _ := percentile(late, 0.99)
	put("loadgen.late_ms_p99", lateP99, "ms")
	put("trace.overhead_frac", meanLatency(tr.phase)/meanLatency(plain.phase)-1, "fraction")

	// Inner layers: replay the picked frames.
	eng, err := newEngine(info, serverBin)
	if err != nil {
		return nil, nil, err
	}
	cd, err := replayCodec(rec, picked, in)
	if err != nil {
		return nil, nil, err
	}
	put("codec.decode_us_per_frame", cd.decodeUS, "us")
	put("codec.encode_us_per_frame", cd.encodeUS, "us")

	var live []frameLive
	var spanOf []int64
	var traceOf []int64
	for _, p := range picked {
		for _, fl := range p.s.live {
			live = append(live, fl)
			traceOf = append(traceOf, p.trace)
			spanOf = append(spanOf, p.span)
		}
	}
	groups := grouping(len(live), info.MaxBatch)
	coreUS, err := replayCore(rec, eng, in.frames, live, groups, traceOf, spanOf)
	if err != nil {
		return nil, nil, err
	}
	put("core.decode_us_per_frame", coreUS, "us")
	sp, err := replaySphere(rec, eng, in.frames, live, groups, traceOf, spanOf)
	if err != nil {
		return nil, nil, err
	}
	n := float64(len(live))
	put("sphere.search_us_per_frame", sp.search/n, "us")
	put("sphere.nodes_per_frame", float64(sp.counters.NodesExpanded)/n, "count")
	put("sphere.gemm_flops_per_frame", float64(sp.counters.GEMMFlops)/n, "flop")
	put("sphere.compare_ops_per_frame", float64(sp.counters.CompareOps)/n, "count")
	put("sphere.preprocess_us_per_frame", sp.preprocess/n, "us")
	put("sphere.qr_us_per_miss", sp.qr/float64(sp.distinct), "us")
	put("integrity.cache_verify_us_per_hit", sp.verify/n, "us")
	put("integrity.audit_us_per_frame", sp.audit/n, "us")
	put("fpga.pricing_us_per_batch", sp.pricing/float64(len(groups)), "us")
	liveService := float64(a.Service.Sum-b.Service.Sum) / 1e3 / batched
	replay := (sp.preprocess + sp.search + sp.audit + sp.pricing) / n
	put("core.reconcile_err", math.Abs(replay-liveService)/liveService, "fraction")
	if sp.nodeMismatch > 0 {
		notes = append(notes, fmt.Sprintf("replayed nodes differ from live nodes_explored on %d of %d frames", sp.nodeMismatch, len(live)))
	}
	if sp.symbolMismatch > 0 {
		notes = append(notes, fmt.Sprintf("replayed symbols differ from the ML reference on %d of %d frames", sp.symbolMismatch, len(live)))
	}

	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := rec.write(path); err != nil {
		return nil, nil, err
	}
	return m, notes, nil
}

// engine is the decode configuration the replay mirrors, read from the
// server's /v1/config and the shipped binary's flag defaults.
type engine struct {
	variant    fpga.Variant
	mod        constellation.Modulation
	tx, rx     int
	scalarEval bool
	strategy   sphere.Strategy
	norm       sphere.Norm
}

func newEngine(info *serve.ConfigInfo, serverBin string) (*engine, error) {
	if info.PolicyMode != "default" {
		return nil, fmt.Errorf("the replay mirrors the default decode policy only, the server runs %s policy %q", info.PolicyMode, info.DecodePolicy)
	}
	e := &engine{tx: info.TxAntennas, rx: info.RxAntennas, variant: fpga.Optimized}
	if strings.HasPrefix(info.Backend, "FPGA-baseline") {
		e.variant = fpga.Baseline
	}
	var err error
	if e.mod, err = constellation.ParseModulation(info.Modulation); err != nil {
		return nil, err
	}
	if e.strategy, err = sphere.ParseStrategy(info.Strategy); err != nil {
		return nil, err
	}
	if e.norm, err = sphere.ParseNorm(info.Norm); err != nil {
		return nil, err
	}
	e.scalarEval, err = flagDefaultTrue(serverBin, "scalar-eval")
	return e, err
}

// flagDefaultTrue reports whether the binary's boolean flag defaults to
// true, read from its -h usage text (false when the flag does not exist).
func flagDefaultTrue(bin, name string) (bool, error) {
	var out bytes.Buffer
	cmd := exec.Command(bin, "-h")
	cmd.Stdout, cmd.Stderr = &out, &out
	_ = cmd.Run() // -h exits with status 0 or 2 depending on the flag package version
	if !strings.Contains(out.String(), "Usage") {
		return false, fmt.Errorf("%s -h printed no usage", bin)
	}
	return defaultTrue(out.String(), name), nil
}

// defaultTrue finds flag name in flag package usage text and reports
// whether its description ends in "(default true)".
func defaultTrue(usage, name string) bool {
	i := strings.Index(usage, "  -"+name+"\n")
	if i < 0 {
		return false
	}
	desc := usage[i+len(name)+4:]
	if j := strings.Index(desc, "\n  -"); j >= 0 {
		desc = desc[:j]
	}
	return strings.Contains(desc, "(default true)")
}

func (e *engine) accelerator() (*core.Accelerator, error) {
	return core.New(e.variant, e.mod, e.tx, e.rx, core.Options{
		ScalarEval: e.scalarEval, Strategy: e.strategy, Norm: e.norm,
	})
}

// sphereConfig mirrors the decoder core.New builds for the accelerator.
func (e *engine) sphereConfig() sphere.Config {
	return sphere.Config{Const: constellation.New(e.mod), Strategy: e.strategy, Norm: e.norm, UseGEMM: !e.scalarEval}
}

// grouping splits n frames into consecutive batches of at most size frames.
func grouping(n, size int) [][2]int {
	var g [][2]int
	for lo := 0; lo < n; lo += size {
		g = append(g, [2]int{lo, min(lo+size, n)})
	}
	return g
}

type codecCost struct{ decodeUS, encodeUS float64 }

// replayCodec prices the JSON layer: decoding each picked request body the
// way the handler does (strict decode plus ToBatchInput per frame) and
// encoding the answer the server sent.
func replayCodec(rec *recorder, picked []replayed, in *inputs) (codecCost, error) {
	var dec, enc time.Duration
	frames := 0
	for pass := 0; pass < 2; pass++ {
		for _, p := range picked {
			body := in.reqs[p.s.req].body
			t0 := time.Now()
			d := json.NewDecoder(bytes.NewReader(body))
			d.DisallowUnknownFields()
			var req serve.DecodeRequest
			if err := d.Decode(&req); err != nil {
				return codecCost{}, fmt.Errorf("codec replay: %w", err)
			}
			parts := req.Frames
			if len(parts) == 0 {
				parts = []serve.DecodeRequest{req}
			}
			for i := range parts {
				if _, err := parts[i].ToBatchInput(); err != nil {
					return codecCost{}, fmt.Errorf("codec replay: %w", err)
				}
			}
			t1 := time.Now()
			if err := json.NewEncoder(io.Discard).Encode(p.s.answer); err != nil {
				return codecCost{}, fmt.Errorf("codec replay: %w", err)
			}
			t2 := time.Now()
			if pass == 1 {
				dec += t1.Sub(t0)
				enc += t2.Sub(t1)
				frames += len(parts)
				rec.addAt(p.trace, p.span, "codec.decode", t0, t1)
				rec.addAt(p.trace, p.span, "codec.encode", t1, t2)
			}
		}
	}
	n := float64(frames)
	return codecCost{us(dec) / n, us(enc) / n}, nil
}

// batchInputs returns the core inputs of frames[lo:hi] of the replay.
func batchInputs(frames []frame, live []frameLive, lo, hi int) []core.BatchInput {
	out := make([]core.BatchInput, 0, hi-lo)
	for _, fl := range live[lo:hi] {
		f := frames[fl.pool]
		out = append(out, core.BatchInput{H: f.H, Y: f.Y, NoiseVar: f.NoiseVar})
	}
	return out
}

// replayCore prices core.Accelerator.DecodeBatch on the replay groups after
// one warm-up pass, and returns microseconds per frame.
func replayCore(rec *recorder, e *engine, frames []frame, live []frameLive, groups [][2]int, traceOf, spanOf []int64) (float64, error) {
	acc, err := e.accelerator()
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for pass := 0; pass < 2; pass++ {
		for _, g := range groups {
			batch := batchInputs(frames, live, g[0], g[1])
			t0 := time.Now()
			if _, err := acc.DecodeBatch(batch); err != nil {
				return 0, fmt.Errorf("core replay: %w", err)
			}
			t1 := time.Now()
			if pass == 1 {
				total += t1.Sub(t0)
				rec.addAt(traceOf[g[0]], spanOf[g[0]], "core.decode_batch", t0, t1)
			}
		}
	}
	return us(total) / float64(len(live)), nil
}

// sphereCost accumulates the replayed inner layers, in microseconds.
type sphereCost struct {
	preprocess, search, verify, audit, qr, pricing float64
	distinct                                       int
	counters                                       decoder.Counters
	nodeMismatch, symbolMismatch                   int
}

// replaySphere prices the layers under core one call at a time, in the
// order a batch decode makes them: the QR cache lookup, the tree search,
// the re-encode audit, and the pipeline-model pricing of each batch. It
// also prices a cache hit's verification and a miss's factorization on
// their own, and cross-checks every frame's node count and symbols.
func replaySphere(rec *recorder, e *engine, frames []frame, live []frameLive, groups [][2]int, traceOf, spanOf []int64) (sphereCost, error) {
	var c sphereCost
	sd, err := sphere.New(e.sphereConfig())
	if err != nil {
		return c, err
	}
	design, err := fpga.NewDesign(e.variant, e.mod, e.tx, e.rx)
	if err != nil {
		return c, err
	}
	cache := sphere.NewPreprocessCache(0)
	var res decoder.Result
	var scratch cmatrix.Vector
	for pass := 0; pass < 2; pass++ {
		timed := pass == 1
		for _, g := range groups {
			var bc decoder.Counters
			charged := map[*sphere.Preprocessed]bool{}
			for i := g[0]; i < g[1]; i++ {
				f := frames[live[i].pool]
				t0 := time.Now()
				pre, err := cache.Get(f.H)
				if err != nil {
					return c, fmt.Errorf("sphere replay: %w", err)
				}
				t1 := time.Now()
				var charge int64
				if !charged[pre] {
					charged[pre], charge = true, pre.Flops
				}
				if err := sd.DecodePreInto(pre, f.Y, f.NoiseVar, charge, &res); err != nil {
					return c, fmt.Errorf("sphere replay: %w", err)
				}
				t2 := time.Now()
				if len(scratch) != f.H.Rows {
					scratch = make(cmatrix.Vector, f.H.Rows)
				}
				audit := integrity.ReEncode(f.H, f.Y, res.Symbols, scratch)
				var aerr error
				if e.norm == sphere.NormLInf {
					aerr = audit.CheckBound(res.Metric)
				} else {
					aerr = audit.CheckExactL2(res.Metric)
				}
				t3 := time.Now()
				if aerr != nil {
					return c, fmt.Errorf("sphere replay audit: %w", aerr)
				}
				bc.Add(res.Counters)
				if !timed {
					continue
				}
				c.preprocess += us(t1.Sub(t0))
				c.search += us(t2.Sub(t1))
				c.audit += us(t3.Sub(t2))
				rec.addAt(traceOf[i], spanOf[i], "sphere.preprocess", t0, t1)
				rec.addAt(traceOf[i], spanOf[i], "sphere.search", t1, t2)
				rec.addAt(traceOf[i], spanOf[i], "integrity.audit", t2, t3)
				c.counters.Add(res.Counters)
				if res.Counters.NodesExpanded != live[i].nodes {
					c.nodeMismatch++
				}
				if !slices.Equal(res.SymbolIdx, f.Ref) {
					c.symbolMismatch++
				}
				v0 := time.Now()
				pre.VerifyIntegrity()
				c.verify += us(time.Since(v0))
			}
			wl := decoder.Workload{M: e.tx, N: e.rx, P: constellation.New(e.mod).Size(), Frames: g[1] - g[0]}
			t0 := time.Now()
			if _, _, err := design.BatchTime(wl, bc); err != nil {
				return c, fmt.Errorf("fpga replay: %w", err)
			}
			t1 := time.Now()
			if timed {
				c.pricing += us(t1.Sub(t0))
				rec.addAt(traceOf[g[0]], spanOf[g[0]], "fpga.batch_time", t0, t1)
			}
		}
	}
	// A miss's factorization, priced once per distinct channel.
	seen := map[uint64]bool{}
	for _, fl := range live {
		h := frames[fl.pool].H
		fp := h.Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		t0 := time.Now()
		if _, err := sphere.Preprocess(h); err != nil {
			return c, fmt.Errorf("sphere replay: %w", err)
		}
		c.qr += us(time.Since(t0))
	}
	c.distinct = len(seen)
	return c, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanLatency(p phase) float64 {
	var s float64
	for i := range p.samples {
		s += ms(p.samples[i].latency())
	}
	return s / float64(len(p.samples))
}
