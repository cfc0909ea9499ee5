// Command sdbench measures the decoder's software hot path and writes the
// results as JSON (default BENCH_decode.json). It complements `go test
// -bench`: the same kernels, but packaged as a one-shot artifact the
// Makefile regenerates, with the derived ratios (batch speedup from QR
// reuse, single-frame speedup from the pooled zero-alloc path) computed in
// one place.
//
// All figures time the Go simulation, not the modeled FPGA: this is the
// harness-cost budget that bounds Monte-Carlo sweep sizes and serving
// throughput, orthogonal to the cycle model's hardware predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	mimosd "repro"
	"repro/internal/adapt"
	"repro/internal/channel"
	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/integrity"
	"repro/internal/ofdm"
	"repro/internal/ofdm/scenario"
	"repro/internal/rng"
	"repro/internal/sphere"
)

// Report is the schema of BENCH_decode.json.
type Report struct {
	// Environment.
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Generated string `json:"generated"`

	// Workloads.
	SingleFrameWorkload string `json:"single_frame_workload"`
	BatchWorkload       string `json:"batch_workload"`

	// SingleFrame is the steady-state hot path: pooled search, shared QR
	// handle, reused result (sphere.DecodePreInto, SortedDFS+GEMM).
	SingleFrame FrameStats `json:"single_frame"`
	// SingleFrameInline factors H and allocates the result on every call —
	// the seed's only path.
	SingleFrameInline FrameStats `json:"single_frame_inline"`
	// SingleFrameSpeedup is inline ns / hot-path ns.
	SingleFrameSpeedup float64 `json:"single_frame_speedup"`

	// BatchReuse / BatchNoReuse decode a 32-frame coherence block (all
	// frames share one channel) with the QR factored once vs once per
	// frame.
	BatchReuse   FrameStats `json:"batch_repeated_h_reuse"`
	BatchNoReuse FrameStats `json:"batch_repeated_h_noreuse"`
	// BatchSpeedup is no-reuse ns / reuse ns.
	BatchSpeedup float64 `json:"batch_repeated_h_speedup"`

	// BatchParallel is the same batch through the worker pool (Workers:
	// GOMAXPROCS). On a single-core host the measurement says nothing about
	// parallel dispatch — it would only re-measure BatchReuse plus goroutine
	// overhead — so it is skipped and Status records why.
	BatchParallel        FrameStats `json:"batch_parallel"`
	BatchParallelWorkers int        `json:"batch_parallel_workers"`
	BatchParallelStatus  string     `json:"batch_parallel_status,omitempty"`

	// RVD-SE study: the single-frame workload through the real-valued
	// Schnorr–Euchner engine (analytic ascending-PD child enumeration, no
	// sorting), under the ℓ² metric and the ℓ∞ max-comparator metric.
	// Speedups are complex SortedDFS+GEMM ns / engine ns, measured
	// side-by-side in this run (not against the committed SingleFrame).
	// Every engine row starts at r² = +Inf, like SortedDFS, so the ratios
	// price the engine and not ℓ² rvd-se's noise-scaled default start.
	RVDSEWorkload   string     `json:"rvd_se_workload,omitempty"`
	RVDSE           FrameStats `json:"rvd_se_single_frame"`
	RVDSESpeedup    float64    `json:"rvd_se_speedup"`
	RVDSECompareOps int64      `json:"rvd_se_compare_ops"`
	LInf            FrameStats `json:"linf_single_frame"`
	LInfSpeedup     float64    `json:"linf_speedup"`
	// The 16-QAM row prices sdserver's QR-cache-miss regime: one op is a
	// 16-frame batch of distinct 10x10 16-QAM channels through
	// core.Accelerator with the cross-batch cache off, so every frame pays
	// its own QR. rvd-se (the default square-QAM serving engine) runs
	// against scalar complex SortedDFS in-run, both from r² = +Inf; the
	// speedup is SortedDFS ns / rvd-se ns. RVDSEServed is the same batch
	// through rvd-se at its default noise-scaled start — what sdserver runs.
	RVDSE16QAMWorkload string     `json:"rvd_se_16qam_workload,omitempty"`
	RVDSE16QAM         FrameStats `json:"rvd_se_16qam_batch"`
	SortedDFS16QAM     FrameStats `json:"sorted_dfs_16qam_batch"`
	RVDSE16QAMSpeedup  float64    `json:"rvd_se_16qam_speedup"`
	RVDSEServed        FrameStats `json:"rvd_se_served"`

	// LInfBER pins the ℓ∞ criterion's BER cost against the exact ℓ² decoder
	// at low and high SNR (seeded Monte-Carlo, identical channels).
	LInfBER []LInfBERPoint `json:"linf_ber,omitempty"`

	// OFDM resource-grid cache study: the shipped static-dense scenario (a
	// coherent grid whose per-subcarrier channels repeat across symbols and
	// blocks) against the incoherent control (independent channel per frame),
	// each decoded block by block with every frame carrying its own matrix —
	// the wire shape, so the QR cache is exercised once per frame.
	OFDMGridWorkload string    `json:"ofdm_grid_workload"`
	OFDMCoherent     GridStats `json:"ofdm_grid_coherent"`
	OFDMIncoherent   GridStats `json:"ofdm_grid_incoherent"`
	// OFDMCoherentSpeedup is the median, over interleaved pass pairs, of
	// incoherent ns-per-frame / coherent ns-per-frame.
	OFDMCoherentSpeedup float64 `json:"ofdm_grid_coherent_speedup"`

	// SDC-defense overhead study: the single-frame hot path with every
	// integrity defense armed — ABFT verification of each GEMM product,
	// verify-on-hit checksumming of the cached QR factorization, and the
	// serving layer's re-encode result audit — priced against the unguarded
	// path measured side-by-side in this run. The total is what a hardened
	// deployment pays per exactly-decoded frame.
	SDCWorkload  string     `json:"sdc_workload,omitempty"`
	SDCUnguarded FrameStats `json:"sdc_unguarded_single_frame"`
	// SDCGuarded is the same decode with ABFT GEMM verification on.
	SDCGuarded FrameStats `json:"sdc_guarded_single_frame"`
	// SDCOverheadGEMMVerify is guarded ns / unguarded ns − 1.
	SDCOverheadGEMMVerify float64 `json:"sdc_overhead_gemm_verify_fraction"`
	// SDCOverheadCacheVerifyNs prices one verify-on-hit checksum pass over
	// the cached QR factorization (paid once per cache hit, not per node).
	SDCOverheadCacheVerifyNs float64 `json:"sdc_overhead_cache_verify_ns"`
	// SDCOverheadAuditNs prices one re-encode result audit (‖y−H·ŝ‖
	// recomputation plus the metric cross-check, paid once per frame).
	SDCOverheadAuditNs float64 `json:"sdc_overhead_audit_ns"`
	// SDCOverheadTotal is the all-in fraction: (guarded decode + cache
	// verify + audit) / unguarded decode − 1.
	SDCOverheadTotal float64 `json:"sdc_overhead_total_fraction"`

	// Adaptive-ladder study: every rung of the rvd-se adapt ladder decodes
	// the same seeded batch at each SNR point, so the cost/quality trade-off
	// the controller walks is published as data. Policies are spelled
	// relative to rvd-se (core.DecodePolicy.StringOn) — the same strings
	// PUT /v1/policy and -decode-policy accept on an rvd-se sdserver.
	AdaptWorkload string            `json:"adapt_workload,omitempty"`
	AdaptLevels   []AdaptLevelStats `json:"adapt_levels,omitempty"`
}

// AdaptLevelStats is one ladder rung's measured cost and quality.
type AdaptLevelStats struct {
	SNRdB         float64 `json:"snr_db"`
	Name          string  `json:"name"`
	Policy        string  `json:"policy"`
	NsPerFrame    float64 `json:"ns_per_frame"`
	ExactFraction float64 `json:"exact_fraction"`
	NodesPerFrame float64 `json:"nodes_per_frame"`
}

// GridStats summarizes one resource-grid decode pass.
type GridStats struct {
	Frames     int     `json:"frames"`
	NsPerFrame float64 `json:"ns_per_frame"`
	CacheHits  int64   `json:"qr_cache_hits"`
	CacheMiss  int64   `json:"qr_cache_misses"`
	HitRate    float64 `json:"qr_cache_hit_rate"`
}

// LInfBERPoint is one SNR point of the ℓ∞-vs-ℓ² BER study.
type LInfBERPoint struct {
	SNRdB   float64 `json:"snr_db"`
	Frames  int     `json:"frames"`
	BERL2   float64 `json:"ber_l2"`
	BERLInf float64 `json:"ber_linf"`
	Delta   float64 `json:"ber_delta"`
}

// FrameStats is one benchmark's headline numbers.
type FrameStats struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// NodesPerSec is search throughput (0 where not applicable).
	NodesPerSec float64 `json:"nodes_per_sec,omitempty"`
}

func stats(r testing.BenchmarkResult) FrameStats {
	return FrameStats{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// coherenceBlock builds frames independent transmissions over one channel.
func coherenceBlock(seed uint64, n, m, frames int, snrDB float64) []core.BatchInput {
	r := rng.New(seed)
	c := constellation.New(constellation.QAM4)
	h := channel.Rayleigh(r, n, m)
	nv := channel.NoiseVariance(channel.PerTransmitSymbol, snrDB, m)
	inputs := make([]core.BatchInput, frames)
	for i := range inputs {
		s := make(cmatrix.Vector, m)
		for j := range s {
			s[j] = c.Symbol(r.Intn(c.Size()))
		}
		inputs[i] = core.BatchInput{H: h, Y: channel.Transmit(r, h, s, nv), NoiseVar: nv}
	}
	return inputs
}

// rayleigh16QAM draws frames independent 10x10 16-QAM transmissions at
// snrDB, each over its own Rayleigh channel.
func rayleigh16QAM(seed uint64, frames int, snrDB float64) []core.BatchInput {
	r := rng.New(seed)
	c := constellation.New(constellation.QAM16)
	nv := channel.NoiseVariance(channel.PerTransmitSymbol, snrDB, 10)
	inputs := make([]core.BatchInput, frames)
	for i := range inputs {
		h := channel.Rayleigh(r, 10, 10)
		s := make(cmatrix.Vector, 10)
		for j := range s {
			s[j] = c.Symbol(r.Intn(c.Size()))
		}
		inputs[i] = core.BatchInput{H: h, Y: channel.Transmit(r, h, s, nv), NoiseVar: nv}
	}
	return inputs
}

// parseStudies expands the -study flag into a selection set. The rvd gate
// needs the complex single-frame baseline measured side-by-side, so "rvd"
// implies the hot half of "single".
func parseStudies(spec string) (map[string]bool, error) {
	sel := map[string]bool{}
	if spec == "" || spec == "all" {
		for _, s := range []string{"single", "batch", "ofdm", "rvd", "ber", "adapt", "sdc"} {
			sel[s] = true
		}
		return sel, nil
	}
	for _, s := range strings.Split(spec, ",") {
		switch s = strings.TrimSpace(s); s {
		case "single", "batch", "ofdm", "rvd", "ber", "adapt", "sdc":
			sel[s] = true
		case "":
		default:
			return nil, fmt.Errorf("unknown study %q (want single, batch, ofdm, rvd, ber, adapt, sdc, or all)", s)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("empty -study selection")
	}
	return sel, nil
}

func main() {
	out := flag.String("out", "BENCH_decode.json", "output path")
	study := flag.String("study", "all", "comma-separated studies: single,batch,ofdm,rvd,ber,adapt,sdc (or all)")
	gateRVD := flag.Float64("gate-rvd-speedup", 0,
		"exit 1 unless the rvd study beats complex SortedDFS+GEMM by at least this factor with zero comparator work and zero allocs (0 = no gate)")
	gateSDC := flag.Float64("gate-sdc-overhead", 0,
		"exit 1 if ABFT GEMM verification slows the single-frame hot path by more than this fraction (0 = no gate)")
	flag.Parse()

	sel, err := parseStudies(*study)
	if err != nil {
		fatal(err)
	}
	if *gateRVD > 0 {
		sel["rvd"] = true
	}
	if *gateSDC > 0 {
		sel["sdc"] = true
	}

	rep := Report{
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		CPUs:                runtime.GOMAXPROCS(0),
		Generated:           time.Now().UTC().Format(time.RFC3339),
		SingleFrameWorkload: "10x10 4-QAM, 8 dB, SortedDFS+GEMM",
		BatchWorkload:       "32-frame coherence block, 10x10 4-QAM, 14 dB",
	}

	// --- Single frame -----------------------------------------------------
	c := constellation.New(constellation.QAM4)
	d := sphere.MustNew(sphere.Config{Const: c, Strategy: sphere.SortedDFS, UseGEMM: true})
	single := coherenceBlock(61, 10, 10, 1, 8)[0]
	pre, err := sphere.Preprocess(single.H)
	if err != nil {
		fatal(err)
	}
	var res decoder.Result
	benchPre := func(sd *sphere.SD) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sd.DecodePreInto(pre, single.Y, single.NoiseVar, 0, &res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	if sel["single"] || sel["rvd"] {
		if err := d.DecodePreInto(pre, single.Y, single.NoiseVar, 0, &res); err != nil {
			fatal(err)
		}
		nodes := res.Counters.NodesExpanded

		hot := benchPre(d)
		rep.SingleFrame = stats(hot)
		if hot.NsPerOp() > 0 {
			rep.SingleFrame.NodesPerSec = float64(nodes) / (float64(hot.NsPerOp()) * 1e-9)
		}
	}

	if sel["single"] {
		inline := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Decode(single.H, single.Y, single.NoiseVar); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.SingleFrameInline = stats(inline)
		if rep.SingleFrame.NsPerOp > 0 {
			rep.SingleFrameSpeedup = rep.SingleFrameInline.NsPerOp / rep.SingleFrame.NsPerOp
		}
	}

	// --- RVD-SE hot path ---------------------------------------------------
	if sel["rvd"] {
		rep.RVDSEWorkload = "10x10 4-QAM, 8 dB, RVD/SE vs SortedDFS+GEMM in-run"
		unbounded := math.Inf(1)
		se := sphere.MustNew(sphere.Config{Const: c, Strategy: sphere.RealSE, InitialRadiusSq: unbounded})
		li := sphere.MustNew(sphere.Config{Const: c, Strategy: sphere.RealSE, Norm: sphere.NormLInf, InitialRadiusSq: unbounded})

		if err := se.DecodePreInto(pre, single.Y, single.NoiseVar, 0, &res); err != nil {
			fatal(err)
		}
		// SE enumeration is analytic: any comparator or sorting work here is
		// a regression, so publish the counter for the smoke gate.
		rep.RVDSECompareOps = res.Counters.CompareOps + res.Counters.SortedBatches
		seNodes := res.Counters.NodesExpanded

		seb := benchPre(se)
		rep.RVDSE = stats(seb)
		if seb.NsPerOp() > 0 {
			rep.RVDSE.NodesPerSec = float64(seNodes) / (float64(seb.NsPerOp()) * 1e-9)
		}
		if rep.RVDSE.NsPerOp > 0 {
			rep.RVDSESpeedup = rep.SingleFrame.NsPerOp / rep.RVDSE.NsPerOp
		}

		lib := benchPre(li)
		rep.LInf = stats(lib)
		if rep.LInf.NsPerOp > 0 {
			rep.LInfSpeedup = rep.SingleFrame.NsPerOp / rep.LInf.NsPerOp
		}

		const batches, batchFrames = 4, 16
		rep.RVDSE16QAMWorkload = fmt.Sprintf("%dx%d-frame batches of distinct 10x10 16-QAM Rayleigh channels, 14 dB, "+
			"cold QR cache, op = one %d-frame batch; rvd-se vs scalar SortedDFS in-run from r² = +Inf, "+
			"rvd_se_served at the default start", batches, batchFrames, batchFrames)
		frames := rayleigh16QAM(83, batches*batchFrames, 14)
		groups := make([][]core.BatchInput, batches)
		for g := range groups {
			groups[g] = frames[g*batchFrames : (g+1)*batchFrames]
		}
		benchCold := func(strat sphere.Strategy, radiusSq float64) FrameStats {
			acc := core.MustNew(fpga.Optimized, constellation.QAM16, 10, 10,
				core.Options{ScalarEval: true, Strategy: strat, InitialRadiusSq: radiusSq, PreprocessCacheEntries: -1})
			return stats(testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := acc.DecodeBatch(groups[i%batches]); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
		rep.RVDSE16QAM = benchCold(sphere.RealSE, unbounded)
		rep.SortedDFS16QAM = benchCold(sphere.SortedDFS, unbounded)
		if rep.RVDSE16QAM.NsPerOp > 0 {
			rep.RVDSE16QAMSpeedup = rep.SortedDFS16QAM.NsPerOp / rep.RVDSE16QAM.NsPerOp
		}
		rep.RVDSEServed = benchCold(sphere.RealSE, 0)
	}

	// --- ℓ∞ BER cost --------------------------------------------------------
	if sel["ber"] {
		cfg := mimosd.Config{TxAntennas: 4, RxAntennas: 4, Modulation: "4qam"}
		const berFrames = 400
		for _, snr := range []float64{8, 14} {
			l2r, err := mimosd.SimulateBER(cfg, mimosd.AlgSphereRVDSE, snr, berFrames, 911)
			if err != nil {
				fatal(err)
			}
			lir, err := mimosd.SimulateBER(cfg, mimosd.AlgSphereLInf, snr, berFrames, 911)
			if err != nil {
				fatal(err)
			}
			rep.LInfBER = append(rep.LInfBER, LInfBERPoint{
				SNRdB: snr, Frames: berFrames,
				BERL2: l2r.BER, BERLInf: lir.BER, Delta: lir.BER - l2r.BER,
			})
		}
	}

	// --- Coherence-block batch -------------------------------------------
	if sel["batch"] {
		inputs := coherenceBlock(71, 10, 10, 32, 14)
		reuse := core.MustNew(fpga.Optimized, constellation.QAM4, 10, 10, core.Options{})
		noReuse := core.MustNew(fpga.Optimized, constellation.QAM4, 10, 10, core.Options{DisableQRReuse: true})

		benchBatch := func(a *core.Accelerator) testing.BenchmarkResult {
			return testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := a.DecodeBatch(inputs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		rep.BatchReuse = stats(benchBatch(reuse))
		rep.BatchNoReuse = stats(benchBatch(noReuse))
		rep.BatchParallelWorkers = runtime.GOMAXPROCS(0)
		if runtime.GOMAXPROCS(0) == 1 {
			// One runnable thread: the pool degenerates to BatchReuse plus
			// scheduling noise, so the number would misrepresent parallel
			// dispatch. Skip it and say so in the artifact.
			rep.BatchParallelStatus = "skipped_gomaxprocs_1"
		} else {
			parallel := core.MustNew(fpga.Optimized, constellation.QAM4, 10, 10, core.Options{Workers: -1})
			rep.BatchParallel = stats(benchBatch(parallel))
		}
		if rep.BatchReuse.NsPerOp > 0 {
			rep.BatchSpeedup = rep.BatchNoReuse.NsPerOp / rep.BatchReuse.NsPerOp
		}
	}

	// --- OFDM resource-grid cache study ------------------------------------
	if sel["ofdm"] {
		rep.OFDMGridWorkload = fmt.Sprintf("scenario static-dense vs incoherent-control, per-frame matrices, DecodeBatch only, %d interleaved pass pairs, medians", gridPasses)
		rep.OFDMCoherent, rep.OFDMIncoherent, rep.OFDMCoherentSpeedup, err = gridStudy("static-dense", "incoherent-control")
		if err != nil {
			fatal(err)
		}
	}

	// --- SDC-defense overhead ----------------------------------------------
	if sel["sdc"] {
		rep.SDCWorkload = "10x10 4-QAM, 8 dB, SortedDFS+GEMM: ABFT + cache verify + re-encode audit vs unguarded in-run"
		rep.SDCUnguarded = stats(benchPre(d))
		g := sphere.MustNew(sphere.Config{Const: c, Strategy: sphere.SortedDFS, UseGEMM: true, VerifyGEMM: true})
		rep.SDCGuarded = stats(benchPre(g))
		if rep.SDCUnguarded.NsPerOp > 0 {
			rep.SDCOverheadGEMMVerify = rep.SDCGuarded.NsPerOp/rep.SDCUnguarded.NsPerOp - 1
		}

		// One verify-on-hit checksum pass over the cached factorization.
		vres := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !pre.VerifyIntegrity() {
					b.Fatal("pristine factorization failed verification")
				}
			}
		})
		rep.SDCOverheadCacheVerifyNs = float64(vres.NsPerOp())

		// One re-encode audit of the decode answer, with the serving tier's
		// reusable scratch vector (steady-state: zero allocations).
		if err := g.DecodePreInto(pre, single.Y, single.NoiseVar, 0, &res); err != nil {
			fatal(err)
		}
		scratch := make(cmatrix.Vector, single.H.Rows)
		ares := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				audit := integrity.ReEncode(single.H, single.Y, res.Symbols, scratch)
				if err := audit.CheckExactL2(res.Metric); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.SDCOverheadAuditNs = float64(ares.NsPerOp())

		if rep.SDCUnguarded.NsPerOp > 0 {
			rep.SDCOverheadTotal = (rep.SDCGuarded.NsPerOp+rep.SDCOverheadCacheVerifyNs+rep.SDCOverheadAuditNs)/rep.SDCUnguarded.NsPerOp - 1
		}
	}

	// --- Adaptive ladder ----------------------------------------------------
	if sel["adapt"] {
		// 10x10 16-QAM is where the rungs separate; at 4x4 4-QAM per-frame
		// overhead dominates every rung. Each SNR point's batch fits the QR
		// cache, and one untimed pass fills it, so every timed pass hits the
		// cache on purpose and the rungs differ only in what they search.
		const adaptFrames = sphere.DefaultCacheEntries
		const adaptPasses = 15
		rep.AdaptWorkload = fmt.Sprintf("%d independent 10x10 16-QAM frames at 10, 14 and 18 dB, rvd-se accelerator, "+
			"per-rung DecodePolicy; one warm pass fills the QR cache, then each rung is the median of %d interleaved passes, all cache hits",
			adaptFrames, adaptPasses)
		levels := adapt.DefaultLevels(sphere.RealSE, 4096)
		for _, snr := range []float64{10, 14, 18} {
			inputs := rayleigh16QAM(97, adaptFrames, snr)
			acc := core.MustNew(fpga.Optimized, constellation.QAM16, 10, 10, core.Options{Strategy: sphere.RealSE})
			if _, err := acc.DecodeBatch(inputs); err != nil {
				fatal(fmt.Errorf("adapt warm pass: %w", err))
			}
			// Passes interleave the rungs, so host drift lands on every rung
			// alike instead of on whichever rung ran during it.
			elapsed := make([][]time.Duration, len(levels))
			reports := make([]*core.BatchReport, len(levels))
			for pass := 0; pass < adaptPasses; pass++ {
				for i, lvl := range levels {
					start := time.Now()
					br, err := acc.DecodeBatch(inputs, core.WithPolicy(lvl.Policy))
					if err != nil {
						fatal(fmt.Errorf("adapt level %s: %w", lvl.Name, err))
					}
					elapsed[i] = append(elapsed[i], time.Since(start))
					reports[i] = br
				}
			}
			for i, lvl := range levels {
				sort.Slice(elapsed[i], func(a, b int) bool { return elapsed[i][a] < elapsed[i][b] })
				exact := 0
				var nodes int64
				for _, res := range reports[i].Results {
					if res.Quality == decoder.QualityExact {
						exact++
					}
					nodes += res.Counters.NodesExpanded
				}
				rep.AdaptLevels = append(rep.AdaptLevels, AdaptLevelStats{
					SNRdB:         snr,
					Name:          lvl.Name,
					Policy:        lvl.Policy.StringOn(sphere.RealSE),
					NsPerFrame:    float64(elapsed[i][adaptPasses/2].Nanoseconds()) / adaptFrames,
					ExactFraction: float64(exact) / adaptFrames,
					NodesPerFrame: float64(nodes) / adaptFrames,
				})
			}
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	if sel["single"] {
		fmt.Printf("single frame: %.0f ns/op (%d allocs), inline %.0f ns/op -> %.2fx\n",
			rep.SingleFrame.NsPerOp, rep.SingleFrame.AllocsPerOp, rep.SingleFrameInline.NsPerOp, rep.SingleFrameSpeedup)
	}
	if sel["rvd"] {
		fmt.Printf("rvd-se: %.0f ns/op (%d allocs) -> %.2fx vs complex %.0f ns/op; linf %.0f ns/op -> %.2fx; compare ops %d\n",
			rep.RVDSE.NsPerOp, rep.RVDSE.AllocsPerOp, rep.RVDSESpeedup, rep.SingleFrame.NsPerOp,
			rep.LInf.NsPerOp, rep.LInfSpeedup, rep.RVDSECompareOps)
		fmt.Printf("rvd-se 16-qam cold batch: %.0f ns/op (%d B/op) -> %.2fx vs sorted-dfs %.0f ns/op (%d B/op); served start %.0f ns/op\n",
			rep.RVDSE16QAM.NsPerOp, rep.RVDSE16QAM.BytesPerOp, rep.RVDSE16QAMSpeedup,
			rep.SortedDFS16QAM.NsPerOp, rep.SortedDFS16QAM.BytesPerOp, rep.RVDSEServed.NsPerOp)
	}
	if sel["ber"] {
		for _, p := range rep.LInfBER {
			fmt.Printf("linf ber: %g dB over %d frames: l2 %.4g, linf %.4g (delta %+.4g)\n",
				p.SNRdB, p.Frames, p.BERL2, p.BERLInf, p.Delta)
		}
	}
	if sel["batch"] {
		par := fmt.Sprintf("parallel(%d) %.0f ns/op", rep.BatchParallelWorkers, rep.BatchParallel.NsPerOp)
		if rep.BatchParallelStatus != "" {
			par = "parallel " + rep.BatchParallelStatus
		}
		fmt.Printf("batch: reuse %.0f ns/op, no-reuse %.0f ns/op -> %.2fx; %s\n",
			rep.BatchReuse.NsPerOp, rep.BatchNoReuse.NsPerOp, rep.BatchSpeedup, par)
	}
	if sel["ofdm"] {
		fmt.Printf("ofdm grid: coherent hit rate %.3f (%.0f ns/frame), incoherent %.3f (%.0f ns/frame) -> %.2fx\n",
			rep.OFDMCoherent.HitRate, rep.OFDMCoherent.NsPerFrame,
			rep.OFDMIncoherent.HitRate, rep.OFDMIncoherent.NsPerFrame, rep.OFDMCoherentSpeedup)
	}
	if sel["adapt"] {
		for _, l := range rep.AdaptLevels {
			fmt.Printf("adapt %2.0f dB %-12s [%s]: %.0f ns/frame, exact %.3f, %.1f nodes/frame\n",
				l.SNRdB, l.Name, l.Policy, l.NsPerFrame, l.ExactFraction, l.NodesPerFrame)
		}
	}
	if sel["sdc"] {
		fmt.Printf("sdc: unguarded %.0f ns/op, gemm-verified %.0f ns/op (%+.1f%%); cache verify %.0f ns, audit %.0f ns -> all-in %+.1f%%\n",
			rep.SDCUnguarded.NsPerOp, rep.SDCGuarded.NsPerOp, 100*rep.SDCOverheadGEMMVerify,
			rep.SDCOverheadCacheVerifyNs, rep.SDCOverheadAuditNs, 100*rep.SDCOverheadTotal)
	}

	if *gateRVD > 0 {
		var fails []string
		if rep.RVDSESpeedup < *gateRVD {
			fails = append(fails, fmt.Sprintf("speedup %.2fx < %.2fx", rep.RVDSESpeedup, *gateRVD))
		}
		if rep.RVDSECompareOps != 0 {
			fails = append(fails, fmt.Sprintf("comparator work present (%d ops)", rep.RVDSECompareOps))
		}
		if rep.RVDSE.AllocsPerOp != 0 || rep.LInf.AllocsPerOp != 0 {
			fails = append(fails, fmt.Sprintf("allocs/op %d (l2) %d (linf), want 0",
				rep.RVDSE.AllocsPerOp, rep.LInf.AllocsPerOp))
		}
		if len(fails) > 0 {
			fmt.Fprintf(os.Stderr, "sdbench: rvd gate FAILED: %s\n", strings.Join(fails, "; "))
			os.Exit(1)
		}
		fmt.Printf("rvd gate: PASS (>= %.2fx, no comparator work, zero allocs)\n", *gateRVD)
	}
	if *gateSDC > 0 {
		// The gate bounds the defense that rides the search itself: ABFT
		// verification of every GEMM product. The cache re-verify and the
		// re-encode audit are per-frame constants outside the search loop,
		// priced above but amortized differently (per cache hit, per served
		// frame), so they inform rather than gate.
		if rep.SDCOverheadGEMMVerify > *gateSDC {
			fmt.Fprintf(os.Stderr, "sdbench: sdc gate FAILED: ABFT GEMM-verify overhead %.1f%% > %.1f%% of the single-frame hot path\n",
				100*rep.SDCOverheadGEMMVerify, 100**gateSDC)
			os.Exit(1)
		}
		fmt.Printf("sdc gate: PASS (gemm-verify overhead %+.1f%% <= %.1f%%)\n", 100*rep.SDCOverheadGEMMVerify, 100**gateSDC)
	}
}

// gridPasses is how many coherent/incoherent pass pairs gridStudy times.
const gridPasses = 25

// gridCase is one shipped scenario's blocks, built before any timing. Every
// frame's estimate is cloned — the wire round-trip hands the server a fresh
// matrix per frame, so cloning reproduces the serving tier's cache-lookup
// pattern (one Get per frame) rather than the in-process pointer-dedup
// shortcut.
type gridCase struct {
	mod    constellation.Modulation
	tx, rx int
	blocks [][]core.BatchInput
	frames int
}

func loadGridCase(name string) (*gridCase, error) {
	sc, err := scenario.Lookup(name)
	if err != nil {
		return nil, err
	}
	mod, err := constellation.ParseModulation(sc.Grid.Modulation)
	if err != nil {
		return nil, err
	}
	gen, err := ofdm.NewGenerator(sc.Grid, sc.Seed)
	if err != nil {
		return nil, err
	}
	g := &gridCase{mod: mod, tx: sc.Grid.Tx, rx: sc.Grid.Rx, blocks: make([][]core.BatchInput, sc.Blocks)}
	for b := range g.blocks {
		blk, err := gen.Block()
		if err != nil {
			return nil, err
		}
		g.blocks[b] = make([]core.BatchInput, len(blk))
		for i, f := range blk {
			g.blocks[b][i] = core.BatchInput{H: f.H.Clone(), Y: f.Y, NoiseVar: f.NoiseVar}
		}
		g.frames += len(blk)
	}
	return g, nil
}

// pass decodes every block, in order, through a fresh cache-enabled
// accelerator (so each pass starts from a cold cache), timing DecodeBatch
// alone, and returns the ns per frame and the cache counters.
func (g *gridCase) pass() (nsPerFrame float64, hits, misses int64, err error) {
	acc, err := core.New(fpga.Optimized, g.mod, g.tx, g.rx, core.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	var elapsed time.Duration
	for _, inputs := range g.blocks {
		start := time.Now()
		_, err := acc.DecodeBatch(inputs)
		elapsed += time.Since(start)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	hits, misses = acc.PreprocessCacheStats()
	return float64(elapsed.Nanoseconds()) / float64(g.frames), hits, misses, nil
}

// gridStudy times the coherent and incoherent scenarios in gridPasses
// back-to-back pass pairs, alternating which runs first, so a host episode
// lands on both sides of a pair rather than on every pass of one scenario.
// Each side's ns_per_frame is its median pass, and the speedup is the
// median of the per-pair ratios. The cache counters are the first pass's.
func gridStudy(coherent, incoherent string) (coh, inc GridStats, speedup float64, err error) {
	cases := [2]*gridCase{}
	for i, name := range []string{coherent, incoherent} {
		if cases[i], err = loadGridCase(name); err != nil {
			return coh, inc, 0, err
		}
	}
	stats := [2]*GridStats{&coh, &inc}
	var ns [2][]float64
	ratios := make([]float64, gridPasses)
	for p := range ratios {
		var pair [2]float64
		for k := range 2 {
			side := (p + k) % 2
			v, hits, misses, err := cases[side].pass()
			if err != nil {
				return coh, inc, 0, err
			}
			pair[side] = v
			if p == 0 {
				*stats[side] = GridStats{Frames: cases[side].frames, CacheHits: hits, CacheMiss: misses}
			}
		}
		ns[0], ns[1] = append(ns[0], pair[0]), append(ns[1], pair[1])
		ratios[p] = pair[1] / pair[0]
	}
	for i, gs := range stats {
		gs.NsPerFrame = median(ns[i])
		if total := gs.CacheHits + gs.CacheMiss; total > 0 {
			gs.HitRate = float64(gs.CacheHits) / float64(total)
		}
	}
	return coh, inc, median(ratios), nil
}

// median returns the middle element of xs after sorting it in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdbench:", err)
	os.Exit(1)
}
