// Package mimosd is the public API of this repository: a Go reproduction of
// "Signal Detection for Large MIMO Systems Using Sphere Decoding on FPGAs"
// (Hassan, Dabah, Ltaief, Fahmy — IPPS 2023).
//
// The package exposes the paper's system end to end:
//
//   - Detect runs a single MIMO detection with any of the implemented
//     algorithms (the paper's GEMM/sorted-DFS sphere decoder, the exact ML
//     reference, the GPU-style BFS variant, fixed-complexity FSD, and the
//     linear ZF/MMSE/MRC decoders).
//   - RandomLink draws a Rayleigh/AWGN Monte-Carlo transmission to feed it.
//   - SimulateBER measures bit error rates over Monte-Carlo batches.
//   - SimulateTiming converts real search traces into modeled decode times
//     on the paper's platforms (CPU, FPGA baseline, FPGA optimized).
//   - Accelerator wraps the integrated FPGA product: decode batches and
//     read simulated hardware time, cycle breakdown, resources, power.
//
// Hardware note: no Alveo U280 is attached — FPGA/CPU/GPU times come from
// calibrated execution models driven by exact operation traces. DESIGN.md
// documents every substitution; EXPERIMENTS.md records paper-vs-measured
// values for every table and figure.
package mimosd

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/channel"
	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/lattice"
	"repro/internal/mimo"
	"repro/internal/order"
	"repro/internal/platform"
	"repro/internal/quantize"
	"repro/internal/rng"
	"repro/internal/sphere"
)

// ErrInvalidInput flags malformed caller input: NaN/Inf entries in the
// channel or observation, a non-positive noise variance, or a dimension
// mismatch against the configuration. Test with errors.Is.
var ErrInvalidInput = errors.New("mimosd: invalid input")

// Algorithm selects a detector.
type Algorithm string

// Implemented detection algorithms.
const (
	// AlgSphereDecoder is the paper's detector: sorted depth-first sphere
	// decoding with GEMM-batched child evaluation. Exact (ML-equal).
	AlgSphereDecoder Algorithm = "sd"
	// AlgSphereBFS is the level-synchronous GEMM-BFS variant of [1] (the
	// GPU baseline).
	AlgSphereBFS Algorithm = "sd-bfs"
	// AlgSphereBestFS is a true priority-queue best-first sphere decoder.
	AlgSphereBestFS Algorithm = "sd-bestfs"
	// AlgFSD is the fixed-complexity sphere decoder (suboptimal, constant
	// work).
	AlgFSD Algorithm = "fsd"
	// AlgSphereSQRD is the paper's detector preceded by sorted-QR detection
	// ordering (fewer expansions, identical results).
	AlgSphereSQRD Algorithm = "sd-sqrd"
	// AlgSphereFP16 is the paper's detector behind a half-precision data
	// path (the future-work precision study).
	AlgSphereFP16 Algorithm = "sd-fp16"
	// AlgML is the exhaustive maximum-likelihood reference.
	AlgML Algorithm = "ml"
	// AlgZF, AlgMMSE, AlgMRC are the linear decoders.
	AlgZF   Algorithm = "zf"
	AlgMMSE Algorithm = "mmse"
	AlgMRC  Algorithm = "mrc"
	// AlgLLLZF is lattice-reduction-aided linear detection: LLL-reduce the
	// channel basis, equalize, round in the reduced domain. Near-ML BER at
	// linear-decoder cost.
	AlgLLLZF Algorithm = "lll-zf"
	// AlgSIC is V-BLAST ordered successive interference cancellation:
	// polynomial complexity, BER between MMSE and ML.
	AlgSIC Algorithm = "sic"
	// AlgSphereRVD is the real-valued-decomposition sphere decoder: the
	// 2M-level PAM-tree formulation. Exact, like the complex search. It
	// names the same engine as AlgSphereRVDSE.
	AlgSphereRVD Algorithm = "sd-rvd"
	// AlgSphereRVDSE is the real-valued hot-path engine: RVD tree with
	// Schnorr–Euchner analytic child ordering (no per-node sort). Exact.
	AlgSphereRVDSE Algorithm = "sd-rvd-se"
	// AlgSphereLInf is the RVD/SE engine under the ℓ∞ partial-distance
	// metric (max residual instead of sum) — the max-comparator datapath
	// study. Slightly suboptimal BER, exact for its own criterion.
	AlgSphereLInf Algorithm = "sd-linf"
)

// Config describes a MIMO system.
type Config struct {
	// TxAntennas (M) and RxAntennas (N >= M).
	TxAntennas, RxAntennas int
	// Modulation is one of "BPSK", "4-QAM"/"QPSK", "16-QAM", "64-QAM"
	// (case and punctuation insensitive).
	Modulation string
}

// parse converts the public config into internal form.
func (c Config) parse() (mimo.Config, *constellation.Constellation, error) {
	mod, err := constellation.ParseModulation(c.Modulation)
	if err != nil {
		return mimo.Config{}, nil, err
	}
	mc := mimo.Config{Tx: c.TxAntennas, Rx: c.RxAntennas, Mod: mod, Convention: channel.PerTransmitSymbol}
	if err := mc.Validate(); err != nil {
		return mimo.Config{}, nil, err
	}
	return mc, constellation.New(mod), nil
}

// newDecoder builds the detector for an algorithm.
func newDecoder(alg Algorithm, cons *constellation.Constellation) (decoder.Decoder, error) {
	switch alg {
	case AlgSphereDecoder:
		return sphere.New(sphere.Config{Const: cons, Strategy: sphere.SortedDFS, UseGEMM: true})
	case AlgSphereBFS:
		return sphere.New(sphere.Config{Const: cons, Strategy: sphere.BFS})
	case AlgSphereBestFS:
		return sphere.New(sphere.Config{Const: cons, Strategy: sphere.BestFS})
	case AlgFSD:
		return sphere.New(sphere.Config{Const: cons, Strategy: sphere.FSD})
	case AlgSphereSQRD:
		inner, err := sphere.New(sphere.Config{Const: cons, Strategy: sphere.SortedDFS, UseGEMM: true})
		if err != nil {
			return nil, err
		}
		return order.NewDecoder(inner, order.SQRD), nil
	case AlgSphereFP16:
		inner, err := sphere.New(sphere.Config{Const: cons, Strategy: sphere.SortedDFS, UseGEMM: true})
		if err != nil {
			return nil, err
		}
		return quantize.NewDecoder(inner), nil
	case AlgML:
		return decoder.NewML(cons), nil
	case AlgZF:
		return decoder.NewZF(cons), nil
	case AlgMMSE:
		return decoder.NewMMSE(cons), nil
	case AlgMRC:
		return decoder.NewMRC(cons), nil
	case AlgLLLZF:
		return lattice.NewDecoder(cons), nil
	case AlgSIC:
		return decoder.NewSIC(cons), nil
	case AlgSphereRVD, AlgSphereRVDSE:
		return sphere.New(sphere.Config{Const: cons, Strategy: sphere.RealSE})
	case AlgSphereLInf:
		return sphere.New(sphere.Config{Const: cons, Strategy: sphere.RealSE, Norm: sphere.NormLInf})
	default:
		return nil, fmt.Errorf("mimosd: unknown algorithm %q", alg)
	}
}

// errDecoder is a decoder stub whose Decode always fails with a fixed
// construction error. Parallel simulation factories return it instead of
// panicking when a decoder cannot be built, so the failure is accounted as
// decode failures instead of crossing the API boundary as a panic.
type errDecoder struct{ err error }

func (d errDecoder) Name() string { return "invalid" }

func (d errDecoder) Decode(*cmatrix.Matrix, cmatrix.Vector, float64) (*decoder.Result, error) {
	return nil, d.err
}

// Link is one Monte-Carlo transmission: the channel state the receiver
// knows, the observation, and (for scoring) what was sent.
type Link struct {
	// H is the Rx×Tx channel matrix, row-major.
	H [][]complex128
	// Y is the received vector.
	Y []complex128
	// NoiseVar is the complex noise variance σ².
	NoiseVar float64
	// SentSymbols holds the transmitted constellation indices.
	SentSymbols []int
	// SentBits holds the transmitted bits (Gray-coded).
	SentBits []int
}

// RandomLink draws a transmission at the given SNR (dB, Es/N0 per transmit
// stream — the convention calibrated against the paper's Fig. 7).
func RandomLink(cfg Config, snrDB float64, seed uint64) (*Link, error) {
	mc, _, err := cfg.parse()
	if err != nil {
		return nil, err
	}
	f, err := mimo.GenerateFrame(rng.New(seed), mc, snrDB)
	if err != nil {
		return nil, err
	}
	h := make([][]complex128, f.H.Rows)
	for i := range h {
		h[i] = append([]complex128(nil), f.H.Row(i)...)
	}
	return &Link{
		H: h, Y: append([]complex128(nil), f.Y...),
		NoiseVar:    f.NoiseVar,
		SentSymbols: f.SymbolIdx,
		SentBits:    f.Bits,
	}, nil
}

// Detection is the outcome of one Detect call.
type Detection struct {
	// SymbolIndices holds the detected constellation index per transmit
	// antenna; Symbols the corresponding points; Bits the Gray-decoded
	// bits.
	SymbolIndices []int
	Symbols       []complex128
	Bits          []int
	// Metric is ‖y − H·ŝ‖².
	Metric float64
	// NodesExplored is the number of tree expansions (0 for linear
	// decoders).
	NodesExplored int64
	// Algorithm echoes the detector used.
	Algorithm string
	// Quality is "exact", "best-effort", or "fallback" — below exact, the
	// search was cut by a budget or deadline and the decision is the best
	// available, not the maximum-likelihood point. See DESIGN.md.
	Quality string
	// DegradedBy names what cut the search ("node-budget", "deadline",
	// "batch-deadline"); empty for exact detections.
	DegradedBy string
}

// checkLinkInput validates raw caller input against the configuration and
// packs the channel into matrix form; symMax is the largest |s| of the
// configured constellation, which bounds the search metric (see
// core.CheckSearchMetric). All failures wrap ErrInvalidInput.
func checkLinkInput(mc mimo.Config, symMax float64, h [][]complex128, y []complex128, noiseVar float64) (*cmatrix.Matrix, error) {
	if len(h) != mc.Rx {
		return nil, fmt.Errorf("%w: H has %d rows, config says %d", ErrInvalidInput, len(h), mc.Rx)
	}
	hm := cmatrix.NewMatrix(mc.Rx, mc.Tx)
	for i, row := range h {
		if len(row) != mc.Tx {
			return nil, fmt.Errorf("%w: H row %d has %d columns, config says %d", ErrInvalidInput, i, len(row), mc.Tx)
		}
		copy(hm.Row(i), row)
	}
	if len(y) != mc.Rx {
		return nil, fmt.Errorf("%w: Y has %d entries, config says %d", ErrInvalidInput, len(y), mc.Rx)
	}
	if err := core.CheckSearchMetric(hm, y, symMax); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	if noiseVar <= 0 || math.IsNaN(noiseVar) || math.IsInf(noiseVar, 0) {
		return nil, fmt.Errorf("%w: noise variance %v (want finite > 0)", ErrInvalidInput, noiseVar)
	}
	return hm, nil
}

// prepareInput is the single validation path of the public detectors: parse
// the configuration, check the raw input against it, and pack the channel
// into matrix form. Every failure — including a malformed Config — wraps
// ErrInvalidInput, so Detect, DetectSoft, and batch submission reject bad
// input identically.
func prepareInput(cfg Config, h [][]complex128, y []complex128, noiseVar float64) (mimo.Config, *constellation.Constellation, *cmatrix.Matrix, error) {
	mc, cons, err := cfg.parse()
	if err != nil {
		return mimo.Config{}, nil, nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	hm, err := checkLinkInput(mc, cons.MaxMagnitude(), h, y, noiseVar)
	if err != nil {
		return mimo.Config{}, nil, nil, err
	}
	return mc, cons, hm, nil
}

// ValidateInput checks one detection input against cfg without decoding it:
// configuration validity, dimensions, finiteness, a search metric that
// cannot overflow (core.CheckSearchMetric), and the noise-variance
// contract. It is exactly the admission check Detect and DetectSoft perform;
// a nil return guarantees those calls will not reject the input. All
// failures wrap ErrInvalidInput.
func ValidateInput(cfg Config, h [][]complex128, y []complex128, noiseVar float64) error {
	_, _, _, err := prepareInput(cfg, h, y, noiseVar)
	return err
}

// detectionFrom converts an internal decode result to the public form.
func detectionFrom(res *decoder.Result, cons *constellation.Constellation, name string) *Detection {
	buf := make([]int, cons.BitsPerSymbol())
	bits := make([]int, 0, len(res.SymbolIdx)*cons.BitsPerSymbol())
	for _, idx := range res.SymbolIdx {
		bits = append(bits, cons.BitsOf(idx, buf)...)
	}
	return &Detection{
		SymbolIndices: res.SymbolIdx,
		Symbols:       append([]complex128(nil), res.Symbols...),
		Bits:          bits,
		Metric:        res.Metric,
		NodesExplored: res.Counters.NodesExpanded,
		Algorithm:     name,
		Quality:       res.Quality.String(),
		DegradedBy:    res.DegradedBy,
	}
}

// Detect runs one detection. Input validation is ValidateInput: a link that
// passes it is decodable.
func Detect(cfg Config, alg Algorithm, h [][]complex128, y []complex128, noiseVar float64) (*Detection, error) {
	_, cons, hm, err := prepareInput(cfg, h, y, noiseVar)
	if err != nil {
		return nil, err
	}
	d, err := newDecoder(alg, cons)
	if err != nil {
		return nil, err
	}
	res, err := d.Decode(hm, cmatrix.Vector(y), noiseVar)
	if err != nil {
		return nil, err
	}
	return detectionFrom(res, cons, d.Name()), nil
}

// SoftDetection is a Detection plus per-bit log-likelihood ratios.
type SoftDetection struct {
	Detection
	// LLR holds one value per transmitted bit (antenna-major, MSB first);
	// positive means bit 0 is more likely.
	LLR []float64
	// Candidates is the number of leaves that informed the LLRs.
	Candidates int
}

// DetectSoft runs list sphere decoding and returns the ML hard decision
// together with max-log LLRs over listSize retained candidates.
func DetectSoft(cfg Config, h [][]complex128, y []complex128, noiseVar float64, listSize int) (*SoftDetection, error) {
	_, cons, hm, err := prepareInput(cfg, h, y, noiseVar)
	if err != nil {
		return nil, err
	}
	sd, err := sphere.NewSoft(sphere.Config{Const: cons, Strategy: sphere.SortedDFS}, listSize)
	if err != nil {
		return nil, err
	}
	res, err := sd.DecodeSoft(hm, cmatrix.Vector(y), noiseVar)
	if err != nil {
		return nil, err
	}
	return &SoftDetection{
		Detection:  *detectionFrom(&res.Result, cons, sd.Name()),
		LLR:        res.LLR,
		Candidates: res.Candidates,
	}, nil
}

// BERReport summarizes a Monte-Carlo BER run.
type BERReport struct {
	Config    Config
	Algorithm string
	SNRdB     float64
	Frames    int
	Bits      int
	BitErrors int
	BER       float64
	// CILow/CIHigh is the Wilson 95% confidence interval on BER.
	CILow, CIHigh float64
	// NodesPerFrame is the mean tree expansions per decode.
	NodesPerFrame float64
}

// SimulateBER runs frames Monte-Carlo transmissions at snrDB through the
// chosen algorithm, in parallel, with a deterministic seed.
func SimulateBER(cfg Config, alg Algorithm, snrDB float64, frames int, seed uint64) (*BERReport, error) {
	mc, cons, err := cfg.parse()
	if err != nil {
		return nil, err
	}
	if _, err := newDecoder(alg, cons); err != nil {
		return nil, err
	}
	// The algorithm is validated above; if a per-worker rebuild still fails
	// (it should not), the worker decodes nothing and the failure surfaces
	// as DecodeFailures rather than a panic across the API boundary.
	factory := func() decoder.Decoder {
		d, err := newDecoder(alg, cons)
		if err != nil {
			return errDecoder{err: err}
		}
		return d
	}
	run, err := mimo.RunParallel(mc, snrDB, frames, 0, factory, seed)
	if err != nil {
		return nil, err
	}
	lo, hi := run.BERInterval()
	return &BERReport{
		Config: cfg, Algorithm: run.Decoder, SNRdB: snrDB,
		Frames: run.Frames, Bits: run.Bits, BitErrors: run.BitErrors,
		BER: run.BER(), CILow: lo, CIHigh: hi,
		NodesPerFrame: run.NodesPerFrame(),
	}, nil
}

// PlatformTiming is the modeled decode time of one platform for a batch.
type PlatformTiming struct {
	Platform string
	Time     time.Duration
	PowerW   float64
	EnergyJ  float64
	// ThroughputMbps is the detected payload rate the platform sustains on
	// this workload: batch bits / decode time — the "turning capacity into
	// throughput" framing of the Geosphere comparison.
	ThroughputMbps float64
}

// TimingReport holds per-platform modeled times for one SNR point.
type TimingReport struct {
	Config        Config
	SNRdB         float64
	Frames        int
	NodesPerFrame float64
	Platforms     []PlatformTiming
	// MeetsRealTime maps platform name to whether it met the paper's 10 ms
	// bound.
	MeetsRealTime map[string]bool
}

// SimulateTiming runs the sorted-DFS search over a frames-vector batch at
// snrDB and models decode time on the CPU, FPGA-baseline, and
// FPGA-optimized platforms.
func SimulateTiming(cfg Config, snrDB float64, frames int, seed uint64) (*TimingReport, error) {
	mc, cons, err := cfg.parse()
	if err != nil {
		return nil, err
	}
	factory := func() decoder.Decoder {
		d, err := sphere.New(sphere.Config{Const: cons, Strategy: sphere.SortedDFS})
		if err != nil {
			return errDecoder{err: err}
		}
		return d
	}
	run, err := mimo.RunParallel(mc, snrDB, frames, 0, factory, seed)
	if err != nil {
		return nil, err
	}
	w := decoder.Workload{M: mc.Tx, N: mc.Rx, P: cons.Size(), Frames: frames}

	rep := &TimingReport{
		Config: cfg, SNRdB: snrDB, Frames: frames,
		NodesPerFrame: run.NodesPerFrame(),
		MeetsRealTime: map[string]bool{},
	}
	batchBits := float64(frames * mc.Tx * cons.BitsPerSymbol())
	cpu := platform.NewCPU()
	cpuT, err := cpu.BatchTime(w, run.Counters)
	if err != nil {
		return nil, err
	}
	rep.Platforms = append(rep.Platforms, PlatformTiming{
		Platform: cpu.Name(), Time: cpuT,
		PowerW: cpu.Power(w), EnergyJ: cpu.Power(w) * cpuT.Seconds(),
		ThroughputMbps: batchBits / cpuT.Seconds() / 1e6,
	})
	for _, v := range []fpga.Variant{fpga.Baseline, fpga.Optimized} {
		design, err := fpga.NewDesign(v, mc.Mod, mc.Tx, mc.Rx)
		if err != nil {
			return nil, err
		}
		dur, _, err := design.BatchTime(w, run.Counters)
		if err != nil {
			return nil, err
		}
		rep.Platforms = append(rep.Platforms, PlatformTiming{
			Platform: "FPGA-" + v.String(), Time: dur,
			PowerW: design.Power(), EnergyJ: design.Energy(dur.Seconds()),
			ThroughputMbps: batchBits / dur.Seconds() / 1e6,
		})
	}
	for _, pt := range rep.Platforms {
		rep.MeetsRealTime[pt.Platform] = pt.Time <= 10*time.Millisecond
	}
	return rep, nil
}

// Accelerator is the public handle on the integrated FPGA sphere-decoder
// product (internal/core): decode batches, read hardware reports.
type Accelerator struct {
	inner  *core.Accelerator
	cfg    mimo.Config
	symMax float64 // largest |s| of cfg's constellation
}

// Variant names for NewAccelerator.
const (
	VariantBaseline  = "baseline"
	VariantOptimized = "optimized"
)

// NewAccelerator builds an accelerator for cfg. variant is
// VariantBaseline or VariantOptimized.
func NewAccelerator(cfg Config, variant string) (*Accelerator, error) {
	mc, cons, err := cfg.parse()
	if err != nil {
		return nil, err
	}
	var v fpga.Variant
	switch variant {
	case VariantBaseline:
		v = fpga.Baseline
	case VariantOptimized:
		v = fpga.Optimized
	default:
		return nil, fmt.Errorf("mimosd: unknown variant %q", variant)
	}
	inner, err := core.New(v, mc.Mod, mc.Tx, mc.Rx, core.Options{})
	if err != nil {
		return nil, err
	}
	return &Accelerator{inner: inner, cfg: mc, symMax: cons.MaxMagnitude()}, nil
}

// HardwareReport summarizes the accelerator's static hardware profile.
type HardwareReport struct {
	Name         string
	FreqMHz      float64
	LUTFrac      float64
	FFFrac       float64
	DSPFrac      float64
	BRAMFrac     float64
	URAMFrac     float64
	Fits         bool
	PowerW       float64
	MaxPipelines int
}

// Hardware returns the design's resource/power profile (Tables I–II).
func (a *Accelerator) Hardware() HardwareReport {
	u := a.inner.Resources()
	lut, ff, dsp, bram, uram := u.Frac()
	return HardwareReport{
		Name:    a.inner.Name(),
		FreqMHz: u.FreqMHz,
		LUTFrac: lut, FFFrac: ff, DSPFrac: dsp, BRAMFrac: bram, URAMFrac: uram,
		Fits:         u.Fits(),
		PowerW:       a.inner.Power(),
		MaxPipelines: a.inner.Design().MaxPipelines(),
	}
}

// BatchResult is the outcome of Accelerator.DecodeBatch.
type BatchResult struct {
	// Detections holds one result per input link, in order.
	Detections []*Detection
	// SimulatedTime is the modeled FPGA wall time for the batch.
	SimulatedTime time.Duration
	// EnergyJ is the modeled energy.
	EnergyJ float64
	// MeetsRealTime reports the paper's 10 ms bound.
	MeetsRealTime bool
	// NodesExplored aggregates tree expansions over the batch.
	NodesExplored int64
	// Degraded reports whether any frame finished below exact quality.
	Degraded bool
	// QualityCounts maps quality names ("exact", "best-effort", "fallback")
	// to the number of frames that finished at that quality.
	QualityCounts map[string]int
}

// batchInputs converts links into the accelerator's input form.
func (a *Accelerator) batchInputs(links []*Link) ([]core.BatchInput, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrInvalidInput)
	}
	inputs := make([]core.BatchInput, len(links))
	for i, l := range links {
		if l == nil {
			return nil, fmt.Errorf("%w: link %d is nil", ErrInvalidInput, i)
		}
		hm, err := checkLinkInput(a.cfg, a.symMax, l.H, l.Y, l.NoiseVar)
		if err != nil {
			return nil, fmt.Errorf("link %d: %w", i, err)
		}
		inputs[i] = core.BatchInput{H: hm, Y: cmatrix.Vector(l.Y), NoiseVar: l.NoiseVar}
	}
	return inputs, nil
}

// BatchBudget bounds a whole DecodeBatch call (see WithBudget). Exhaustion
// never drops frames: overrunning work is cut at the budget and the
// remaining links are shed to the linear fallback detector, each flagged via
// Detection.Quality.
type BatchBudget struct {
	// Deadline bounds the modeled FPGA time of the batch; 0 = none.
	Deadline time.Duration
	// NodeBudget bounds total tree expansions across the batch; 0 = none.
	NodeBudget int64
}

// batchResultFrom converts a core batch report into the public form.
func (a *Accelerator) batchResultFrom(rep *core.BatchReport, name string) *BatchResult {
	cons := a.inner.Constellation()
	out := &BatchResult{
		SimulatedTime: rep.SimulatedTime,
		EnergyJ:       rep.EnergyJ,
		MeetsRealTime: rep.MeetsRealTime(),
		NodesExplored: rep.Counters.NodesExpanded,
		Degraded:      rep.Degraded,
		QualityCounts: rep.QualityCounts,
	}
	for _, res := range rep.Results {
		out.Detections = append(out.Detections, detectionFrom(res, cons, name))
	}
	return out
}

// DecodePolicy is the unified quality/cost control surface of the decode
// stack: the served engine (sorted-dfs or rvd-se, both ℓ²), SNR-scaled
// initial radius, per-frame node budget, GEMM verification, or the
// linear-only escape hatch, as one comparable value. The ℓ∞ and ablation
// searches are algorithms (AlgSphereLInf, AlgSphereBestFS, ...), not
// policies. See core.DecodePolicy for field semantics; ParsePolicy and
// DecodePolicy.String round-trip the canonical spelling relative to the
// library default engine (SortedDFS). sdserver's flag and /v1/policy bodies
// use the same spelling relative to the engine the server serves.
type DecodePolicy = core.DecodePolicy

// ParsePolicy parses the canonical DecodePolicy spelling ("default",
// "linear", "strategy=rvd-se", "radius-scale=2,max-nodes=4096,verify",
// ...).
func ParsePolicy(s string) (DecodePolicy, error) { return core.ParsePolicy(s) }

// batchOptions is the resolved option set of one DecodeBatch call.
type batchOptions struct {
	budget   BatchBudget
	policy   *DecodePolicy
	fallback bool
}

// BatchOption configures one Accelerator.DecodeBatch call.
type BatchOption func(*batchOptions)

// WithBudget bounds the whole batch: exhaustion never drops frames —
// overrunning work is cut at the budget and remaining links are shed to the
// linear fallback detector, each flagged via Detection.Quality. Composes
// with WithPolicy: the batch budget caps whatever per-frame budget the
// policy sets.
func WithBudget(b BatchBudget) BatchOption {
	return func(o *batchOptions) { o.budget = b }
}

// WithPolicy decodes the batch under p instead of the accelerator's base
// configuration (core.WithPolicy semantics): a Linear policy skips the tree
// search entirely, everything else selects a policy-derived decoder, cached
// per accelerator.
func WithPolicy(p DecodePolicy) BatchOption {
	return func(o *batchOptions) { o.policy = &p }
}

// WithFallback decodes the batch with the linear fallback detector only (no
// tree search): every Detection carries Quality "fallback". This is the
// decision an overloaded deployment emits when it sheds a batch rather than
// queue it — linear-decoder cost, metric never worse than sliced ZF. It
// overrides WithBudget and WithPolicy.
func WithFallback() BatchOption {
	return func(o *batchOptions) { o.fallback = true }
}

// DecodeBatch decodes a batch of links on the simulated FPGA. Options select
// the batch mode (WithBudget, WithFallback); with none it is the plain
// exhaustive batch decode. The result always covers every link; frames cut
// by a budget carry Quality "best-effort" or "fallback" and are tallied in
// QualityCounts.
func (a *Accelerator) DecodeBatch(links []*Link, opts ...BatchOption) (*BatchResult, error) {
	var o batchOptions
	for _, opt := range opts {
		opt(&o)
	}
	inputs, err := a.batchInputs(links)
	if err != nil {
		return nil, err
	}
	var coreOpts []core.BatchOption
	name := a.inner.Name()
	if o.fallback {
		coreOpts = append(coreOpts, core.WithFallback())
		name += "+fallback"
	} else {
		if o.policy != nil {
			coreOpts = append(coreOpts, core.WithPolicy(*o.policy))
			if o.policy.Linear {
				name += "+fallback"
			}
		}
		if o.budget != (BatchBudget{}) {
			coreOpts = append(coreOpts, core.WithBudget(core.BatchBudget{
				Deadline:   o.budget.Deadline,
				NodeBudget: o.budget.NodeBudget,
			}))
		}
	}
	rep, err := a.inner.DecodeBatch(inputs, coreOpts...)
	if err != nil {
		if errors.Is(err, core.ErrInvalidInput) {
			return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
		}
		return nil, err
	}
	return a.batchResultFrom(rep, name), nil
}

// SoftBatchResult is a BatchResult with per-link bit LLRs.
type SoftBatchResult struct {
	BatchResult
	// LLRs holds one slice per link (antenna-major, MSB-first; positive =
	// bit 0 more likely).
	LLRs [][]float64
}

// DecodeBatchSoft decodes a batch on the simulated FPGA with the list
// sphere decoder, returning exact hard decisions plus max-log LLRs and the
// modeled hardware cost of the (larger) list search.
func (a *Accelerator) DecodeBatchSoft(links []*Link, listSize int) (*SoftBatchResult, error) {
	inputs, err := a.batchInputs(links)
	if err != nil {
		return nil, err
	}
	rep, err := a.inner.DecodeBatchSoft(inputs, listSize)
	if err != nil {
		if errors.Is(err, core.ErrInvalidInput) {
			return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
		}
		return nil, err
	}
	out := &SoftBatchResult{
		BatchResult: *a.batchResultFrom(&rep.BatchReport, a.inner.Name()+"+soft"),
		LLRs:        rep.LLRs,
	}
	return out, nil
}
