// Package mimo ties the substrates together into the system model of the
// paper's Section II-A: it generates Monte-Carlo transmissions (random bits
// → Gray-coded symbols → Rayleigh channel → AWGN), runs a detector over
// them, and accounts bit/symbol/frame error rates with confidence intervals.
// The experiment harness and the examples drive all simulations through this
// package.
package mimo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/channel"
	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Config describes a MIMO system configuration. The paper writes these as
// "M×N mod", e.g. "10×10 4-QAM".
type Config struct {
	// Tx is M, the number of transmit antennas (tree height).
	Tx int
	// Rx is N, the number of receive antennas; must be >= Tx.
	Rx int
	// Mod selects the constellation.
	Mod constellation.Modulation
	// Convention fixes the SNR→noise-variance mapping. The zero value is
	// channel.PerTransmitSymbol, the convention the harness calibrated
	// against the paper's Fig. 7 BER anchor (see EXPERIMENTS.md).
	Convention channel.SNRConvention
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Tx <= 0 || c.Rx <= 0 {
		return fmt.Errorf("mimo: non-positive antenna count %dx%d", c.Tx, c.Rx)
	}
	if c.Rx < c.Tx {
		return fmt.Errorf("mimo: underdetermined system: %d tx > %d rx", c.Tx, c.Rx)
	}
	switch c.Mod {
	case constellation.BPSK, constellation.QAM4, constellation.QAM16, constellation.QAM64, constellation.QAM256:
	default:
		return fmt.Errorf("mimo: unknown modulation %v", c.Mod)
	}
	return nil
}

// String renders the paper's configuration notation.
func (c Config) String() string {
	return fmt.Sprintf("%dx%d %v", c.Tx, c.Rx, c.Mod)
}

// Frame is one Monte-Carlo transmission: everything the transmitter chose
// and everything the receiver observes.
type Frame struct {
	// Bits is the transmitted bit stream (Tx·bitsPerSymbol bits).
	Bits []int
	// SymbolIdx is the transmitted constellation index per antenna.
	SymbolIdx []int
	// Symbols is the transmitted vector s.
	Symbols cmatrix.Vector
	// H is the channel realization (Rx×Tx).
	H *cmatrix.Matrix
	// Y is the received vector y = H·s + n.
	Y cmatrix.Vector
	// NoiseVar is σ², also handed to the detector.
	NoiseVar float64
}

// GenerateFrame draws one transmission at the given SNR.
func GenerateFrame(r *rng.Rand, cfg Config, snrDB float64) (*Frame, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := constellation.New(cfg.Mod)
	bits := make([]int, cfg.Tx*c.BitsPerSymbol())
	r.Bits(bits)
	idx := make([]int, cfg.Tx)
	syms := make(cmatrix.Vector, cfg.Tx)
	for i := 0; i < cfg.Tx; i++ {
		idx[i] = c.Index(bits[i*c.BitsPerSymbol() : (i+1)*c.BitsPerSymbol()])
		syms[i] = c.Symbol(idx[i])
	}
	h := channel.Rayleigh(r, cfg.Rx, cfg.Tx)
	noiseVar := channel.NoiseVariance(cfg.Convention, snrDB, cfg.Tx)
	y := channel.Transmit(r, h, syms, noiseVar)
	return &Frame{Bits: bits, SymbolIdx: idx, Symbols: syms, H: h, Y: y, NoiseVar: noiseVar}, nil
}

// CountBitErrors compares transmitted and detected symbol indices bitwise.
func CountBitErrors(c *constellation.Constellation, sent, detected []int) int {
	if len(sent) != len(detected) {
		panic(fmt.Sprintf("mimo: CountBitErrors length mismatch %d vs %d", len(sent), len(detected)))
	}
	errs := 0
	for i := range sent {
		errs += c.HammingDistance(sent[i], detected[i])
	}
	return errs
}

// RunResult aggregates a Monte-Carlo run of one detector at one SNR point.
type RunResult struct {
	Config Config
	SNRdB  float64
	// Decoder is the detector's Name().
	Decoder string

	Frames       int
	Bits         int
	BitErrors    int
	Symbols      int
	SymbolErrors int
	FrameErrors  int
	// DecodeFailures counts frames where Decode returned an error (e.g. a
	// singular channel draw); they are excluded from the error rates.
	DecodeFailures int

	// Counters aggregates the operation traces of all successful decodes —
	// the input to every platform timing model.
	Counters decoder.Counters
}

// BER returns the bit error rate.
func (r *RunResult) BER() float64 {
	if r.Bits == 0 {
		return 0
	}
	return float64(r.BitErrors) / float64(r.Bits)
}

// SER returns the symbol error rate.
func (r *RunResult) SER() float64 {
	if r.Symbols == 0 {
		return 0
	}
	return float64(r.SymbolErrors) / float64(r.Symbols)
}

// FER returns the frame (vector) error rate.
func (r *RunResult) FER() float64 {
	if r.Frames == 0 {
		return 0
	}
	return float64(r.FrameErrors) / float64(r.Frames)
}

// BERInterval returns the Wilson 95% confidence interval for the BER.
func (r *RunResult) BERInterval() (lo, hi float64) {
	return stats.WilsonCI(r.BitErrors, r.Bits, 0.95)
}

// NodesPerFrame returns the mean number of tree expansions per decode.
func (r *RunResult) NodesPerFrame() float64 {
	n := r.Frames - r.DecodeFailures
	if n <= 0 {
		return 0
	}
	return float64(r.Counters.NodesExpanded) / float64(n)
}

// Merge folds other into r. Configs must match.
func (r *RunResult) Merge(other *RunResult) {
	r.Frames += other.Frames
	r.Bits += other.Bits
	r.BitErrors += other.BitErrors
	r.Symbols += other.Symbols
	r.SymbolErrors += other.SymbolErrors
	r.FrameErrors += other.FrameErrors
	r.DecodeFailures += other.DecodeFailures
	r.Counters.Add(other.Counters)
}

// ErrAllFramesFailed reports that no frame decoded successfully.
var ErrAllFramesFailed = errors.New("mimo: every frame failed to decode")

// FrameStats is the per-frame search profile kept by RunDetailed — the
// input granularity the multi-pipeline scheduler study needs (aggregate
// counters hide the heavy tail that makes scheduling interesting).
type FrameStats struct {
	// Nodes is the number of tree expansions for this frame.
	Nodes int64
	// EvalDepthSum is the per-frame Σ(m−k) over expansions.
	EvalDepthSum int64
	// BitErrors counts this frame's bit errors.
	BitErrors int
}

// RunDetailed is Run that additionally returns per-frame statistics, in
// frame order. Frames that fail to decode contribute zero-valued stats and
// are counted in DecodeFailures.
func RunDetailed(cfg Config, snrDB float64, frames int, d decoder.Decoder, seed uint64) (*RunResult, []FrameStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if frames <= 0 {
		return nil, nil, fmt.Errorf("mimo: non-positive frame count %d", frames)
	}
	r := rng.New(seed)
	c := constellation.New(cfg.Mod)
	out := &RunResult{Config: cfg, SNRdB: snrDB, Decoder: d.Name()}
	stats := make([]FrameStats, 0, frames)
	for i := 0; i < frames; i++ {
		f, err := GenerateFrame(r, cfg, snrDB)
		if err != nil {
			return nil, nil, err
		}
		res, err := d.Decode(f.H, f.Y, f.NoiseVar)
		out.Frames++
		if err != nil {
			out.DecodeFailures++
			stats = append(stats, FrameStats{})
			continue
		}
		berr := CountBitErrors(c, f.SymbolIdx, res.SymbolIdx)
		serr := 0
		for j := range f.SymbolIdx {
			if f.SymbolIdx[j] != res.SymbolIdx[j] {
				serr++
			}
		}
		out.Bits += len(f.Bits)
		out.BitErrors += berr
		out.Symbols += cfg.Tx
		out.SymbolErrors += serr
		if serr > 0 {
			out.FrameErrors++
		}
		out.Counters.Add(res.Counters)
		stats = append(stats, FrameStats{
			Nodes:        res.Counters.NodesExpanded,
			EvalDepthSum: res.Counters.EvalDepthSum,
			BitErrors:    berr,
		})
	}
	if out.DecodeFailures == out.Frames {
		return nil, nil, ErrAllFramesFailed
	}
	return out, stats, nil
}

// Run executes a sequential Monte-Carlo simulation: frames transmissions at
// snrDB, each decoded by d. The RNG stream is derived deterministically from
// seed, so runs are reproducible.
func Run(cfg Config, snrDB float64, frames int, d decoder.Decoder, seed uint64) (*RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if frames <= 0 {
		return nil, fmt.Errorf("mimo: non-positive frame count %d", frames)
	}
	r := rng.New(seed)
	c := constellation.New(cfg.Mod)
	out := &RunResult{Config: cfg, SNRdB: snrDB, Decoder: d.Name()}
	for i := 0; i < frames; i++ {
		f, err := GenerateFrame(r, cfg, snrDB)
		if err != nil {
			return nil, err
		}
		res, err := d.Decode(f.H, f.Y, f.NoiseVar)
		out.Frames++
		if err != nil {
			out.DecodeFailures++
			continue
		}
		berr := CountBitErrors(c, f.SymbolIdx, res.SymbolIdx)
		serr := 0
		for j := range f.SymbolIdx {
			if f.SymbolIdx[j] != res.SymbolIdx[j] {
				serr++
			}
		}
		out.Bits += len(f.Bits)
		out.BitErrors += berr
		out.Symbols += cfg.Tx
		out.SymbolErrors += serr
		if serr > 0 {
			out.FrameErrors++
		}
		out.Counters.Add(res.Counters)
	}
	if out.DecodeFailures == out.Frames {
		return nil, ErrAllFramesFailed
	}
	return out, nil
}

// RunParallel distributes frames across workers goroutines. Because
// decoders are not required to be concurrency-safe, the caller provides a
// factory that builds one detector per worker. Frame i is drawn from its own
// child RNG stream (the seed's i-th child), so the aggregate result is a
// function of (cfg, snrDB, frames, seed) alone: neither the worker count nor
// the scheduling changes it.
func RunParallel(cfg Config, snrDB float64, frames, workers int, factory func() decoder.Decoder, seed uint64) (*RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if frames <= 0 {
		return nil, fmt.Errorf("mimo: non-positive frame count %d", frames)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > frames {
		workers = frames
	}
	base := rng.New(seed)
	type out struct {
		res *RunResult
		err error
	}
	outs := make([]out, workers)
	var wg sync.WaitGroup
	chunk := frames / workers
	extra := frames % workers
	lo := 0
	for w := 0; w < workers; w++ {
		n := chunk
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			d := factory()
			c := constellation.New(cfg.Mod)
			res := &RunResult{Config: cfg, SNRdB: snrDB, Decoder: d.Name()}
			for i := lo; i < hi; i++ {
				f, err := GenerateFrame(base.Child(uint64(i)), cfg, snrDB)
				if err != nil {
					outs[w] = out{nil, err}
					return
				}
				dres, err := d.Decode(f.H, f.Y, f.NoiseVar)
				res.Frames++
				if err != nil {
					res.DecodeFailures++
					continue
				}
				berr := CountBitErrors(c, f.SymbolIdx, dres.SymbolIdx)
				serr := 0
				for j := range f.SymbolIdx {
					if f.SymbolIdx[j] != dres.SymbolIdx[j] {
						serr++
					}
				}
				res.Bits += len(f.Bits)
				res.BitErrors += berr
				res.Symbols += cfg.Tx
				res.SymbolErrors += serr
				if serr > 0 {
					res.FrameErrors++
				}
				res.Counters.Add(dres.Counters)
			}
			outs[w] = out{res, nil}
		}(w, lo, lo+n)
		lo += n
	}
	wg.Wait()

	total := &RunResult{Config: cfg, SNRdB: snrDB}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		if o.res == nil {
			continue
		}
		total.Decoder = o.res.Decoder
		total.Merge(o.res)
	}
	if total.DecodeFailures == total.Frames {
		return nil, ErrAllFramesFailed
	}
	return total, nil
}

// Sweep runs the detector across a list of SNR points, returning one
// RunResult per point. It is the workhorse behind every BER/time figure.
func Sweep(cfg Config, snrsDB []float64, frames int, factory func() decoder.Decoder, seed uint64, workers int) ([]*RunResult, error) {
	results := make([]*RunResult, 0, len(snrsDB))
	for i, snr := range snrsDB {
		res, err := RunParallel(cfg, snr, frames, workers, factory, seed+uint64(i)*1_000_003)
		if err != nil {
			return nil, fmt.Errorf("mimo: sweep at %v dB: %w", snr, err)
		}
		results = append(results, res)
	}
	return results, nil
}
