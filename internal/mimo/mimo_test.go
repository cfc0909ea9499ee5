package mimo

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/rng"
	"repro/internal/sphere"
)

func qam4Cfg() Config {
	return Config{Tx: 4, Rx: 4, Mod: constellation.QAM4}
}

func TestConfigValidate(t *testing.T) {
	good := qam4Cfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Tx: 0, Rx: 4, Mod: constellation.QAM4},
		{Tx: 4, Rx: 0, Mod: constellation.QAM4},
		{Tx: 5, Rx: 4, Mod: constellation.QAM4},
		{Tx: 4, Rx: 4, Mod: constellation.Modulation(77)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestConfigString(t *testing.T) {
	cfg := Config{Tx: 10, Rx: 10, Mod: constellation.QAM16}
	if got := cfg.String(); got != "10x10 16-QAM" {
		t.Fatalf("String = %q", got)
	}
}

func TestGenerateFrameConsistency(t *testing.T) {
	r := rng.New(1)
	cfg := qam4Cfg()
	c := constellation.New(cfg.Mod)
	f, err := GenerateFrame(r, cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Bits) != cfg.Tx*c.BitsPerSymbol() {
		t.Fatalf("bits %d", len(f.Bits))
	}
	if len(f.SymbolIdx) != cfg.Tx || len(f.Symbols) != cfg.Tx {
		t.Fatal("symbol lengths wrong")
	}
	// Bits must map to the recorded symbols.
	for i := 0; i < cfg.Tx; i++ {
		idx := c.Index(f.Bits[i*2 : (i+1)*2])
		if idx != f.SymbolIdx[i] || c.Symbol(idx) != f.Symbols[i] {
			t.Fatalf("antenna %d: bits inconsistent with symbols", i)
		}
	}
	if f.H.Rows != cfg.Rx || f.H.Cols != cfg.Tx || len(f.Y) != cfg.Rx {
		t.Fatal("channel shapes wrong")
	}
	if f.NoiseVar <= 0 {
		t.Fatal("noise variance not positive")
	}
}

func TestGenerateFrameDeterministic(t *testing.T) {
	cfg := qam4Cfg()
	f1, err := GenerateFrame(rng.New(5), cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := GenerateFrame(rng.New(5), cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1.Y {
		if f1.Y[i] != f2.Y[i] {
			t.Fatal("same seed produced different frames")
		}
	}
}

func TestGenerateFrameRejectsBadConfig(t *testing.T) {
	if _, err := GenerateFrame(rng.New(1), Config{Tx: 3, Rx: 2, Mod: constellation.QAM4}, 10); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestCountBitErrors(t *testing.T) {
	c := constellation.New(constellation.QAM4)
	if got := CountBitErrors(c, []int{0, 3}, []int{0, 3}); got != 0 {
		t.Fatalf("no-error count = %d", got)
	}
	if got := CountBitErrors(c, []int{0}, []int{3}); got != 2 {
		t.Fatalf("0 vs 3 = %d bits, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	CountBitErrors(c, []int{0}, []int{0, 1})
}

func TestRunZeroNoiseIsErrorFree(t *testing.T) {
	cfg := qam4Cfg()
	c := constellation.New(cfg.Mod)
	res, err := Run(cfg, 200, 50, decoder.NewZF(c), 42) // 200 dB ≈ noiseless
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors != 0 || res.SymbolErrors != 0 || res.FrameErrors != 0 {
		t.Fatalf("errors at 200 dB: %+v", res)
	}
	if res.Frames != 50 || res.Bits != 50*8 {
		t.Fatalf("accounting wrong: %+v", res)
	}
}

func TestRunBERDecreasesWithSNR(t *testing.T) {
	cfg := Config{Tx: 4, Rx: 6, Mod: constellation.QAM4}
	c := constellation.New(cfg.Mod)
	low, err := Run(cfg, -2, 400, decoder.NewMMSE(c), 7)
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(cfg, 14, 400, decoder.NewMMSE(c), 7)
	if err != nil {
		t.Fatal(err)
	}
	if low.BER() <= high.BER() {
		t.Fatalf("BER not decreasing: %v at -2 dB vs %v at 14 dB", low.BER(), high.BER())
	}
	if low.BER() == 0 {
		t.Fatal("expected errors at -2 dB")
	}
}

func TestRunRates(t *testing.T) {
	r := &RunResult{Frames: 10, Bits: 100, BitErrors: 5, Symbols: 50, SymbolErrors: 4, FrameErrors: 2}
	if r.BER() != 0.05 || r.SER() != 0.08 || r.FER() != 0.2 {
		t.Fatalf("rates: %v %v %v", r.BER(), r.SER(), r.FER())
	}
	lo, hi := r.BERInterval()
	if lo >= 0.05 || hi <= 0.05 {
		t.Fatalf("CI [%v,%v] does not bracket BER", lo, hi)
	}
	empty := &RunResult{}
	if empty.BER() != 0 || empty.SER() != 0 || empty.FER() != 0 || empty.NodesPerFrame() != 0 {
		t.Fatal("zero-value rates should be 0")
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	cfg := qam4Cfg()
	c := constellation.New(cfg.Mod)
	if _, err := Run(cfg, 10, 0, decoder.NewZF(c), 1); err == nil {
		t.Fatal("zero frames accepted")
	}
	if _, err := Run(Config{Tx: 2, Rx: 1, Mod: constellation.QAM4}, 10, 5, decoder.NewZF(c), 1); err == nil {
		t.Fatal("bad config accepted")
	}
}

// failingDecoder always errors, to exercise the failure-accounting path.
type failingDecoder struct{}

func (failingDecoder) Name() string { return "fail" }
func (failingDecoder) Decode(*cmatrix.Matrix, cmatrix.Vector, float64) (*decoder.Result, error) {
	return nil, fmt.Errorf("synthetic failure")
}

func TestRunAllFailures(t *testing.T) {
	if _, err := Run(qam4Cfg(), 10, 5, failingDecoder{}, 1); !errors.Is(err, ErrAllFramesFailed) {
		t.Fatalf("err = %v, want ErrAllFramesFailed", err)
	}
}

func TestRunParallelMatchesAggregates(t *testing.T) {
	cfg := qam4Cfg()
	factory := func() decoder.Decoder {
		return sphere.MustNew(sphere.Config{Const: constellation.New(cfg.Mod)})
	}
	res, err := RunParallel(cfg, 6, 120, 4, factory, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 120 {
		t.Fatalf("frames %d", res.Frames)
	}
	if res.Bits != 120*8 {
		t.Fatalf("bits %d", res.Bits)
	}
	if res.Counters.NodesExpanded == 0 {
		t.Fatal("no trace aggregated")
	}
	// Deterministic: same seed, same worker count => identical result.
	res2, err := RunParallel(cfg, 6, 120, 4, factory, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors != res2.BitErrors || res.Counters.NodesExpanded != res2.Counters.NodesExpanded {
		t.Fatal("parallel run not reproducible")
	}
}

// TestRunParallelIndependentOfWorkers: the aggregate is a function of
// (cfg, SNR, frames, seed) alone, so every worker count returns the same
// RunResult, counters included.
func TestRunParallelIndependentOfWorkers(t *testing.T) {
	cfg := qam4Cfg()
	factory := func() decoder.Decoder {
		return sphere.MustNew(sphere.Config{Const: constellation.New(cfg.Mod)})
	}
	want, err := RunParallel(cfg, 4, 61, 1, factory, 123)
	if err != nil {
		t.Fatal(err)
	}
	if want.BitErrors == 0 {
		t.Fatal("no bit errors at 4 dB: the comparison would not see a reordered draw")
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := RunParallel(cfg, 4, 61, workers, factory, 123)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: %+v, want the 1-worker result %+v", workers, got, want)
		}
	}
}

func TestRunParallelWorkerClamping(t *testing.T) {
	cfg := qam4Cfg()
	c := constellation.New(cfg.Mod)
	factory := func() decoder.Decoder { return decoder.NewZF(c) }
	// More workers than frames must still process every frame exactly once.
	res, err := RunParallel(cfg, 20, 3, 16, factory, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 3 {
		t.Fatalf("frames %d, want 3", res.Frames)
	}
	// workers <= 0 selects a default.
	if _, err := RunParallel(cfg, 20, 3, 0, factory, 5); err != nil {
		t.Fatal(err)
	}
}

func TestSweep(t *testing.T) {
	cfg := qam4Cfg()
	factory := func() decoder.Decoder {
		return sphere.MustNew(sphere.Config{Const: constellation.New(cfg.Mod)})
	}
	snrs := []float64{0, 10, 20}
	results, err := Sweep(cfg, snrs, 60, factory, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	// Node counts must trend down with SNR (the timing-figure mechanism).
	if results[2].NodesPerFrame() >= results[0].NodesPerFrame() {
		t.Fatalf("nodes/frame not decreasing: %v → %v",
			results[0].NodesPerFrame(), results[2].NodesPerFrame())
	}
	for i, res := range results {
		if res.SNRdB != snrs[i] {
			t.Errorf("result %d has SNR %v", i, res.SNRdB)
		}
	}
}

func TestRunDetailed(t *testing.T) {
	cfg := qam4Cfg()
	d := sphere.MustNew(sphere.Config{Const: constellation.New(cfg.Mod)})
	agg, frames, err := RunDetailed(cfg, 8, 50, d, 123)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 50 {
		t.Fatalf("%d frame stats", len(frames))
	}
	var nodes, depth int64
	var berr int
	for _, f := range frames {
		if f.Nodes <= 0 {
			t.Fatal("frame with no expansions")
		}
		nodes += f.Nodes
		depth += f.EvalDepthSum
		berr += f.BitErrors
	}
	// Per-frame stats must sum to the aggregate counters exactly.
	if nodes != agg.Counters.NodesExpanded || depth != agg.Counters.EvalDepthSum {
		t.Fatalf("per-frame sums (%d, %d) != aggregate (%d, %d)",
			nodes, depth, agg.Counters.NodesExpanded, agg.Counters.EvalDepthSum)
	}
	if berr != agg.BitErrors {
		t.Fatalf("per-frame bit errors %d != aggregate %d", berr, agg.BitErrors)
	}
}

func TestRunDetailedMatchesRun(t *testing.T) {
	cfg := qam4Cfg()
	mk := func() decoder.Decoder {
		return sphere.MustNew(sphere.Config{Const: constellation.New(cfg.Mod)})
	}
	a, err := Run(cfg, 8, 40, mk(), 9)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunDetailed(cfg, 8, 40, mk(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.BitErrors != b.BitErrors || a.Counters.NodesExpanded != b.Counters.NodesExpanded {
		t.Fatal("RunDetailed diverged from Run on the same seed")
	}
}

func TestRunDetailedValidation(t *testing.T) {
	cfg := qam4Cfg()
	d := decoder.NewZF(constellation.New(cfg.Mod))
	if _, _, err := RunDetailed(cfg, 8, 0, d, 1); err == nil {
		t.Fatal("zero frames accepted")
	}
	if _, _, err := RunDetailed(Config{Tx: 2, Rx: 1, Mod: constellation.QAM4}, 8, 5, d, 1); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestMerge(t *testing.T) {
	a := &RunResult{Frames: 1, Bits: 8, BitErrors: 1}
	b := &RunResult{Frames: 2, Bits: 16, BitErrors: 3, DecodeFailures: 1}
	a.Merge(b)
	if a.Frames != 3 || a.Bits != 24 || a.BitErrors != 4 || a.DecodeFailures != 1 {
		t.Fatalf("merge: %+v", a)
	}
}
