package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/mimo"
	"repro/internal/rng"
	"repro/internal/sphere"
)

func cfg4() mimo.Config { return mimo.Config{Tx: 6, Rx: 6, Mod: constellation.QAM4} }

func batchFor(t *testing.T, cfg mimo.Config, snr float64, n int, seed uint64) ([]BatchInput, [][]int) {
	t.Helper()
	r := rng.New(seed)
	inputs := make([]BatchInput, n)
	sent := make([][]int, n)
	for i := 0; i < n; i++ {
		f, err := mimo.GenerateFrame(r, cfg, snr)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i] = BatchInput{H: f.H, Y: f.Y, NoiseVar: f.NoiseVar}
		sent[i] = f.SymbolIdx
	}
	return inputs, sent
}

func TestNewValidation(t *testing.T) {
	if _, err := New(fpga.Optimized, constellation.QAM4, 0, 4, Options{}); err == nil {
		t.Error("bad size accepted")
	}
	if _, err := New(fpga.Optimized, constellation.QAM4, 6, 6, Options{Pipelines: 1000}); err == nil {
		t.Error("absurd pipeline count accepted")
	}
	// Baseline 64-QAM does not fit the device (URAM explosion).
	if _, err := New(fpga.Baseline, constellation.QAM64, 10, 10, Options{}); err == nil {
		t.Error("unfittable design accepted")
	}
}

func TestAcceleratorImplementsDecoder(t *testing.T) {
	var _ decoder.Decoder = MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
}

func TestDecodeMatchesML(t *testing.T) {
	c := constellation.New(constellation.QAM4)
	ml := decoder.NewML(c)
	acc := MustNew(fpga.Optimized, constellation.QAM4, 4, 4, Options{})
	r := rng.New(3)
	cfg := mimo.Config{Tx: 4, Rx: 4, Mod: constellation.QAM4}
	for trial := 0; trial < 10; trial++ {
		f, err := mimo.GenerateFrame(r, cfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ml.Decode(f.H, f.Y, f.NoiseVar)
		if err != nil {
			t.Fatal(err)
		}
		got, err := acc.Decode(f.H, f.Y, f.NoiseVar)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Metric-want.Metric) > 1e-6*(1+want.Metric) {
			t.Fatalf("trial %d: accelerator %v, ML %v", trial, got.Metric, want.Metric)
		}
	}
}

func TestDecodeRejectsWrongShape(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	inputs, _ := batchFor(t, mimo.Config{Tx: 4, Rx: 4, Mod: constellation.QAM4}, 10, 1, 1)
	if _, err := acc.Decode(inputs[0].H, inputs[0].Y, inputs[0].NoiseVar); err == nil {
		t.Fatal("wrong channel shape accepted")
	}
}

func TestDecodeBatchReport(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{ScalarEval: true})
	inputs, sent := batchFor(t, cfg4(), 14, 40, 7)
	rep, err := acc.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 40 {
		t.Fatalf("%d results", len(rep.Results))
	}
	if rep.SimulatedTime <= 0 {
		t.Fatal("no simulated time")
	}
	if rep.Breakdown.Total() <= 0 {
		t.Fatal("no cycle breakdown")
	}
	if rep.PowerW <= 0 || rep.EnergyJ <= 0 {
		t.Fatal("no power/energy")
	}
	if got := rep.EnergyJ / rep.SimulatedTime.Seconds(); math.Abs(got-rep.PowerW) > 1e-9 {
		t.Fatal("energy != power × time")
	}
	// High SNR: decodes should be error-free.
	errs := 0
	for i, res := range rep.Results {
		for j := range sent[i] {
			if res.SymbolIdx[j] != sent[i][j] {
				errs++
			}
		}
	}
	if errs > 2 {
		t.Fatalf("%d symbol errors at 14 dB over 40 frames", errs)
	}
}

func TestDecodeBatchEmpty(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	if _, err := acc.DecodeBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestScalarAndGEMMIdenticalDecodes(t *testing.T) {
	gemm := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	scalar := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{ScalarEval: true})
	inputs, _ := batchFor(t, cfg4(), 6, 20, 9)
	rg, err := gemm.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := scalar.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rg.Results {
		for j := range rg.Results[i].SymbolIdx {
			if rg.Results[i].SymbolIdx[j] != rs.Results[i].SymbolIdx[j] {
				t.Fatalf("frame %d: GEMM and scalar decodes differ", i)
			}
		}
	}
	// Same traversal => same node counts => same simulated hardware time.
	if rg.Counters.NodesExpanded != rs.Counters.NodesExpanded {
		t.Fatal("node counts differ between evaluation paths")
	}
	if rg.SimulatedTime != rs.SimulatedTime {
		t.Fatal("simulated time differs between evaluation paths")
	}
}

func TestOptimizedFasterThanBaseline(t *testing.T) {
	opt := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{ScalarEval: true})
	base := MustNew(fpga.Baseline, constellation.QAM4, 6, 6, Options{ScalarEval: true})
	inputs, _ := batchFor(t, cfg4(), 8, 30, 11)
	ro, err := opt.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := base.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if rb.SimulatedTime <= ro.SimulatedTime {
		t.Fatalf("baseline (%v) not slower than optimized (%v)", rb.SimulatedTime, ro.SimulatedTime)
	}
	// Identical searches: the BER-preservation claim.
	for i := range ro.Results {
		for j := range ro.Results[i].SymbolIdx {
			if ro.Results[i].SymbolIdx[j] != rb.Results[i].SymbolIdx[j] {
				t.Fatal("baseline and optimized decoded different symbols")
			}
		}
	}
}

func TestTwoPipelines(t *testing.T) {
	one := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{ScalarEval: true})
	two := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{ScalarEval: true, Pipelines: 2})
	inputs, _ := batchFor(t, cfg4(), 6, 50, 13)
	r1, err := one.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := two.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if r2.SimulatedTime >= r1.SimulatedTime {
		t.Fatalf("second pipeline did not help: %v vs %v", r2.SimulatedTime, r1.SimulatedTime)
	}
}

func TestResourcesAndPowerExposed(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM16, 10, 10, Options{})
	u := acc.Resources()
	if !u.Fits() {
		t.Fatal("reported non-fitting design")
	}
	if acc.Power() <= 0 {
		t.Fatal("no power")
	}
	if acc.Name() == "" || acc.Design() == nil || acc.Constellation() == nil {
		t.Fatal("accessors broken")
	}
}

func TestDecodeBatchSoft(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	inputs, _ := batchFor(t, cfg4(), 10, 20, 15)
	hard, err := acc.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	soft, err := acc.DecodeBatchSoft(inputs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(soft.Results) != 20 || len(soft.LLRs) != 20 {
		t.Fatalf("lengths %d/%d", len(soft.Results), len(soft.LLRs))
	}
	for i := range soft.Results {
		if len(soft.LLRs[i]) != 12 { // 6 antennas × 2 bits
			t.Fatalf("LLR length %d", len(soft.LLRs[i]))
		}
		// Hard decisions must agree with the plain batch (both exact).
		for j := range soft.Results[i].SymbolIdx {
			if soft.Results[i].SymbolIdx[j] != hard.Results[i].SymbolIdx[j] {
				t.Fatalf("frame %d: soft hard-decision differs", i)
			}
		}
	}
	// The list search does at least as much work, so it cannot be faster.
	if soft.SimulatedTime < hard.SimulatedTime {
		t.Fatalf("soft batch (%v) faster than hard (%v)", soft.SimulatedTime, hard.SimulatedTime)
	}
	if _, err := acc.DecodeBatchSoft(nil, 8); err == nil {
		t.Error("empty soft batch accepted")
	}
	if _, err := acc.DecodeBatchSoft(inputs, 0); err == nil {
		t.Error("list size 0 accepted")
	}
}

func TestMeetsRealTime(t *testing.T) {
	r := &BatchReport{SimulatedTime: 9_000_000} // 9 ms
	if !r.MeetsRealTime() {
		t.Fatal("9 ms should meet the 10 ms bound")
	}
	r.SimulatedTime = 11_000_000
	if r.MeetsRealTime() {
		t.Fatal("11 ms should not meet the bound")
	}
}

func TestDecodeBatchBudgetNodeBudget(t *testing.T) {
	cfg := cfg4()
	a := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{ScalarEval: true})
	inputs, _ := batchFor(t, cfg, 6, 12, 301)
	// Unbudgeted reference: every frame exact.
	full, err := a.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if full.Degraded || full.QualityCounts["exact"] != 12 {
		t.Fatalf("unbudgeted batch degraded: %+v", full.QualityCounts)
	}
	// A node budget far below the exact cost must cut/shed frames, never err.
	budget := full.Counters.NodesExpanded / 10
	if budget < 1 {
		budget = 1
	}
	rep, err := a.DecodeBatch(inputs, WithBudget(BatchBudget{NodeBudget: budget}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 12 {
		t.Fatalf("budgeted batch returned %d/12 results", len(rep.Results))
	}
	if !rep.Degraded {
		t.Fatal("starved batch not flagged degraded")
	}
	if rep.Counters.NodesExpanded > budget {
		t.Fatalf("spent %d nodes on a %d budget", rep.Counters.NodesExpanded, budget)
	}
	total := 0
	for _, n := range rep.QualityCounts {
		total += n
	}
	if total != 12 {
		t.Fatalf("quality histogram covers %d/12 frames: %+v", total, rep.QualityCounts)
	}
	for _, res := range rep.Results {
		if len(res.SymbolIdx) != cfg.Tx {
			t.Fatalf("degraded frame has %d symbols", len(res.SymbolIdx))
		}
	}
}

func TestDecodeBatchBudgetDeadline(t *testing.T) {
	cfg := cfg4()
	a := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{ScalarEval: true})
	inputs, _ := batchFor(t, cfg, 6, 10, 302)
	full, err := a.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	// A modeled deadline well under the full batch time forces shedding.
	rep, err := a.DecodeBatch(inputs, WithBudget(BatchBudget{Deadline: full.SimulatedTime / 4}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatalf("deadline %v vs full %v did not degrade", full.SimulatedTime/4, full.SimulatedTime)
	}
	sawShed := false
	for _, res := range rep.Results {
		if res.DegradedBy == decoder.DegradedByBatchDeadline {
			sawShed = true
			if res.Quality != decoder.QualityFallback {
				t.Fatalf("shed frame quality %v", res.Quality)
			}
		}
	}
	if !sawShed {
		t.Fatal("no frame attributed to the batch deadline")
	}
	if rep.SimulatedTime >= full.SimulatedTime {
		t.Fatalf("degraded batch modeled no faster: %v vs %v", rep.SimulatedTime, full.SimulatedTime)
	}
}

func TestDecodeBatchBudgetValidation(t *testing.T) {
	cfg := cfg4()
	a := MustNew(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx, Options{ScalarEval: true})
	inputs, _ := batchFor(t, cfg, 6, 2, 303)
	if _, err := a.DecodeBatch(inputs, WithBudget(BatchBudget{Deadline: -1})); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("negative deadline: %v", err)
	}
	if _, err := a.DecodeBatch(inputs, WithBudget(BatchBudget{NodeBudget: -5})); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("negative node budget: %v", err)
	}
	bad := inputs[0]
	bad.NoiseVar = 0
	if _, err := a.DecodeBatch([]BatchInput{bad}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("zero noise variance: %v", err)
	}
	bad = inputs[0]
	bad.Y = append(cmatrix.Vector(nil), bad.Y...)
	bad.Y[0] = complex(math.NaN(), 0)
	if _, err := a.DecodeBatch([]BatchInput{bad}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("NaN observation: %v", err)
	}
	bad = inputs[0]
	bad.H = bad.H.Clone()
	bad.H.Set(0, 0, complex(math.Inf(1), 0))
	if _, err := a.DecodeBatch([]BatchInput{bad}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("Inf channel: %v", err)
	}
	bad = inputs[0]
	bad.H = nil
	if _, err := a.DecodeBatch([]BatchInput{bad}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("nil channel: %v", err)
	}
	bad = inputs[0]
	bad.Y = bad.Y[:len(bad.Y)-1]
	if _, err := a.DecodeBatch([]BatchInput{bad}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("short observation: %v", err)
	}
}

// TestValidateInputAdmitsOnlyDecodable: every frame ValidateInput admits
// decodes. The scales sweep the top of the float64 range, where ‖H‖²_F and
// ‖y‖² are each finite but the search's metric ‖ȳ − Rs‖² need not be (a
// 4×4 H = 6e153·I with y = 1.3e154·e₁ puts every leaf at about 2e308).
func TestValidateInputAdmitsOnlyDecodable(t *testing.T) {
	scales := []float64{1e100, 1e150, 3e153, 6e153, 1e154, 1.3e154, 3e154, 1e155}
	for _, mod := range []constellation.Modulation{constellation.QAM4, constellation.QAM16} {
		for _, strat := range []sphere.Strategy{sphere.SortedDFS, sphere.RealSE} {
			acc := MustNew(fpga.Optimized, mod, 4, 4, Options{Strategy: strat})
			admitted := 0
			for _, hs := range scales {
				for _, ys := range scales {
					h := cmatrix.NewMatrix(4, 4)
					for i := range 4 {
						h.Set(i, i, complex(hs, 0))
					}
					y := make(cmatrix.Vector, 4)
					y[0] = complex(ys, 0)
					in := BatchInput{H: h, Y: y, NoiseVar: 1}
					if acc.ValidateInput(in) != nil {
						continue
					}
					admitted++
					rep, err := acc.DecodeBatch([]BatchInput{in})
					if err != nil {
						t.Errorf("%v/%v H=%g·I y=%g·e₁: admitted but %v", mod, strat, hs, ys, err)
						continue
					}
					if m := rep.Results[0].Metric; math.IsInf(m, 0) || math.IsNaN(m) {
						t.Errorf("%v/%v H=%g·I y=%g·e₁: admitted with metric %v", mod, strat, hs, ys, m)
					}
				}
			}
			if admitted == 0 {
				t.Errorf("%v/%v: no scale admitted", mod, strat)
			}
		}
	}
}

func TestValidateInput(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	inputs, _ := batchFor(t, cfg4(), 10, 1, 5)
	good := inputs[0]
	if err := acc.ValidateInput(good); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	// Finite entries whose energy overflows the search metric: no leaf
	// beats an infinite ‖ȳ − Rs‖², and an infinite ‖H‖²_F has no usable QR.
	hugeY := cmatrix.CloneVector(good.Y)
	hugeY[2] = 1e200
	hugeH := good.H.Clone()
	hugeH.Data[0] = complex(1.7e308, 1.7e308)
	// ‖H‖²_F = 1.5e308 and ‖y‖² = 1.69e308 are each finite, but every
	// leaf's ‖ȳ − Rs‖² is at least (1.3e154 − 5e153)² + 5·(5e153)² ≈ 1.9e308.
	bigH := cmatrix.NewMatrix(6, 6)
	for i := range 6 {
		bigH.Set(i, i, 5e153)
	}
	bigY := make(cmatrix.Vector, 6)
	bigY[0] = 1.3e154
	cases := map[string]BatchInput{
		"nil H":     {H: nil, Y: good.Y, NoiseVar: good.NoiseVar},
		"short Y":   {H: good.H, Y: good.Y[:5], NoiseVar: good.NoiseVar},
		"neg noise": {H: good.H, Y: good.Y, NoiseVar: -1},
		"nan noise": {H: good.H, Y: good.Y, NoiseVar: math.NaN()},
		"huge y":    {H: good.H, Y: hugeY, NoiseVar: good.NoiseVar},
		"huge H":    {H: hugeH, Y: good.Y, NoiseVar: good.NoiseVar},
		"big H, y":  {H: bigH, Y: bigY, NoiseVar: good.NoiseVar},
	}
	for name, in := range cases {
		if err := acc.ValidateInput(in); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: %v, want ErrInvalidInput", name, err)
		}
	}
	// DecodeBatch callers that skip admission get the same check.
	if _, err := acc.DecodeBatch([]BatchInput{good, cases["huge y"]}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("DecodeBatch with an overflowing y: %v, want ErrInvalidInput", err)
	}
	wrong := cmatrix.NewMatrix(4, 4)
	if err := acc.ValidateInput(BatchInput{H: wrong, Y: good.Y[:4], NoiseVar: good.NoiseVar}); !errors.Is(err, ErrInvalidInput) {
		t.Error("dimension mismatch accepted")
	}
}

func TestDecodeFallbackSingle(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	inputs, _ := batchFor(t, cfg4(), 14, 4, 9)
	zf := decoder.NewZF(constellation.New(constellation.QAM4))
	for i, in := range inputs {
		res, err := acc.DecodeFallback(in)
		if err != nil {
			t.Fatalf("DecodeFallback %d: %v", i, err)
		}
		if res.Quality != decoder.QualityFallback {
			t.Fatalf("quality %v, want fallback", res.Quality)
		}
		if res.Counters.NodesExpanded != 0 {
			t.Fatalf("fallback expanded %d nodes", res.Counters.NodesExpanded)
		}
		// The fallback contract: never worse than sliced ZF.
		zres, err := zf.Decode(in.H, in.Y, in.NoiseVar)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metric > zres.Metric*(1+1e-9) {
			t.Fatalf("fallback metric %v worse than ZF %v", res.Metric, zres.Metric)
		}
	}
	if _, err := acc.DecodeFallback(BatchInput{}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("empty input: %v", err)
	}
}

func TestDecodeBatchFallback(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	inputs, _ := batchFor(t, cfg4(), 14, 5, 13)
	rep, err := acc.DecodeBatch(inputs, WithFallback())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(inputs) {
		t.Fatalf("%d results for %d inputs", len(rep.Results), len(inputs))
	}
	if !rep.Degraded || rep.QualityCounts["fallback"] != len(inputs) {
		t.Fatalf("quality %v degraded=%v", rep.QualityCounts, rep.Degraded)
	}
	for i, res := range rep.Results {
		if res.DegradedBy != decoder.DegradedByOverload {
			t.Fatalf("result %d DegradedBy %q", i, res.DegradedBy)
		}
	}
	if rep.SimulatedTime <= 0 || rep.EnergyJ <= 0 {
		t.Fatalf("hardware pricing missing: %v / %v J", rep.SimulatedTime, rep.EnergyJ)
	}
	// Shedding the whole batch must be cheaper than searching it.
	full, err := acc.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SimulatedTime >= full.SimulatedTime {
		t.Fatalf("fallback batch (%v) not cheaper than full search (%v)", rep.SimulatedTime, full.SimulatedTime)
	}
	if _, err := acc.DecodeBatch(nil, WithFallback()); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("empty batch: %v", err)
	}
}
