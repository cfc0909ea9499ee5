package adapt

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/mimo"
	"repro/internal/rng"
	"repro/internal/sphere"
)

func testLevels() []Level { return DefaultLevels(true, 4096) }

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(Config{}); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := NewController(Config{Levels: []Level{{Policy: core.DecodePolicy{}}}}); err == nil {
		t.Error("unnamed level accepted")
	}
	if _, err := NewController(Config{Levels: []Level{
		{Name: "a", MaxPressure: 1},
		{Name: "a", MaxPressure: 2},
	}}); err == nil {
		t.Error("duplicate level name accepted")
	}
	if _, err := NewController(Config{Levels: []Level{
		{Name: "bad", Policy: core.DecodePolicy{Norm: sphere.NormLInf}, MaxPressure: 1},
	}}); err == nil {
		t.Error("invalid level policy accepted")
	}
	if _, err := NewController(Config{Levels: testLevels(), NodeAlpha: 2}); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := NewController(Config{Levels: testLevels()}); err != nil {
		t.Errorf("default ladder rejected: %v", err)
	}
}

func TestDefaultLevelsLadderShape(t *testing.T) {
	withSE := DefaultLevels(true, 0)
	withoutSE := DefaultLevels(false, 0)
	if len(withSE) != len(withoutSE)+1 {
		t.Fatalf("square-QAM ladder should add exactly the se-linf rung: %d vs %d", len(withSE), len(withoutSE))
	}
	last := withSE[len(withSE)-1]
	if !last.Policy.Linear || !math.IsInf(last.MaxPressure, 1) {
		t.Fatal("ladder must terminate in an always-eligible linear rung")
	}
	// Thresholds must be non-decreasing so "more pressure" never selects a
	// more expensive level.
	for i := 1; i < len(withSE); i++ {
		if withSE[i].MaxPressure < withSE[i-1].MaxPressure {
			t.Fatalf("ladder thresholds not monotone at %q", withSE[i].Name)
		}
	}
}

func TestDecideWalksLadderUnderPressure(t *testing.T) {
	c := MustNewController(Config{Levels: testLevels(), NodeCeiling: 1000})
	// No observations, empty queue: the exact full search.
	if d := c.Decide("a", 0, 100); d.Level != "exact-full" {
		t.Fatalf("idle decision %q", d.Level)
	}
	// Saturated queue: last resort.
	if d := c.Decide("a", 100, 100); d.Level != "linear" {
		t.Fatalf("saturated decision %q", d.Level)
	}
	// Node cost alone (queue empty) also degrades: EWMA at 1.2× ceiling.
	c.Observe("b", 14, 1200, decoder.QualityExact)
	if d := c.Decide("b", 0, 100); d.Level != "exact-radius" {
		t.Fatalf("hot-class decision %q", d.Level)
	}
}

func TestDecideSNRGatesLevels(t *testing.T) {
	c := MustNewController(Config{Levels: testLevels(), NodeCeiling: 1000})
	// Pressure 2.0 at high SNR lands on the se-linf rung (MaxPressure 3).
	c.Observe("hi", 14, 2000, decoder.QualityExact)
	if d := c.Decide("hi", 0, 0); d.Level != "se-linf" {
		t.Fatalf("high-SNR decision %q", d.Level)
	}
	// The same pressure at 3 dB skips both SNR-gated rungs (exact-radius
	// needs 6 dB, se-linf needs 8) and lands on budget.
	c.Observe("lo", 3, 2000, decoder.QualityExact)
	if d := c.Decide("lo", 0, 0); d.Level != "budget" {
		t.Fatalf("low-SNR decision %q", d.Level)
	}
}

func TestRecoveryHysteresis(t *testing.T) {
	c := MustNewController(Config{Levels: testLevels(), NodeCeiling: 1000, Hysteresis: 0.2})
	// Drive the class down the ladder.
	c.Observe("a", 14, 1400, decoder.QualityExact)
	if d := c.Decide("a", 0, 0); d.Level != "exact-radius" {
		t.Fatalf("setup decision %q", d.Level)
	}
	// Pressure falls to just under exact-full's threshold (0.5) but inside
	// the hysteresis band (> 0.8·0.5 = 0.4): stay put.
	reObserve(c, "a", 14, 450)
	if d := c.Decide("a", 0, 0); d.Level != "exact-radius" {
		t.Fatalf("recovery inside hysteresis band jumped to %q", d.Level)
	}
	// Pressure well below the band: recover.
	reObserve(c, "a", 14, 100)
	if d := c.Decide("a", 0, 0); d.Level != "exact-full" {
		t.Fatalf("clear recovery stayed at %q", d.Level)
	}
}

// reObserve feeds the same observation until the EWMA converges to it, so a
// test can set the smoothed state directly.
func reObserve(c *Controller, class string, snrDB float64, nodes int64) {
	for i := 0; i < 60; i++ {
		c.Observe(class, snrDB, nodes, decoder.QualityExact)
	}
}

func TestFirstObservationSeedsEWMA(t *testing.T) {
	c := MustNewController(Config{Levels: testLevels(), NodeCeiling: 1000})
	c.Observe("a", 9, 700, decoder.QualityExact)
	snaps := c.Snapshot()
	if len(snaps) != 1 || snaps[0].EWMANodes != 700 || snaps[0].EWMASNRdB != 9 {
		t.Fatalf("first observation not seeded directly: %+v", snaps)
	}
}

func TestSNREstimateDB(t *testing.T) {
	for _, snr := range []float64{-3, 0, 8, 14, 30} {
		noiseVar := math.Pow(10, -snr/10)
		if got := SNREstimateDB(noiseVar); math.Abs(got-snr) > 1e-9 {
			t.Fatalf("SNREstimateDB(%v) = %v, want %v", noiseVar, got, snr)
		}
	}
	if !math.IsInf(SNREstimateDB(0), 1) {
		t.Fatal("zero noise variance must estimate +Inf")
	}
}

func TestRecorderFeedsObservations(t *testing.T) {
	// A real traced search through the controller's Recorder must move the
	// class EWMA by exactly the nodes the search expanded.
	c := MustNewController(Config{Levels: testLevels(), NodeCeiling: 1e9})
	cons := constellation.New(constellation.QAM4)
	rec := c.Recorder("traced", 12)
	sd := sphere.MustNew(sphere.Config{Const: cons, Strategy: sphere.SortedDFS, Recorder: rec})
	r := rng.New(7)
	f, err := mimo.GenerateFrame(r, mimo.Config{Tx: 4, Rx: 4, Mod: constellation.QAM4}, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sd.Decode(f.H, f.Y, f.NoiseVar)
	if err != nil {
		t.Fatal(err)
	}
	snaps := c.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("%d classes", len(snaps))
	}
	if got := int64(snaps[0].EWMANodes); got != res.Counters.NodesExpanded {
		t.Fatalf("recorder fed %d nodes, counters say %d", got, res.Counters.NodesExpanded)
	}
	if snaps[0].Quality["exact"] != 1 {
		t.Fatalf("quality histogram %+v", snaps[0].Quality)
	}
}

// scriptStep is one frame of a synthetic load trace.
type scriptStep struct {
	class string
	snrDB float64
	nodes int64
	depth int
	cap   int
}

// runScript replays a deterministic observation/decision script and returns
// the decision sequence plus the final quality histograms.
func runScript(c *Controller, steps []scriptStep) ([]Decision, []ClassSnapshot) {
	var out []Decision
	for _, s := range steps {
		d := c.Decide(s.class, s.depth, s.cap)
		q := decoder.QualityExact
		if d.Policy.Linear {
			q = decoder.QualityFallback
		}
		c.Observe(s.class, s.snrDB, s.nodes, q)
		out = append(out, d)
	}
	return out, c.Snapshot()
}

// syntheticTrace builds a reproducible mixed-pressure script from a seed,
// standing in for (scenario, seed) in the determinism contract.
func syntheticTrace(seed uint64, n int) []scriptStep {
	r := rng.New(seed)
	classes := []string{"embb", "urllc", "mmtc"}
	steps := make([]scriptStep, n)
	for i := range steps {
		steps[i] = scriptStep{
			class: classes[int(r.Uint64()%uint64(len(classes)))],
			snrDB: 4 + 12*r.Float64(),
			nodes: int64(r.Uint64() % 3000),
			depth: int(r.Uint64() % 64),
			cap:   64,
		}
	}
	return steps
}

func TestDeterministicDecisionSequence(t *testing.T) {
	// Same (trace, seed, level table) ⇒ identical decision sequence and
	// quality histograms, run to run.
	steps := syntheticTrace(42, 500)
	mk := func() *Controller {
		return MustNewController(Config{Levels: testLevels(), NodeCeiling: 1000})
	}
	d1, s1 := runScript(mk(), steps)
	d2, s2 := runScript(mk(), steps)
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("decision sequences differ across identical replays")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("snapshots differ across identical replays")
	}
	// A different seed must actually change something, or the test is
	// vacuous.
	d3, _ := runScript(mk(), syntheticTrace(43, 500))
	if reflect.DeepEqual(d1, d3) {
		t.Fatal("different traces produced identical decision sequences")
	}
}

func TestConcurrentObserveDecide(t *testing.T) {
	// Hammer the controller from many goroutines (run under -race via the
	// Makefile race target). No sequence assertion — just absence of data
	// races and a coherent final snapshot.
	c := MustNewController(Config{Levels: testLevels(), NodeCeiling: 1000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			class := []string{"a", "b"}[g%2]
			for i := 0; i < 200; i++ {
				c.Decide(class, i%64, 64)
				c.Observe(class, 10, int64(i), decoder.QualityExact)
			}
		}(g)
	}
	wg.Wait()
	snaps := c.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("%d classes", len(snaps))
	}
	for _, s := range snaps {
		total := 0
		for _, n := range s.Decisions {
			total += n
		}
		if total != 800 {
			t.Fatalf("class %s: %d decisions recorded, want 800", s.Class, total)
		}
		if s.Quality["exact"] != 800 {
			t.Fatalf("class %s: quality %+v", s.Class, s.Quality)
		}
	}
}

func TestLadderPoliciesBuildOnAccelerator(t *testing.T) {
	// Every rung of the stock ladder must be servable by a square-QAM
	// accelerator — a ladder entry that cannot build would strand the
	// controller at decide time.
	acc := core.MustNew(fpga.Optimized, constellation.QAM4, 6, 6, core.Options{})
	for _, l := range DefaultLevels(true, 4096) {
		if err := acc.CheckPolicy(l.Policy); err != nil {
			t.Errorf("level %q unservable: %v", l.Name, err)
		}
	}
}
