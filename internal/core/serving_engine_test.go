package core_test

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/ofdm"
	"repro/internal/ofdm/scenario"
	"repro/internal/rng"
	"repro/internal/sphere"
)

// TestServingEnginesAgree holds sdserver's square-QAM engine (rvd-se, from
// its default noise-scaled start) against the paper's complex sorted DFS
// (from +Inf) at the accelerator layer, in the serving regimes: cold-cache
// 10×10 16-QAM frames that each pay for a fresh QR, the heavy tail of that
// workload, and a 4×4 QPSK static-dense grid decoded from a warm QR cache.
// Both engines are exact, so every frame must carry identical symbols and
// equal metrics.
func TestServingEnginesAgree(t *testing.T) {
	cases := []struct {
		name   string
		mod    constellation.Modulation
		tx, rx int
		frames []core.BatchInput
		warm   bool
		// heavy, when set, requires every frame to cost an unbounded
		// (+Inf start) rvd-se search more than 10,000 expansions.
		heavy bool
	}{
		{"rayleigh-16qam-cold", constellation.QAM16, 10, 10, rayleighInputs(t, 64), false, false},
		{"rayleigh-16qam-heavy-tail", constellation.QAM16, 10, 10, heavyTailInputs(t), false, true},
		{"static-dense-warm", constellation.QAM4, 4, 4, staticDenseInputs(t), true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy {
				unbounded := sphere.MustNew(sphere.Config{
					Const: constellation.New(tc.mod), Strategy: sphere.RealSE, InitialRadiusSq: math.Inf(1),
				})
				for i, f := range tc.frames {
					res, err := unbounded.Decode(f.H, f.Y, f.NoiseVar)
					if err != nil {
						t.Fatal(err)
					}
					if res.Counters.NodesExpanded <= 10_000 {
						t.Fatalf("frame %d: unbounded rvd-se expanded only %d nodes; not a heavy-tail frame", i, res.Counters.NodesExpanded)
					}
				}
			}
			decode := func(strat sphere.Strategy) *core.BatchReport {
				acc, err := core.New(fpga.Optimized, tc.mod, tc.tx, tc.rx, core.Options{ScalarEval: true, Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				if tc.warm {
					if _, err := acc.DecodeBatch(tc.frames); err != nil {
						t.Fatal(err)
					}
				}
				hits0, misses0 := acc.PreprocessCacheStats()
				rep, err := acc.DecodeBatch(tc.frames)
				if err != nil {
					t.Fatal(err)
				}
				hits, misses := acc.PreprocessCacheStats()
				hits, misses = hits-hits0, misses-misses0
				if tc.warm && misses != 0 || !tc.warm && hits != 0 {
					t.Fatalf("%v: %d QR cache hits and %d misses, want a warm=%v cache", strat, hits, misses, tc.warm)
				}
				return rep
			}
			rvd, dfs := decode(sphere.RealSE), decode(sphere.SortedDFS)
			for i := range tc.frames {
				a, b := rvd.Results[i], dfs.Results[i]
				if a.Quality != decoder.QualityExact || b.Quality != decoder.QualityExact {
					t.Fatalf("frame %d: quality rvd-se %v, sorted-dfs %v", i, a.Quality, b.Quality)
				}
				for k := range b.SymbolIdx {
					if a.SymbolIdx[k] != b.SymbolIdx[k] {
						t.Fatalf("frame %d: rvd-se symbols %v, sorted-dfs %v", i, a.SymbolIdx, b.SymbolIdx)
					}
				}
				if math.Abs(a.Metric-b.Metric) > 1e-9*math.Max(math.Abs(b.Metric), 1e-300) {
					t.Fatalf("frame %d: rvd-se metric %v, sorted-dfs %v", i, a.Metric, b.Metric)
				}
			}
		})
	}
}

// rayleighInputs draws n frames of 10×10 16-QAM, each under its own i.i.d.
// Rayleigh channel at 14 dB Es/N0.
func rayleighInputs(t *testing.T, n int) []core.BatchInput {
	t.Helper()
	r := rng.New(1)
	out := make([]core.BatchInput, n)
	for i := range out {
		out[i] = rayleighFrame(r)
	}
	return out
}

// heavyTailInputs returns 10×10 16-QAM 14 dB frames from the heavy tail of
// that workload: each seed's single frame costs an unbounded rvd-se search
// 13,904–39,543 expansions, against a few hundred from the noise-scaled
// start. They are the heavy seeds in 1–708 except 380, whose +Inf
// sorted-dfs reference alone expands ~922k nodes; the test re-checks the
// >10,000 premise.
func heavyTailInputs(t *testing.T) []core.BatchInput {
	t.Helper()
	seeds := []uint64{121, 221, 273, 372, 400, 527, 708}
	out := make([]core.BatchInput, len(seeds))
	for i, seed := range seeds {
		out[i] = rayleighFrame(rng.New(seed))
	}
	return out
}

// rayleighFrame draws one 10×10 16-QAM frame over an i.i.d. Rayleigh
// channel at 14 dB Es/N0.
func rayleighFrame(r *rng.Rand) core.BatchInput {
	const tx, rx, snrDB = 10, 10, 14.0
	cons := constellation.New(constellation.QAM16)
	nv := channel.NoiseVariance(channel.PerTransmitSymbol, snrDB, tx)
	h := channel.Rayleigh(r, rx, tx)
	s := make(cmatrix.Vector, tx)
	for a := range s {
		s[a] = cons.Symbol(r.Intn(cons.Size()))
	}
	return core.BatchInput{H: h, Y: channel.Transmit(r, h, s, nv), NoiseVar: nv}
}

// staticDenseInputs returns one coherence block of the static-dense OFDM
// scenario: 256 frames of 4×4 QPSK over 32 repeating channels.
func staticDenseInputs(t *testing.T) []core.BatchInput {
	t.Helper()
	sc, err := scenario.Lookup("static-dense")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ofdm.NewGenerator(sc.Grid, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	block, err := g.Block()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]core.BatchInput, len(block))
	for i, f := range block {
		out[i] = core.BatchInput{H: f.H, Y: f.Y, NoiseVar: f.NoiseVar}
	}
	return out
}

// TestServedEngineTinyNoiseVar: a noiseless frame reported with a tiny
// positive noise variance (the accelerator rejects zero) starts the served
// rvd-se search far inside the floating-point residual of the sent point.
// The batch it shares with ordinary frames must still decode, and that frame
// must decode to the sent symbols, exactly as from an unbounded start.
func TestServedEngineTinyNoiseVar(t *testing.T) {
	const tx, rx = 10, 10
	cons := constellation.New(constellation.QAM16)
	r := rng.New(3)
	frames := []core.BatchInput{rayleighFrame(r), {}, rayleighFrame(r)}
	h := channel.Rayleigh(r, rx, tx)
	sent := make([]int, tx)
	s := make(cmatrix.Vector, tx)
	for a := range s {
		sent[a] = r.Intn(cons.Size())
		s[a] = cons.Symbol(sent[a])
	}
	frames[1] = core.BatchInput{H: h, Y: channel.Transmit(r, h, s, 0), NoiseVar: 1e-300}
	acc, err := core.New(fpga.Optimized, constellation.QAM16, tx, rx, core.Options{ScalarEval: true, Strategy: sphere.RealSE})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acc.DecodeBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range rep.Results {
		if res.Quality != decoder.QualityExact {
			t.Fatalf("frame %d: quality %v", i, res.Quality)
		}
	}
	for a, want := range sent {
		if got := rep.Results[1].SymbolIdx[a]; got != want {
			t.Fatalf("noiseless frame: symbols %v, sent %v", rep.Results[1].SymbolIdx, sent)
		}
	}
}
