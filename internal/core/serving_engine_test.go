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

// TestServingEnginesAgree holds sdserver's square-QAM engine (rvd-se)
// against the paper's complex sorted DFS at the accelerator layer, in the
// two serving regimes: cold-cache 10×10 16-QAM frames that each pay for a
// fresh QR, and a 4×4 QPSK static-dense grid decoded from a warm QR cache.
// Both engines are exact, so every frame must carry identical symbols and
// equal metrics.
func TestServingEnginesAgree(t *testing.T) {
	cases := []struct {
		name   string
		mod    constellation.Modulation
		tx, rx int
		frames []core.BatchInput
		warm   bool
	}{
		{"rayleigh-16qam-cold", constellation.QAM16, 10, 10, rayleighInputs(t, 64), false},
		{"static-dense-warm", constellation.QAM4, 4, 4, staticDenseInputs(t), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
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
	const tx, rx, snrDB = 10, 10, 14.0
	cons := constellation.New(constellation.QAM16)
	nv := channel.NoiseVariance(channel.PerTransmitSymbol, snrDB, tx)
	r := rng.New(1)
	out := make([]core.BatchInput, n)
	s := make(cmatrix.Vector, tx)
	for i := range out {
		h := channel.Rayleigh(r, rx, tx)
		for a := range s {
			s[a] = cons.Symbol(r.Intn(cons.Size()))
		}
		out[i] = core.BatchInput{H: h, Y: channel.Transmit(r, h, s, nv), NoiseVar: nv}
	}
	return out
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
