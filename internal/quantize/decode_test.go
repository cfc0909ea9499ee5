// External test package: these tests drive a sphere decoder over quantized
// inputs through quantize's exported API only, as the precision ablation does.
package quantize_test

import (
	"testing"

	"repro/internal/constellation"
	"repro/internal/mimo"
	"repro/internal/quantize"
	"repro/internal/rng"
	"repro/internal/sphere"
)

func TestQuantizedProblemDecodes(t *testing.T) {
	// End-to-end: FP16-quantized inputs through the exact decoder must
	// still recover symbols at moderate SNR (the future-work claim that
	// half precision is viable).
	cfg := mimo.Config{Tx: 6, Rx: 6, Mod: constellation.QAM4}
	cons := constellation.New(cfg.Mod)
	sd := sphere.MustNew(sphere.Config{Const: cons, Strategy: sphere.SortedDFS})
	r := rng.New(5)
	errsFull, errsQuant := 0, 0
	const frames = 60
	for i := 0; i < frames; i++ {
		f, err := mimo.GenerateFrame(r, cfg, 14)
		if err != nil {
			t.Fatal(err)
		}
		full, err := sd.Decode(f.H, f.Y, f.NoiseVar)
		if err != nil {
			t.Fatal(err)
		}
		q := quantize.QuantizeProblem(f.H, f.Y, f.NoiseVar)
		quant, err := sd.Decode(q.H, q.Y, q.NoiseVar)
		if err != nil {
			t.Fatal(err)
		}
		errsFull += mimo.CountBitErrors(cons, f.SymbolIdx, full.SymbolIdx)
		errsQuant += mimo.CountBitErrors(cons, f.SymbolIdx, quant.SymbolIdx)
	}
	if errsQuant > errsFull+4 {
		t.Fatalf("quantized path much worse: %d vs %d bit errors", errsQuant, errsFull)
	}
}
