package mimosd

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// TestValidateInputConsistency: Detect and DetectSoft must reject a bad
// input with exactly the error ValidateInput predicts — one validation path,
// one message, ErrInvalidInput wrapping everywhere.
func TestValidateInputConsistency(t *testing.T) {
	cfg := Config{TxAntennas: 2, RxAntennas: 2, Modulation: "4-QAM"}
	good, err := RandomLink(cfg, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	bads := []struct {
		name string
		cfg  Config
		h    [][]complex128
		y    []complex128
		nv   float64
	}{
		{"bad modulation", Config{TxAntennas: 2, RxAntennas: 2, Modulation: "nope"}, good.H, good.Y, good.NoiseVar},
		{"bad shape", Config{TxAntennas: 0, RxAntennas: 2, Modulation: "4-QAM"}, good.H, good.Y, good.NoiseVar},
		{"row count", cfg, good.H[:1], good.Y, good.NoiseVar},
		{"y length", cfg, good.H, good.Y[:1], good.NoiseVar},
		{"nan channel", cfg, [][]complex128{{complex(math.NaN(), 0), 1}, {1, 1}}, good.Y, good.NoiseVar},
		{"zero noise", cfg, good.H, good.Y, 0},
	}
	for _, tc := range bads {
		vErr := ValidateInput(tc.cfg, tc.h, tc.y, tc.nv)
		if vErr == nil {
			t.Errorf("%s: ValidateInput accepted it", tc.name)
			continue
		}
		if !errors.Is(vErr, ErrInvalidInput) {
			t.Errorf("%s: ValidateInput error does not wrap ErrInvalidInput: %v", tc.name, vErr)
		}
		if _, dErr := Detect(tc.cfg, AlgSphereDecoder, tc.h, tc.y, tc.nv); dErr == nil || dErr.Error() != vErr.Error() {
			t.Errorf("%s: Detect error %q, ValidateInput predicts %q", tc.name, dErr, vErr)
		}
		if _, sErr := DetectSoft(tc.cfg, tc.h, tc.y, tc.nv, 4); sErr == nil || sErr.Error() != vErr.Error() {
			t.Errorf("%s: DetectSoft error %q, ValidateInput predicts %q", tc.name, sErr, vErr)
		}
	}
	if err := ValidateInput(cfg, good.H, good.Y, good.NoiseVar); err != nil {
		t.Fatalf("ValidateInput rejected a decodable link: %v", err)
	}
	if _, err := Detect(cfg, AlgSphereDecoder, good.H, good.Y, good.NoiseVar); err != nil {
		t.Fatalf("Detect rejected a validated link: %v", err)
	}
}

// TestDecodeBatchOptions: the variadic batch surface's modes must agree
// where they overlap — a zero budget is the plain decode, and both linear
// routes name the fallback the same way.
func TestDecodeBatchOptions(t *testing.T) {
	cfg := Config{TxAntennas: 4, RxAntennas: 4, Modulation: "4-QAM"}
	acc, err := NewAccelerator(cfg, VariantOptimized)
	if err != nil {
		t.Fatal(err)
	}
	links := make([]*Link, 4)
	for i := range links {
		l, err := RandomLink(cfg, 10, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		links[i] = l
	}
	plain, err := acc.DecodeBatch(links)
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := acc.DecodeBatch(links, WithBudget(BatchBudget{}))
	if err != nil {
		t.Fatal(err)
	}
	if plain.NodesExplored != budgeted.NodesExplored {
		t.Fatal("a zero batch budget changed the decode")
	}
	fb, err := acc.DecodeBatch(links, WithFallback())
	if err != nil {
		t.Fatal(err)
	}
	for i, det := range fb.Detections {
		if det.Quality != "fallback" {
			t.Fatalf("link %d: fallback batch produced quality %q", i, det.Quality)
		}
	}
	linear, err := acc.DecodeBatch(links, WithPolicy(DecodePolicy{Linear: true}))
	if err != nil {
		t.Fatal(err)
	}
	if fb.Detections[0].Algorithm != linear.Detections[0].Algorithm {
		t.Fatal("fallback naming diverged between the linear routes")
	}
	tight, err := acc.DecodeBatch(links, WithBudget(BatchBudget{NodeBudget: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !tight.Degraded {
		t.Fatal("1-node batch budget did not degrade")
	}
}

// TestValidateInputMatchesDetectAcrossScales: ValidateInput accepts a link
// exactly when Detect decodes it to a finite metric, from unit scale up to
// past the float64 range. The links near the top overflow the search
// metric with finite entries; the first is 4×4 QPSK with H = 6e153·I and
// y = 1.3e154·e₁, which ValidateInput used to accept and the sphere
// decoder then failed ("no leaf found … despite infinite radius").
func TestValidateInputMatchesDetectAcrossScales(t *testing.T) {
	cfg := Config{TxAntennas: 4, RxAntennas: 4, Modulation: "4-QAM"}
	diag := [][]complex128{{6e153, 0, 0, 0}, {0, 6e153, 0, 0}, {0, 0, 6e153, 0}, {0, 0, 0, 6e153}}
	e1 := []complex128{1.3e154, 0, 0, 0}
	random, err := RandomLink(cfg, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	scaled := func(h [][]complex128, y []complex128, s float64) ([][]complex128, []complex128) {
		hs := make([][]complex128, len(h))
		for i, row := range h {
			hs[i] = make([]complex128, len(row))
			for j, v := range row {
				hs[i][j] = v * complex(s, 0)
			}
		}
		ys := make([]complex128, len(y))
		for i, v := range y {
			ys[i] = v * complex(s, 0)
		}
		return hs, ys
	}
	type link struct {
		name string
		h    [][]complex128
		y    []complex128
	}
	links := []link{{"6e153·I", diag, e1}}
	// Powers of two scale exactly; the random link's metric bound crosses
	// the float64 range near 2^510.
	for e := 0; e <= 1030; e += 2 {
		h, y := scaled(random.H, random.Y, math.Ldexp(1, e))
		links = append(links, link{fmt.Sprintf("random·2^%d", e), h, y})
	}
	for _, e := range []float64{0.5, 0.9, 0.99, 1, 1.01, 1.1, 2} {
		h, y := scaled(diag, e1, e)
		links = append(links, link{fmt.Sprintf("%g·(6e153·I)", e), h, y})
	}
	var accepted, rejected int
	for _, l := range links {
		vErr := ValidateInput(cfg, l.h, l.y, 1)
		if vErr == nil {
			accepted++
		} else {
			rejected++
		}
		for _, alg := range []Algorithm{AlgSphereDecoder, AlgSphereSQRD, AlgML, AlgZF} {
			det, dErr := Detect(cfg, alg, l.h, l.y, 1)
			switch {
			case vErr == nil && dErr != nil:
				t.Errorf("%s, %s: ValidateInput accepted it, Detect failed: %v", l.name, alg, dErr)
			case vErr == nil && (math.IsInf(det.Metric, 0) || math.IsNaN(det.Metric)):
				t.Errorf("%s, %s: ValidateInput accepted it, Detect returned metric %v", l.name, alg, det.Metric)
			case vErr != nil && (dErr == nil || dErr.Error() != vErr.Error()):
				t.Errorf("%s, %s: Detect error %v, ValidateInput predicts %v", l.name, alg, dErr, vErr)
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("the sweep must cross the bound: %d accepted, %d rejected", accepted, rejected)
	}
}
