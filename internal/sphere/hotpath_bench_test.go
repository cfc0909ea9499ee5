package sphere

import (
	"testing"

	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/rng"
	"repro/internal/trace"
)

// BenchmarkDecodeSingle is the reference single-frame decode figure: the
// 10×10 QAM-4 steady-state hot path with recording disabled. The trace
// acceptance gate compares this against the BENCH_decode.json baseline — a
// disabled Recorder must stay at 0 allocs/op and within noise of the
// pre-observability decode cost.
func BenchmarkDecodeSingle(b *testing.B) {
	benchDecodeSingle(b, nil)
}

// BenchmarkDecodeSingleTraced is the same decode with a SearchTrace
// installed — the price of recording, visible next to BenchmarkDecodeSingle
// in one `go test -bench 'DecodeSingle'` run.
func BenchmarkDecodeSingleTraced(b *testing.B) {
	benchDecodeSingle(b, trace.NewSearchTrace())
}

func benchDecodeSingle(b *testing.B, rec *trace.SearchTrace) {
	r := rng.New(61)
	c := constellation.New(constellation.QAM4)
	cfg := Config{Const: c, Strategy: SortedDFS, UseGEMM: true}
	if rec != nil {
		cfg.Recorder = rec
	}
	d := MustNew(cfg)
	h, y, nv, _ := makeInstance(r, c, 10, 10, 8)
	pre, err := Preprocess(h)
	if err != nil {
		b.Fatal(err)
	}
	var res decoder.Result
	if err := d.DecodePreInto(pre, y, nv, 0, &res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DecodePreInto(pre, y, nv, 0, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePreInto is the steady-state hot path: pooled search, shared
// QR handle, reused result. nodes/s is the simulation throughput the
// Monte-Carlo harness sees.
func BenchmarkDecodePreInto(b *testing.B) {
	r := rng.New(61)
	c := constellation.New(constellation.QAM4)
	d := MustNew(Config{Const: c, Strategy: SortedDFS, UseGEMM: true})
	h, y, nv, _ := makeInstance(r, c, 10, 10, 8)
	pre, err := Preprocess(h)
	if err != nil {
		b.Fatal(err)
	}
	var res decoder.Result
	if err := d.DecodePreInto(pre, y, nv, 0, &res); err != nil {
		b.Fatal(err)
	}
	nodes := res.Counters.NodesExpanded
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DecodePreInto(pre, y, nv, 0, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
	}
}

// BenchmarkDecodeRealSEPreInto is the real-valued Schnorr–Euchner hot path
// on the reference workload: same pooled machinery, 2M-level real tree, no
// per-node sorting. The rvd-smoke gate compares this against DecodePreInto.
func BenchmarkDecodeRealSEPreInto(b *testing.B) {
	benchDecodeRealSE(b, NormL2)
}

// BenchmarkDecodeRealSELInfPreInto is the ℓ∞-norm variant: max-comparator
// partial distances instead of the sum-of-squares accumulator.
func BenchmarkDecodeRealSELInfPreInto(b *testing.B) {
	benchDecodeRealSE(b, NormLInf)
}

func benchDecodeRealSE(b *testing.B, norm Norm) {
	r := rng.New(61)
	c := constellation.New(constellation.QAM4)
	d := MustNew(Config{Const: c, Strategy: RealSE, Norm: norm})
	h, y, nv, _ := makeInstance(r, c, 10, 10, 8)
	pre, err := Preprocess(h)
	if err != nil {
		b.Fatal(err)
	}
	var res decoder.Result
	if err := d.DecodePreInto(pre, y, nv, 0, &res); err != nil {
		b.Fatal(err)
	}
	nodes := res.Counters.NodesExpanded
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DecodePreInto(pre, y, nv, 0, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
	}
}

// BenchmarkDecodeInline is the per-frame-QR form (the seed's only path):
// factor H, search, allocate the result. The gap to DecodePreInto is the
// preprocessing-cache + zero-alloc win.
func BenchmarkDecodeInline(b *testing.B) {
	r := rng.New(61)
	c := constellation.New(constellation.QAM4)
	d := MustNew(Config{Const: c, Strategy: SortedDFS, UseGEMM: true})
	h, y, nv, _ := makeInstance(r, c, 10, 10, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(h, y, nv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeScalarPreInto is the BLAS-2 evaluation path through the
// same pooled machinery.
func BenchmarkDecodeScalarPreInto(b *testing.B) {
	r := rng.New(61)
	c := constellation.New(constellation.QAM4)
	d := MustNew(Config{Const: c, Strategy: SortedDFS})
	h, y, nv, _ := makeInstance(r, c, 10, 10, 8)
	pre, err := Preprocess(h)
	if err != nil {
		b.Fatal(err)
	}
	var res decoder.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DecodePreInto(pre, y, nv, 0, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreprocessCacheGet prices a warm cache lookup (fingerprint +
// verify) against the QR it saves.
func BenchmarkPreprocessCacheGet(b *testing.B) {
	r := rng.New(62)
	c := constellation.New(constellation.QAM4)
	cache := NewPreprocessCache(8)
	h, _, _, _ := makeInstance(r, c, 10, 10, 8)
	if _, err := cache.Get(h); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Get(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreprocessCacheMiss prices the serving miss path on 10×10
// channels: Get on a cache smaller than the channel set (so every lookup
// misses and refactors into a recycled handle), the per-frame rotation, and
// Release. Steady state allocates nothing.
func BenchmarkPreprocessCacheMiss(b *testing.B) {
	r := rng.New(63)
	c := constellation.New(constellation.QAM16)
	const channels = 16
	hs := make([]*cmatrix.Matrix, channels)
	ys := make([]cmatrix.Vector, channels)
	for i := range hs {
		hs[i], ys[i], _, _ = makeInstance(r, c, 10, 10, 14)
	}
	cache := NewPreprocessCache(channels / 2)
	z := make(cmatrix.Vector, 10)
	miss := func(i int) {
		pre, err := cache.Get(hs[i%channels])
		if err != nil {
			b.Fatal(err)
		}
		pre.rotate(z, ys[i%channels])
		cache.Release(pre)
	}
	for i := 0; i < channels; i++ {
		miss(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss(i)
	}
}
