package sphere

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/rng"
)

// sameHandle reports whether two handles hold bit-identical storage: the
// kernel is deterministic, so a handle equals a fresh factorization of its
// own channel word for word.
func sameHandle(a, b *Preprocessed) bool {
	if a.N != b.N || a.M != b.M || a.Flops != b.Flops || a.checksum != b.checksum {
		return false
	}
	if a.rp.Dim != b.rp.Dim || a.rp.Flops != b.rp.Flops {
		return false
	}
	return slices.Equal(floatBits(a.rp.R), floatBits(b.rp.R)) &&
		slices.Equal(floatBits(complexWords(a.refl)), floatBits(complexWords(b.refl)))
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

func complexWords(zs []complex128) []float64 {
	out := make([]float64, 0, 2*len(zs))
	for _, z := range zs {
		out = append(out, real(z), imag(z))
	}
	return out
}

// TestRecycledHandleCarriesNoStaleState evicts a handle whose lazily derived
// complex R and RowMass are populated, lets the next miss refactor into its
// storage — once at the same shape and once at a smaller one — and checks
// that the recycled handle matches a fresh factorization in every field a
// decoder or the verifier reads.
func TestRecycledHandleCarriesNoStaleState(t *testing.T) {
	r := rng.New(41)
	h1, h2 := channel.Rayleigh(r, 6, 6), channel.Rayleigh(r, 6, 6)
	cache := NewPreprocessCache(1)

	for _, h3 := range []*cmatrix.Matrix{channel.Rayleigh(r, 6, 6), channel.Rayleigh(r, 5, 4)} {
		p1, err := cache.Get(h1)
		if err != nil {
			t.Fatal(err)
		}
		p1.complexR()
		p1.RowMass()
		cache.Release(p1)
		p2, err := cache.Get(h2) // evicts h1: p1's storage goes on the free list
		if err != nil {
			t.Fatal(err)
		}
		cache.Release(p2)
		p3, err := cache.Get(h3)
		if err != nil {
			t.Fatal(err)
		}
		if p3 != p1 {
			t.Fatal("the miss did not recycle the evicted handle")
		}
		fresh, err := Preprocess(h3)
		if err != nil {
			t.Fatal(err)
		}
		if p3.H != h3 || !sameHandle(p3, fresh) {
			t.Fatalf("%dx%d: recycled handle differs from a fresh factorization", h3.Rows, h3.Cols)
		}
		if p3.cplx.Load() != nil || p3.rowMass.Load() != 0 {
			t.Fatal("recycled handle kept its previous channel's derived state")
		}
		if !p3.VerifyIntegrity() {
			t.Fatal("recycled handle fails verification")
		}
		if !slices.Equal(p3.complexR().Data, fresh.complexR().Data) || p3.RowMass() != fresh.RowMass() {
			t.Fatal("recycled handle derives a different complex R or RowMass")
		}
		y := randomVector(r, h3.Rows)
		if !slices.Equal(p3.rotate(make(cmatrix.Vector, p3.N), y), fresh.rotate(make(cmatrix.Vector, fresh.N), y)) {
			t.Fatal("recycled handle rotates differently")
		}
		cache.Release(p3)
	}
}

// TestHeldHandleNeverRecycled has two callers hold a handle while misses
// evict it, releases one of them, and drives more misses: the handle must
// keep its channel's factorization until its last holder lets go, and only
// then be reused.
func TestHeldHandleNeverRecycled(t *testing.T) {
	r := rng.New(45)
	h := channel.Rayleigh(r, 6, 6)
	cache := NewPreprocessCache(2)
	p, err := cache.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := cache.Get(h); err != nil || again != p {
		t.Fatalf("second Get: %v, same handle %v", err, again == p)
	}
	want, err := Preprocess(h)
	if err != nil {
		t.Fatal(err)
	}
	churn := func() {
		for i := 0; i < 3; i++ {
			q, err := cache.Get(channel.Rayleigh(r, 6, 6))
			if err != nil {
				t.Fatal(err)
			}
			if q == p {
				t.Fatal("a handle still held was recycled")
			}
			cache.Release(q)
		}
	}
	churn()          // evicts h while both callers hold it
	cache.Release(p) // one holder left
	churn()
	if p.H != h || !sameHandle(p, want) {
		t.Fatal("a held handle was refactored under its holder")
	}
	cache.Release(p) // last holder: now it may be reused
	q, err := cache.Get(channel.Rayleigh(r, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatal("the released handle was not recycled")
	}
}

// TestCacheEvictsCorruptedReflector flips a word of the reflector block,
// which produces every hit's ȳ: verify-on-hit must evict the entry, the
// refactored handle must rotate like a fresh one, and the poisoned storage
// must never be recycled.
func TestCacheEvictsCorruptedReflector(t *testing.T) {
	r := rng.New(43)
	h := channel.Rayleigh(r, 6, 6)
	cache := NewPreprocessCache(2)
	pre, err := cache.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	// Word len(R) is the real part of column 0's first reflector entry.
	if !cache.CorruptEntry(len(pre.rp.R)) {
		t.Fatal("CorruptEntry found nothing to corrupt")
	}
	again, err := cache.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	if again == pre {
		t.Fatal("entry with a corrupted reflector served again")
	}
	if got := cache.SDCEvictions(); got != 1 {
		t.Fatalf("SDCEvictions = %d, want 1", got)
	}
	fresh, err := Preprocess(h)
	if err != nil {
		t.Fatal(err)
	}
	if !sameHandle(again, fresh) {
		t.Fatal("refactored handle differs from a fresh factorization")
	}
	cache.Release(pre, again)
	for i := 0; i < 4; i++ {
		p, err := cache.Get(channel.Rayleigh(r, 6, 6))
		if err != nil {
			t.Fatal(err)
		}
		if p == pre {
			t.Fatal("poisoned handle was recycled")
		}
		cache.Release(p)
	}
}

// TestPreprocessCacheRecyclingConcurrent hammers a cache smaller than its
// channel set from many goroutines. Every handle Get returns must equal a
// fresh factorization of its own channel, and must still equal it after the
// holder has decoded with it — a handle that is still referenced is never
// refactored under its holder. Run under -race at several GOMAXPROCS.
func TestPreprocessCacheRecyclingConcurrent(t *testing.T) {
	r := rng.New(47)
	c := constellation.New(constellation.QAM4)
	const channels, workers = 12, 6
	iters := 150
	if raceEnabled {
		iters = 40
	}
	hs := make([]*cmatrix.Matrix, channels)
	ys := make([]cmatrix.Vector, channels)
	want := make([]*Preprocessed, channels)
	for i := range hs {
		hs[i], ys[i], _, _ = makeInstance(r, c, 6, 6, 10)
		var err error
		if want[i], err = Preprocess(hs[i]); err != nil {
			t.Fatal(err)
		}
	}
	d := MustNew(Config{Const: c, Strategy: RealSE})
	cache := NewPreprocessCache(channels / 3)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var res decoder.Result
			for i := 0; i < iters; i++ {
				k := (w*7 + i*5) % channels
				pre, err := cache.Get(hs[k])
				if err != nil {
					errs <- err.Error()
					return
				}
				if pre.H != hs[k] && !sameMatrix(pre.H, hs[k]) || !sameHandle(pre, want[k]) {
					errs <- "Get returned a handle that is not its channel's factorization"
					return
				}
				if err := d.DecodePreInto(pre, ys[k], 0.1, 0, &res); err != nil {
					errs <- err.Error()
					return
				}
				if !sameHandle(pre, want[k]) {
					errs <- "a referenced handle was refactored under its holder"
					return
				}
				cache.Release(pre)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if hits, misses := cache.Stats(); misses == 0 || hits+misses != int64(workers*iters) {
		t.Fatalf("stats (hits=%d, misses=%d) for %d lookups", hits, misses, workers*iters)
	}
}

// TestPreprocessCacheMissZeroAllocs pins the steady-state serving miss —
// Get on a cache smaller than the channel set, an rvd-se decode, Release —
// at zero heap allocations: the miss refactors into a recycled handle.
func TestPreprocessCacheMissZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := rng.New(53)
	c := constellation.New(constellation.QAM16)
	const channels = 8
	hs := make([]*cmatrix.Matrix, channels)
	ys := make([]cmatrix.Vector, channels)
	var nv float64
	for i := range hs {
		hs[i], ys[i], nv, _ = makeInstance(r, c, 10, 10, 14)
	}
	d := MustNew(Config{Const: c, Strategy: RealSE})
	cache := NewPreprocessCache(channels / 2)
	var res decoder.Result
	i := 0
	miss := func() {
		k := i % channels
		i++
		pre, err := cache.Get(hs[k])
		if err != nil {
			t.Fatal(err)
		}
		if err := d.DecodePreInto(pre, ys[k], nv, pre.Flops, &res); err != nil {
			t.Fatal(err)
		}
		cache.Release(pre)
	}
	for range 2 * channels {
		miss()
	}
	if allocs := testing.AllocsPerRun(100, miss); allocs != 0 {
		t.Fatalf("steady-state miss: %.1f allocs, want 0", allocs)
	}
	if hits, _ := cache.Stats(); hits != 0 {
		t.Fatalf("%d hits: the channel set does not force misses", hits)
	}
}
