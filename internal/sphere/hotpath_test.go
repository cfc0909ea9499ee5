package sphere

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/rng"
)

// TestDecodePreMatchesDecode: routing through a shared Preprocessed handle
// with the full QR charge must be indistinguishable from the inline path —
// same symbols, same metric, same trace counters.
func TestDecodePreMatchesDecode(t *testing.T) {
	r := rng.New(41)
	c := constellation.New(constellation.QAM16)
	for _, useGEMM := range []bool{false, true} {
		d := MustNew(Config{Const: c, Strategy: SortedDFS, UseGEMM: useGEMM})
		for trial := 0; trial < 20; trial++ {
			h, y, nv, _ := makeInstance(r, c, 5, 4, 10)
			want, err := d.Decode(h, y, nv)
			if err != nil {
				t.Fatal(err)
			}
			pre, err := Preprocess(h)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.DecodePre(pre, y, nv, pre.Flops)
			if err != nil {
				t.Fatal(err)
			}
			if got.Metric != want.Metric {
				t.Fatalf("gemm=%v trial %d: metric %v vs %v", useGEMM, trial, got.Metric, want.Metric)
			}
			for i := range want.SymbolIdx {
				if got.SymbolIdx[i] != want.SymbolIdx[i] {
					t.Fatalf("gemm=%v trial %d: symbols differ at %d", useGEMM, trial, i)
				}
			}
			if got.Counters != want.Counters {
				t.Fatalf("gemm=%v trial %d: counters differ:\n pre: %+v\ninline: %+v",
					useGEMM, trial, got.Counters, want.Counters)
			}
		}
	}
}

// TestDecodePreZeroQRCharge: a reused handle decoded with qrFlops=0 saves
// exactly the factorization cost in the trace and nothing else.
func TestDecodePreZeroQRCharge(t *testing.T) {
	r := rng.New(42)
	c := constellation.New(constellation.QAM4)
	d := MustNew(Config{Const: c, UseGEMM: true})
	h, y, nv, _ := makeInstance(r, c, 6, 6, 8)
	pre, err := Preprocess(h)
	if err != nil {
		t.Fatal(err)
	}
	full, err := d.DecodePre(pre, y, nv, pre.Flops)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := d.DecodePre(pre, y, nv, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff := full.Counters.TotalFlops() - zero.Counters.TotalFlops(); diff != pre.Flops {
		t.Fatalf("QR charge delta %d, want %d", diff, pre.Flops)
	}
	if full.Metric != zero.Metric || full.Counters.NodesExpanded != zero.Counters.NodesExpanded {
		t.Fatal("qrFlops changed the search itself")
	}
}

func TestPreprocessCache(t *testing.T) {
	r := rng.New(43)
	c := constellation.New(constellation.QAM4)
	cache := NewPreprocessCache(2)
	h1, _, _, _ := makeInstance(r, c, 4, 4, 10)
	p1, err := cache.Get(h1)
	if err != nil {
		t.Fatal(err)
	}
	// Same pointer: hit, same handle.
	p1b, err := cache.Get(h1)
	if err != nil {
		t.Fatal(err)
	}
	if p1b != p1 {
		t.Fatal("repeat lookup returned a different handle")
	}
	// Equal contents under a different pointer: still a hit.
	p1c, err := cache.Get(h1.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if p1c != p1 {
		t.Fatal("content-equal matrix missed the cache")
	}
	if hits, misses := cache.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("stats %d/%d, want 2 hits / 1 miss", hits, misses)
	}
	// A perturbed matrix is a different channel.
	h2 := h1.Clone()
	h2.Set(0, 0, h2.At(0, 0)*complex(1+1e-12, 0))
	p2, err := cache.Get(h2)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Fatal("perturbed matrix shared a handle")
	}
	// Capacity 2: a third distinct channel evicts the LRU entry (h1, which
	// is older than h2).
	h3, _, _, _ := makeInstance(r, c, 4, 4, 10)
	if _, err := cache.Get(h3); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, capacity 2", cache.Len())
	}
	_, missesBefore := cache.Stats()
	if _, err := cache.Get(h1); err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses != missesBefore+1 {
		t.Fatal("evicted entry still hit")
	}
}

// TestPreprocessCacheConcurrent hammers one cache from many goroutines;
// run under -race this is the data-race check for the shared LRU.
func TestPreprocessCacheConcurrent(t *testing.T) {
	r := rng.New(44)
	c := constellation.New(constellation.QAM4)
	cache := NewPreprocessCache(4)
	mats := make([]*cmatrix.Matrix, 8)
	for i := range mats {
		h, _, _, _ := makeInstance(r, c, 4, 4, 10)
		mats[i] = h
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := cache.Get(mats[(w+i)%len(mats)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSortChildrenMatchesStableSort: the insertion sort must order children
// exactly as the stable library sort (insertion sort is stable, so ties
// keep symbol order — the enumeration the hardware comparator tree yields).
func TestSortChildrenMatchesStableSort(t *testing.T) {
	r := rng.New(45)
	for trial := 0; trial < 200; trial++ {
		p := 1 + r.Intn(16)
		s := &search{p: p, childPD: make([]float64, p), order: make([]int, p)}
		for i := range s.childPD {
			// Coarse values force ties often.
			s.childPD[i] = float64(r.Intn(5))
			s.order[i] = i
		}
		want := make([]int, p)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return s.childPD[want[a]] < s.childPD[want[b]] })
		s.sortChildren()
		for i := range want {
			if s.order[i] != want[i] {
				t.Fatalf("trial %d: order %v, stable sort wants %v (pd %v)", trial, s.order, want, s.childPD)
			}
		}
	}
}

// TestDecodeZeroAllocSteadyState pins the zero-allocation contract of the
// pooled SortedDFS+GEMM hot path: after warm-up, a decode through a shared
// Preprocessed handle into a reused Result must not allocate — also when a
// heavy frame precedes the light ones, since the LIFO search's MST never
// outgrows its bounded arena.
func TestDecodeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		// The race detector intentionally drops a fraction of sync.Pool
		// puts (to shake out pool races), so allocation counts are not
		// meaningful under -race; the plain-build run enforces the pin.
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := rng.New(46)
	c := constellation.New(constellation.QAM4)
	light := newAllocFrame(t, r, c, 6, 6, 10)
	heavy := heavyAllocFrame(t, c)
	for _, useGEMM := range []bool{false, true} {
		d := MustNew(Config{Const: c, Strategy: SortedDFS, UseGEMM: useGEMM})
		if got := steadyStateAllocs(t, d, light); got != 0 {
			t.Errorf("gemm=%v: %v allocs/op in steady state, want 0", useGEMM, got)
		}
		if got := steadyStateAllocs(t, d, heavy, light, light); got != 0 {
			t.Errorf("gemm=%v: %v allocs per heavy+light pass, want 0", useGEMM, got)
		}
	}
}

// allocFrame is one preprocessed detection problem for the allocation pins.
type allocFrame struct {
	pre *Preprocessed
	y   cmatrix.Vector
	nv  float64
}

func newAllocFrame(t *testing.T, r *rng.Rand, c *constellation.Constellation, n, m int, snrDB float64) allocFrame {
	t.Helper()
	h, y, nv, _ := makeInstance(r, c, n, m, snrDB)
	pre, err := Preprocess(h)
	if err != nil {
		t.Fatal(err)
	}
	return allocFrame{pre: pre, y: y, nv: nv}
}

// heavyAllocFrame is a 20×20 frame of c at 2 dB costing the sorted DFS at
// least 1000 expansions.
func heavyAllocFrame(t *testing.T, c *constellation.Constellation) allocFrame {
	t.Helper()
	h, y, nv := heavyInstance(t, c, 20, 2)
	pre, err := Preprocess(h)
	if err != nil {
		t.Fatal(err)
	}
	return allocFrame{pre: pre, y: y, nv: nv}
}

// steadyStateAllocs warms d's pools and a reused Result on frames, then
// returns the allocations of one pass over frames in order. A GC between
// AllocsPerRun batches can empty the sync.Pool, which would show up as a
// spurious allocation, so the minimum over a few batches is the
// steady-state figure.
func steadyStateAllocs(t *testing.T, d *SD, frames ...allocFrame) float64 {
	t.Helper()
	var res decoder.Result
	pass := func() {
		for _, f := range frames {
			if err := d.DecodePreInto(f.pre, f.y, f.nv, 0, &res); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		pass()
	}
	best := math.Inf(1)
	for attempt := 0; attempt < 3 && best > 0; attempt++ {
		best = min(best, testing.AllocsPerRun(50, pass))
	}
	return best
}

// TestPooledDecodeConcurrent drives one SD from many goroutines over shared
// handles; under -race this checks the sync.Pool'd search state never leaks
// across decodes.
func TestPooledDecodeConcurrent(t *testing.T) {
	r := rng.New(47)
	c := constellation.New(constellation.QAM4)
	d := MustNew(Config{Const: c, Strategy: SortedDFS, UseGEMM: true})
	type inst struct {
		pre  *Preprocessed
		y    cmatrix.Vector
		nv   float64
		want *decoder.Result
	}
	insts := make([]inst, 16)
	for i := range insts {
		h, y, nv, _ := makeInstance(r, c, 5, 5, 8)
		pre, err := Preprocess(h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.DecodePre(pre, y, nv, pre.Flops)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = inst{pre: pre, y: y, nv: nv, want: want}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				in := insts[(w*7+i)%len(insts)]
				got, err := d.DecodePre(in.pre, in.y, in.nv, in.pre.Flops)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Metric != in.want.Metric || got.Counters != in.want.Counters {
					t.Errorf("concurrent decode diverged from serial reference")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
