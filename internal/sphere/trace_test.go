package sphere

import (
	"math"
	"slices"
	"testing"

	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestRecorderCountsMatchCounters is the counter-consistency property the
// acceptance criteria name: across every traversal strategy and both
// evaluation paths, the recorder's per-level visit and prune tallies must sum
// exactly to the decoder's own Counters — the trace is the same search, just
// resolved by depth.
func TestRecorderCountsMatchCounters(t *testing.T) {
	r := rng.New(71)
	c := constellation.New(constellation.QAM4)
	// The real-valued strategy searches the 2M-level real tree with the PAM
	// axis as its alphabet, so its trace shape differs from the complex
	// strategies over the same 6×6 channel.
	cases := []struct {
		name     string
		cfg      Config
		m, alpha int
	}{
		{"sorted-dfs", Config{Strategy: SortedDFS}, 6, 4},
		{"sorted-dfs-gemm", Config{Strategy: SortedDFS, UseGEMM: true}, 6, 4},
		{"plain-dfs", Config{Strategy: PlainDFS}, 6, 4},
		{"best-fs", Config{Strategy: BestFS}, 6, 4},
		{"bfs", Config{Strategy: BFS, AutoRadius: true}, 6, 4},
		{"bfs-gemm", Config{Strategy: BFS, AutoRadius: true, UseGEMM: true}, 6, 4},
		{"bfs-kbest", Config{Strategy: BFS, AutoRadius: true, KBest: 6}, 6, 4},
		{"fsd", Config{Strategy: FSD, AutoRadius: true}, 6, 4},
		{"rvd-se", Config{Strategy: RealSE}, 12, 2},
		{"rvd-se-linf", Config{Strategy: RealSE, Norm: NormLInf}, 12, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.NewSearchTrace()
			cfg := tc.cfg
			cfg.Const = c
			cfg.Recorder = rec
			d := MustNew(cfg)
			for trial := 0; trial < 10; trial++ {
				h, y, nv, _ := makeInstance(r, c, 6, 6, 8)
				res, err := d.Decode(h, y, nv)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := rec.NodesVisited(), res.Counters.NodesExpanded; got != want {
					t.Fatalf("trial %d: Σ level visits %d, counters report %d expansions", trial, got, want)
				}
				if got, want := rec.ChildrenPruned(), res.Counters.ChildrenPruned; got != want {
					t.Fatalf("trial %d: Σ level prunes %d, counters report %d", trial, got, want)
				}
				if rec.M != tc.m || rec.Alphabet != tc.alpha {
					t.Fatalf("trial %d: trace shape m=%d p=%d, want %d/%d",
						trial, rec.M, rec.Alphabet, tc.m, tc.alpha)
				}
				if len(rec.Levels) != rec.M+1 {
					t.Fatalf("trial %d: %d levels, want %d", trial, len(rec.Levels), rec.M+1)
				}
				if rec.Levels[rec.M].Visits != 0 {
					t.Fatalf("trial %d: leaves were 'expanded' (%d visits at depth M)", trial, rec.Levels[rec.M].Visits)
				}
			}
		})
	}
}

// TestRecorderRetryResets: a search that restarts with a doubled radius must
// keep the recorder in step with decoder.Counters: both tally every attempt,
// and the trace keeps the start it was announced at.
func TestRecorderRetryResets(t *testing.T) {
	r := rng.New(72)
	c := constellation.New(constellation.QAM16)
	rec := trace.NewSearchTrace()
	d := MustNew(Config{
		Const:           c,
		Strategy:        SortedDFS,
		InitialRadiusSq: 1e-9, // guaranteed empty sphere: forces retries
		Recorder:        rec,
	})
	h, y, nv, _ := makeInstance(r, c, 4, 4, 12)
	res, info, err := d.DecodeTraced(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if info.Retries == 0 {
		t.Fatal("radius 1e-9 produced no retries; the test premise failed")
	}
	if rec.Retries != info.Retries {
		t.Fatalf("trace reports %d retries, search reports %d", rec.Retries, info.Retries)
	}
	if got, want := rec.NodesVisited(), res.Counters.NodesExpanded; got != want {
		t.Fatalf("after retries: Σ visits %d, counters %d", got, want)
	}
	if rec.InitialRadiusSq != 1e-9 {
		t.Fatalf("trace start r² = %v, want the first attempt's 1e-9", rec.InitialRadiusSq)
	}
	if rec.FinalRadiusSq != info.FinalRadiusSq {
		t.Fatalf("final radius² %v vs %v", rec.FinalRadiusSq, info.FinalRadiusSq)
	}
}

// TestRecorderDegradation: a budget-truncated search must surface the
// degradation reason through the recorder exactly as through Result.
func TestRecorderDegradation(t *testing.T) {
	r := rng.New(73)
	c := constellation.New(constellation.QAM16)
	rec := trace.NewSearchTrace()
	d := MustNew(Config{Const: c, Strategy: SortedDFS, MaxNodes: 3, Recorder: rec})
	h, y, nv, _ := makeInstance(r, c, 6, 6, 0)
	res, err := d.Decode(h, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality == decoder.QualityExact {
		t.Fatal("3-node budget produced an exact decode; premise failed")
	}
	if rec.DegradedBy != res.DegradedBy {
		t.Fatalf("trace degradation %q, result %q", rec.DegradedBy, res.DegradedBy)
	}
	if got, want := rec.NodesVisited(), res.Counters.NodesExpanded; got != want {
		t.Fatalf("truncated search: Σ visits %d, counters %d", got, want)
	}
}

// TestRecorderRadiusTrajectory: the recorded trajectory must be monotone
// decreasing and end at the final radius, starting inside the initial one.
func TestRecorderRadiusTrajectory(t *testing.T) {
	r := rng.New(74)
	c := constellation.New(constellation.QAM4)
	rec := trace.NewSearchTrace()
	d := MustNew(Config{Const: c, Strategy: SortedDFS, Recorder: rec})
	h, y, nv, _ := makeInstance(r, c, 8, 8, 6)
	if _, err := d.Decode(h, y, nv); err != nil {
		t.Fatal(err)
	}
	if len(rec.Radius) == 0 {
		t.Fatal("an unbounded-radius DFS decode recorded no radius updates")
	}
	prev := math.Inf(1)
	for i, p := range rec.Radius {
		if p.RadiusSq >= prev {
			t.Fatalf("radius point %d (%v) did not shrink from %v", i, p.RadiusSq, prev)
		}
		if p.T < 0 {
			t.Fatalf("radius point %d has negative timestamp", i)
		}
		prev = p.RadiusSq
	}
	if last := rec.Radius[len(rec.Radius)-1].RadiusSq; last != rec.FinalRadiusSq {
		t.Fatalf("trajectory ends at %v, FinalRadiusSq is %v", last, rec.FinalRadiusSq)
	}
}

// TestRecorderSoftPath: the list decoder shares the hook sites, so its trace
// must satisfy the same counter identity.
func TestRecorderSoftPath(t *testing.T) {
	r := rng.New(75)
	c := constellation.New(constellation.QAM4)
	rec := trace.NewSearchTrace()
	sd, err := NewSoft(Config{Const: c, Strategy: SortedDFS, Recorder: rec}, 8)
	if err != nil {
		t.Fatal(err)
	}
	h, y, nv, _ := makeInstance(r, c, 5, 5, 10)
	pre, err := Preprocess(h)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sd.DecodeSoftPre(pre, y, nv)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.NodesVisited(), res.Counters.NodesExpanded; got != want {
		t.Fatalf("soft path: Σ visits %d, counters %d", got, want)
	}
	if got, want := rec.ChildrenPruned(), res.Counters.ChildrenPruned; got != want {
		t.Fatalf("soft path: Σ prunes %d, counters %d", got, want)
	}
}

// TestRecorderDisabledIsFree is the regression pin for the satellite
// requirement: a nil Recorder must add zero allocations to the steady-state
// hot path (TestDecodeZeroAllocSteadyState covers the broader pin; this one
// makes the with/without comparison explicit in a single test).
func TestRecorderDisabledIsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := rng.New(76)
	c := constellation.New(constellation.QAM4)
	d := MustNew(Config{Const: c, Strategy: SortedDFS, UseGEMM: true})
	h, y, nv, _ := makeInstance(r, c, 8, 8, 10)
	pre, err := Preprocess(h)
	if err != nil {
		t.Fatal(err)
	}
	var res decoder.Result
	for i := 0; i < 4; i++ {
		if err := d.DecodePreInto(pre, y, nv, 0, &res); err != nil {
			t.Fatal(err)
		}
	}
	best := math.Inf(1)
	for attempt := 0; attempt < 3 && best > 0; attempt++ {
		got := testing.AllocsPerRun(50, func() {
			if err := d.DecodePreInto(pre, y, nv, 0, &res); err != nil {
				t.Fatal(err)
			}
		})
		if got < best {
			best = got
		}
	}
	if best != 0 {
		t.Errorf("nil Recorder: %v allocs/op in steady state, want 0", best)
	}
}

// TestDecodePreLimited: per-call limits act exactly like the same limits
// configured on a dedicated decoder, never loosen the decoder's own budget,
// and leave the shared decoder untouched.
func TestDecodePreLimited(t *testing.T) {
	r := rng.New(76)
	c := constellation.New(constellation.QAM16)
	for _, st := range []Strategy{SortedDFS, RealSE} {
		sd := MustNew(Config{Const: c, Strategy: st})
		h, y, nv, _ := makeInstance(r, c, 6, 6, 6)
		pre, err := Preprocess(h)
		if err != nil {
			t.Fatal(err)
		}
		same := func(what string, got, want *decoder.Result) {
			t.Helper()
			if got.Metric != want.Metric || got.Counters != want.Counters || got.Quality != want.Quality ||
				got.DegradedBy != want.DegradedBy || !slices.Equal(got.SymbolIdx, want.SymbolIdx) {
				t.Fatalf("%v %s:\n got %+v\nwant %+v", st, what, got, want)
			}
		}

		capped, err := sd.DecodePreLimited(pre, y, nv, 0, Limits{MaxNodes: 5})
		if err != nil {
			t.Fatal(err)
		}
		want, err := MustNew(Config{Const: c, Strategy: st, MaxNodes: 5}).DecodePre(pre, y, nv, 0)
		if err != nil {
			t.Fatal(err)
		}
		same("capped", capped, want)
		if capped.DegradedBy != decoder.DegradedByBudget || capped.Counters.NodesExpanded > 5 {
			t.Fatalf("%v: 5-node cap not honoured: %q after %d nodes", st, capped.DegradedBy, capped.Counters.NodesExpanded)
		}
		if sd.Config().MaxNodes == 5 {
			t.Fatalf("%v: a per-call limit leaked into the decoder's config", st)
		}
		loose, err := MustNew(Config{Const: c, Strategy: st, MaxNodes: 5}).DecodePreLimited(pre, y, nv, 0, Limits{MaxNodes: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		same("loose limit", loose, want)

		rec := trace.NewSearchTrace()
		traced, err := sd.DecodePreLimited(pre, y, nv, 0, Limits{Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		full, err := sd.DecodePre(pre, y, nv, 0)
		if err != nil {
			t.Fatal(err)
		}
		same("traced", traced, full)
		if got, want := rec.NodesVisited(), traced.Counters.NodesExpanded; got != want || got == 0 {
			t.Fatalf("%v: trace visits %d, counters %d", st, got, want)
		}
	}
}
