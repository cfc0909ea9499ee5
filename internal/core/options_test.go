package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/sphere"
	"repro/internal/trace"
)

// sameReport fails unless two batch reports are bit-identical: every
// frame's decision, metric, quality and counters, the aggregate counters and
// the modeled time.
func sameReport(t *testing.T, what string, got, want *BatchReport) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d vs %d results", what, len(got.Results), len(want.Results))
	}
	for i, g := range got.Results {
		w := want.Results[i]
		if math.Float64bits(g.Metric) != math.Float64bits(w.Metric) || g.Counters != w.Counters ||
			g.Quality != w.Quality || g.DegradedBy != w.DegradedBy || !slices.Equal(g.SymbolIdx, w.SymbolIdx) {
			t.Fatalf("%s: frame %d differs:\n got %+v\nwant %+v", what, i, g, w)
		}
	}
	if got.Counters != want.Counters || got.SimulatedTime != want.SimulatedTime {
		t.Fatalf("%s: aggregate differs: %v %+v vs %v %+v", what,
			got.SimulatedTime, got.Counters, want.SimulatedTime, want.Counters)
	}
}

// TestDecodeBatchOptionEquivalence runs every batch mode through the one
// frame loop at 1 and 4 workers. Off-budget, parallel is bit-exact with
// serial (and the modeled-time deadline always runs serially, so it is too);
// a node budget is honoured within the overshoot of the frames in flight
// when the pool empties; traces match the counters frame by frame; and
// every degraded frame carries its mode's DegradedBy tag.
func TestDecodeBatchOptionEquivalence(t *testing.T) {
	inputs, _ := batchFor(t, cfg4(), 6, 12, 91)
	accs := map[int]*Accelerator{}
	for _, w := range []int{1, 4} {
		accs[w] = MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{Workers: w})
	}
	plain, err := accs[1].DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Degraded {
		t.Fatal("premise: the plain batch degraded")
	}
	budget := plain.Counters.NodesExpanded / 3
	rows := []struct {
		name string
		opts []BatchOption
		// shedBy is the DegradedBy tag every degraded frame must carry; ""
		// means no frame may degrade. allShed means every frame is linear.
		shedBy     string
		allShed    bool
		binding    bool // a node budget that cuts: parallel may differ
		asPlain    bool // must equal the plain batch bit for bit
		wantTraces bool
	}{
		{name: "plain", asPlain: true},
		{name: "node-budget", opts: []BatchOption{WithBudget(BatchBudget{NodeBudget: budget})},
			shedBy: decoder.DegradedByBudget, binding: true},
		{name: "deadline", opts: []BatchOption{WithBudget(BatchBudget{Deadline: plain.SimulatedTime / 3})},
			shedBy: decoder.DegradedByBatchDeadline},
		{name: "trace", asPlain: true, wantTraces: true},
		{name: "rvd-se", opts: []BatchOption{WithPolicy(DecodePolicy{Strategy: sphere.RealSE})}},
		{name: "linear", opts: []BatchOption{WithPolicy(DecodePolicy{Linear: true})},
			shedBy: decoder.DegradedByPolicy, allShed: true},
		{name: "fallback", opts: []BatchOption{WithFallback()},
			shedBy: decoder.DegradedByOverload, allShed: true},
	}
	for _, row := range rows {
		var serial *BatchReport
		for _, w := range []int{1, 4} {
			what := fmt.Sprintf("%s/workers=%d", row.name, w)
			opts := row.opts
			var bt *trace.BatchTrace
			if row.wantTraces {
				bt = trace.NewBatchTrace()
				opts = append(opts[:len(opts):len(opts)], WithTrace(bt))
			}
			rep, err := accs[w].DecodeBatch(inputs, opts...)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if w == 1 {
				serial = rep
			}
			switch {
			case row.asPlain:
				sameReport(t, what, rep, plain)
			case !row.binding:
				sameReport(t, what, rep, serial)
			}
			degraded := 0
			for i, res := range rep.Results {
				if res.Quality.Degraded() {
					degraded++
					if res.DegradedBy != row.shedBy || row.shedBy == "" {
						t.Fatalf("%s: frame %d degraded by %q, want %q", what, i, res.DegradedBy, row.shedBy)
					}
				}
				if row.allShed && res.Quality != decoder.QualityFallback {
					t.Fatalf("%s: frame %d quality %v, want fallback", what, i, res.Quality)
				}
			}
			if row.shedBy != "" && degraded == 0 {
				t.Fatalf("%s: premise: nothing degraded", what)
			}
			if row.binding {
				// Serial never overspends. In parallel each frame searches
				// with a snapshot of the pool, so the overshoot is at most
				// what the frames in flight when it emptied spent.
				limit := budget
				if w > 1 {
					spends := make([]int64, len(rep.Results))
					for i, res := range rep.Results {
						spends[i] = res.Counters.NodesExpanded
					}
					slices.Sort(spends)
					for _, s := range spends[len(spends)-w:] {
						limit += s
					}
				}
				if rep.Counters.NodesExpanded > limit {
					t.Fatalf("%s: spent %d nodes on a %d budget (limit %d)", what, rep.Counters.NodesExpanded, budget, limit)
				}
			}
			if bt != nil {
				for i, ft := range bt.Frames {
					if got, want := ft.NodesVisited(), rep.Results[i].Counters.NodesExpanded; got != want {
						t.Fatalf("%s: frame %d: trace visits %d, counters %d", what, i, got, want)
					}
				}
			}
		}
	}
}

// TestDecodeBatchTraced: WithTrace must yield one SearchTrace per input whose
// tallies match that frame's counters, plus preprocess/search phase spans
// parented on the batch span.
func TestDecodeBatchTraced(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{Workers: 4})
	inputs, _ := batchFor(t, cfg4(), 8, 5, 92)
	bt := trace.NewBatchTrace()
	rep, err := acc.DecodeBatch(inputs, WithTrace(bt))
	if err != nil {
		t.Fatal(err)
	}
	if len(bt.Frames) != len(inputs) {
		t.Fatalf("%d frame traces for %d inputs", len(bt.Frames), len(inputs))
	}
	for i, ft := range bt.Frames {
		if ft == nil {
			t.Fatalf("frame %d has no trace", i)
		}
		if got, want := ft.NodesVisited(), rep.Results[i].Counters.NodesExpanded; got != want {
			t.Fatalf("frame %d: trace visits %d, counters %d", i, got, want)
		}
	}
	phases := map[string]bool{}
	for _, s := range bt.Spans {
		phases[s.Name] = true
		if s.Parent != bt.Batch.ID {
			t.Fatalf("phase %q not parented on the batch span", s.Name)
		}
	}
	for _, want := range []string{"preprocess", "search"} {
		if !phases[want] {
			t.Fatalf("missing %q phase span (have %v)", want, phases)
		}
	}
	// The traced batch must be bit-exact with the untraced one.
	plain, err := acc.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Results {
		if plain.Results[i].Metric != rep.Results[i].Metric {
			t.Fatalf("frame %d: tracing changed the decode", i)
		}
	}
}

// TestDecodeBatchTracedShed: shed frames still carry a (zero-visit) trace
// with the shed reason, so a trace stream accounts for every frame.
func TestDecodeBatchTracedShed(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{Workers: 1})
	inputs, _ := batchFor(t, cfg4(), 8, 6, 93)
	bt := trace.NewBatchTrace()
	rep, err := acc.DecodeBatch(inputs, WithBudget(BatchBudget{NodeBudget: 1}), WithTrace(bt))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("1-node budget did not degrade the batch; premise failed")
	}
	sawShed := false
	for i, ft := range bt.Frames {
		if got, want := ft.NodesVisited(), rep.Results[i].Counters.NodesExpanded; got != want {
			t.Fatalf("frame %d: trace visits %d, counters %d", i, got, want)
		}
		if rep.Results[i].Quality == decoder.QualityFallback {
			sawShed = true
			if ft.DegradedBy == "" {
				t.Fatalf("shed frame %d has no degradation reason in its trace", i)
			}
		}
	}
	if !sawShed {
		t.Fatal("no frame was shed under a 1-node batch budget")
	}
}

// TestDecodeBatchTracedFallback: the fallback path fills traces too.
func TestDecodeBatchTracedFallback(t *testing.T) {
	acc := MustNew(fpga.Optimized, constellation.QAM4, 6, 6, Options{})
	inputs, _ := batchFor(t, cfg4(), 8, 3, 94)
	bt := trace.NewBatchTrace()
	rep, err := acc.DecodeBatch(inputs, WithFallback(), WithTrace(bt))
	if err != nil {
		t.Fatal(err)
	}
	if len(bt.Frames) != len(inputs) {
		t.Fatalf("%d traces for %d inputs", len(bt.Frames), len(inputs))
	}
	for i, ft := range bt.Frames {
		if ft.DegradedBy != decoder.DegradedByOverload {
			t.Fatalf("frame %d: degraded by %q, want overload", i, ft.DegradedBy)
		}
		if ft.NodesVisited() != 0 {
			t.Fatalf("frame %d: fallback decode visited %d nodes", i, ft.NodesVisited())
		}
		if rep.Results[i].Quality != decoder.QualityFallback {
			t.Fatalf("frame %d quality %v", i, rep.Results[i].Quality)
		}
	}
}
