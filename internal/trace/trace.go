// Package trace is the observability layer of the repository: structured
// recording of individual sphere searches and of the serving pipeline that
// dispatches them.
//
// The paper's central evidence is an operation trace — per-level node
// counts, prune rates, and the radius-update trajectory are what justify the
// <1% tree-visit claim (Fig. 5) and drive every platform model. On the FPGA
// these are free-running on-chip counters beside the search pipeline; here
// they are a Recorder interface threaded through internal/sphere. The
// contract mirrors the hardware: recording must never perturb the thing
// being measured, so every hook site guards on a nil interface and the
// disabled path stays at zero allocations per decode (pinned by the
// AllocsPerRun tests in internal/sphere).
package trace

import "time"

// Recorder receives the structured events of one sphere search. Implementers
// need not be safe for concurrent use: a search is single-goroutine, and the
// batch layers install one Recorder per frame.
//
// Depth conventions follow the MST: the root sits at depth 0, a full leaf at
// depth M. NodeExpanded reports the depth of the node being expanded
// (0..M−1); Children reports the depth of the children produced by one
// expansion (1..M). SearchStart is called once per search: a retried search
// (radius doubling) keeps reporting into the same tallies, so they cover
// every attempt, as decoder.Counters does.
type Recorder interface {
	// SearchStart begins a search over an M-level tree with branching
	// factor |Ω| = alphabet, starting inside radiusSq (+Inf = unbounded).
	SearchStart(m, alphabet int, radiusSq float64)
	// NodeExpanded reports one node expansion at the given depth.
	NodeExpanded(depth int)
	// Children reports the outcome of one batch of generated children at
	// the given depth: pruned fell outside the sphere, kept entered the
	// tree. A late prune (a queued node invalidated by a radius update
	// before its expansion) arrives as Children(depth, 1, 0).
	Children(depth, pruned, kept int)
	// RadiusUpdate reports a radius shrink to radiusSq (an improving leaf —
	// Algorithm 1 lines 7–9).
	RadiusUpdate(radiusSq float64)
	// Degraded reports that the search was cut short, with the
	// decoder.DegradedBy* reason.
	Degraded(reason string)
	// SearchEnd closes the (final) attempt: the terminal radius and how
	// many radius-doubling retries preceded this attempt.
	SearchEnd(finalRadiusSq float64, retries int)
}

// LevelStats tallies one tree level of a recorded search.
type LevelStats struct {
	// Visits counts expansions of nodes at this depth (always 0 at depth M:
	// leaves are committed, not expanded).
	Visits int64
	// Pruned counts children cut at this depth, including late prunes and
	// K-best frontier trimming.
	Pruned int64
	// Kept counts children that entered the tree at this depth. K-best
	// trimming re-prunes some of them afterwards, so Kept is an upper bound
	// on the surviving population under that variant.
	Kept int64
}

// RadiusPoint is one radius shrink, timestamped relative to SearchStart.
type RadiusPoint struct {
	T        time.Duration
	RadiusSq float64
}

// SearchTrace is the concrete Recorder: per-level visit/prune/keep tallies,
// the timestamped radius trajectory, and the degradation outcome of one
// search. Reusable — SearchStart resets it — so a decode loop can run one
// trace per frame without reallocating.
type SearchTrace struct {
	M               int
	Alphabet        int
	InitialRadiusSq float64
	FinalRadiusSq   float64
	Retries         int
	DegradedBy      string
	// Levels is indexed by depth, length M+1.
	Levels []LevelStats
	// Radius is the shrink trajectory of the final attempt.
	Radius []RadiusPoint
	// Duration is SearchStart → SearchEnd, retries included.
	Duration time.Duration

	start time.Time
}

// NewSearchTrace returns an empty trace ready to install as a
// sphere.Config.Recorder.
func NewSearchTrace() *SearchTrace { return &SearchTrace{} }

// SearchStart implements Recorder. It resets the trace, so one trace can
// record successive searches.
func (t *SearchTrace) SearchStart(m, alphabet int, radiusSq float64) {
	t.M, t.Alphabet = m, alphabet
	t.InitialRadiusSq = radiusSq
	t.FinalRadiusSq = radiusSq
	t.DegradedBy = ""
	if cap(t.Levels) < m+1 {
		t.Levels = make([]LevelStats, m+1)
	} else {
		t.Levels = t.Levels[:m+1]
		for i := range t.Levels {
			t.Levels[i] = LevelStats{}
		}
	}
	t.Radius = t.Radius[:0]
	t.start = time.Now()
}

// NodeExpanded implements Recorder.
func (t *SearchTrace) NodeExpanded(depth int) {
	if depth >= 0 && depth < len(t.Levels) {
		t.Levels[depth].Visits++
	}
}

// Children implements Recorder.
func (t *SearchTrace) Children(depth, pruned, kept int) {
	if depth >= 0 && depth < len(t.Levels) {
		t.Levels[depth].Pruned += int64(pruned)
		t.Levels[depth].Kept += int64(kept)
	}
}

// RadiusUpdate implements Recorder.
func (t *SearchTrace) RadiusUpdate(radiusSq float64) {
	t.Radius = append(t.Radius, RadiusPoint{T: time.Since(t.start), RadiusSq: radiusSq})
	t.FinalRadiusSq = radiusSq
}

// Degraded implements Recorder.
func (t *SearchTrace) Degraded(reason string) { t.DegradedBy = reason }

// SearchEnd implements Recorder.
func (t *SearchTrace) SearchEnd(finalRadiusSq float64, retries int) {
	t.FinalRadiusSq = finalRadiusSq
	t.Retries = retries
	t.Duration = time.Since(t.start)
}

// NodesVisited sums the per-level expansion counts. For a search recorded
// through internal/sphere this equals decoder.Counters.NodesExpanded exactly
// — the invariant ValidateFrame and the sphere tests enforce.
func (t *SearchTrace) NodesVisited() int64 {
	var n int64
	for _, l := range t.Levels {
		n += l.Visits
	}
	return n
}

// ChildrenPruned sums the per-level prune counts (equals
// decoder.Counters.ChildrenPruned for a sphere-recorded search).
func (t *SearchTrace) ChildrenPruned() int64 {
	var n int64
	for _, l := range t.Levels {
		n += l.Pruned
	}
	return n
}
