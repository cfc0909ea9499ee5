package sphere

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmatrix"
	"repro/internal/decoder"
)

// ParallelSD implements the paper's future-work extension (Section V):
// partitioning the search tree over multiple Processing Entities. The |Ω|
// first-level subtrees are distributed across workers, each running a sorted
// depth-first search; the sphere radius is shared through an atomic word so
// a leaf found by any PE immediately tightens pruning in all others — the
// synchronization step Nikitopoulos et al. [4] identify as the one
// unavoidable coupling between parallel sub-trees.
//
// The detector remains exact: every subtree is explored (or pruned against
// the shared radius), so the result equals the ML solution.
type ParallelSD struct {
	cfg     Config
	Workers int // number of PEs; <= 0 selects GOMAXPROCS
}

// NewParallel builds a parallel sphere decoder. Only SortedDFS and PlainDFS
// subtree strategies are supported.
func NewParallel(cfg Config, workers int) (*ParallelSD, error) {
	if cfg.Strategy != SortedDFS && cfg.Strategy != PlainDFS {
		return nil, fmt.Errorf("sphere: parallel decoder requires a DFS strategy, got %v", cfg.Strategy)
	}
	if _, err := New(cfg); err != nil {
		return nil, err
	}
	// Re-run defaulting logic.
	if cfg.RadiusScale == 0 {
		cfg.RadiusScale = 2
	}
	if cfg.MaxNodes == 0 {
		cfg.MaxNodes = 50_000_000
	}
	return &ParallelSD{cfg: cfg, Workers: workers}, nil
}

// Name implements decoder.Decoder.
func (d *ParallelSD) Name() string {
	return fmt.Sprintf("%s-parallel", d.cfg.Strategy)
}

// sharedRadius is an atomically updated float64 (bit-cast through uint64)
// holding the current squared sphere radius.
type sharedRadius struct{ bits atomic.Uint64 }

func (s *sharedRadius) store(v float64) { s.bits.Store(math.Float64bits(v)) }
func (s *sharedRadius) load() float64   { return math.Float64frombits(s.bits.Load()) }

// tighten lowers the radius to v if v is smaller, returning true when this
// call won the update.
func (s *sharedRadius) tighten(v float64) bool {
	for {
		old := s.bits.Load()
		if math.Float64frombits(old) <= v {
			return false
		}
		if s.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return true
		}
	}
}

// Decode implements decoder.Decoder.
func (d *ParallelSD) Decode(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) (*decoder.Result, error) {
	if err := decoder.CheckDims(h, y); err != nil {
		return nil, err
	}
	pre, err := Preprocess(h)
	if err != nil {
		return nil, fmt.Errorf("sphere: preprocessing failed: %w", err)
	}
	return d.DecodePre(pre, y, noiseVar)
}

// DecodePre is Decode against a precomputed channel factorization, letting
// batches under one coherence block share the QR work across frames.
func (d *ParallelSD) DecodePre(pre *Preprocessed, y cmatrix.Vector, noiseVar float64) (*decoder.Result, error) {
	if err := pre.CheckY(y); err != nil {
		return nil, err
	}
	if noiseVar < 0 || math.IsNaN(noiseVar) {
		return nil, fmt.Errorf("sphere: invalid noise variance %v", noiseVar)
	}
	start := time.Now()
	var deadline time.Time
	if d.cfg.Deadline > 0 {
		deadline = start.Add(d.cfg.Deadline)
	}
	r := pre.complexR()
	ybar := pre.rotate(make(cmatrix.Vector, pre.N), y)
	offset := cmatrix.Norm2Sq(y) - cmatrix.Norm2Sq(ybar)
	if offset < 0 {
		offset = 0
	}
	m := pre.M
	p := d.cfg.Const.Size()
	pts := d.cfg.Const.Points()

	workers := d.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p {
		workers = p
	}

	radius := &sharedRadius{}
	init := d.cfg.InitialRadiusSq
	if init <= 0 {
		init = math.Inf(1)
	}
	radius.store(init)

	// First-level branching is done once: child c of the root decides
	// antenna m−1 with PD |ȳ_{m−1} − R[m−1][m−1]·ω_c|².
	rowTop := r.Row(m - 1)
	type subtree struct {
		sym int
		pd  float64
	}
	subtrees := make([]subtree, p)
	for c := 0; c < p; c++ {
		diff := ybar[m-1] - rowTop[m-1]*pts[c]
		subtrees[c] = subtree{sym: c, pd: real(diff)*real(diff) + imag(diff)*imag(diff)}
	}
	// Process promising subtrees first: static best-first partitioning, the
	// "tree of promise" ordering of [4].
	for i := 1; i < len(subtrees); i++ {
		for j := i; j > 0 && subtrees[j].pd < subtrees[j-1].pd; j-- {
			subtrees[j], subtrees[j-1] = subtrees[j-1], subtrees[j]
		}
	}

	type peResult struct {
		leafPath  []int
		pd        float64
		counters  decoder.Counters
		truncated string // stop reason, "" while exact
	}
	results := make([]peResult, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			res.pd = math.Inf(1)
			for {
				i := int(next.Add(1)) - 1
				if i >= p {
					return
				}
				st := subtrees[i]
				if st.pd >= radius.load() {
					res.counters.ChildrenPruned++
					continue
				}
				pe := newPESearch(&d.cfg, r, ybar, radius)
				pe.deadline = deadline
				path, pd := pe.exploreSubtree(st.sym, st.pd)
				res.counters.Add(pe.counters)
				if path != nil && pd < res.pd {
					res.pd = pd
					res.leafPath = path
				}
				if pe.stopReason != "" {
					// This PE ran out of budget or time; stop pulling
					// subtrees and report the truncation upward.
					res.truncated = pe.stopReason
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var counters decoder.Counters
	bestPD := math.Inf(1)
	var bestPath []int
	truncated := ""
	for i := range results {
		counters.Add(results[i].counters)
		if results[i].truncated != "" {
			truncated = results[i].truncated
		}
		if results[i].leafPath != nil && results[i].pd < bestPD {
			bestPD = results[i].pd
			bestPath = results[i].leafPath
		}
	}
	res := &decoder.Result{Counters: counters}
	if d.cfg.Deadline > 0 {
		res.Elapsed = time.Since(start)
	}
	switch {
	case truncated != "" && d.cfg.HardBudget:
		if truncated == decoder.DegradedByDeadline {
			return nil, ErrDeadline
		}
		return nil, ErrBudget
	case truncated != "":
		res.Quality = decoder.QualityBestEffort
		res.DegradedBy = truncated
		fbIdx, fbPD, fbFlops := fallbackPoint(r, ybar, d.cfg.Const)
		res.Counters.OtherFlops += fbFlops
		if bestPath == nil || fbPD < bestPD {
			bestPath, bestPD = fbIdx, fbPD
			res.Quality = decoder.QualityFallback
		}
	case bestPath == nil:
		return nil, fmt.Errorf("%w (parallel, r²=%v)", ErrNoLeaf, init)
	}
	syms := make(cmatrix.Vector, m)
	for i, id := range bestPath {
		syms[i] = d.cfg.Const.Symbol(id)
	}
	res.SymbolIdx = bestPath
	res.Symbols = syms
	res.Metric = bestPD + offset
	return res, nil
}

// peSearch is a per-worker sorted DFS over one first-level subtree, pruning
// against the shared radius.
type peSearch struct {
	cfg      *Config
	m, p     int
	r        *cmatrix.Matrix
	ybar     cmatrix.Vector
	pts      []complex128
	radius   *sharedRadius
	mst      *MST
	counters decoder.Counters
	pathBuf  []int
	childPD  []float64
	order    []int

	// deadline/stopReason mirror the sequential search's anytime state.
	deadline   time.Time
	stopReason string
}

func newPESearch(cfg *Config, r *cmatrix.Matrix, ybar cmatrix.Vector, radius *sharedRadius) *peSearch {
	m := r.Cols
	p := cfg.Const.Size()
	return &peSearch{
		cfg: cfg, m: m, p: p, r: r, ybar: ybar,
		pts:     cfg.Const.Points(),
		radius:  radius,
		mst:     NewMST(m),
		pathBuf: make([]int, m),
		childPD: make([]float64, p),
		order:   make([]int, p),
	}
}

// exploreSubtree runs a sorted DFS under the first-level child with symbol
// sym and PD pd, returning the best full path found (antenna-indexed) and
// its PD, or (nil, +Inf) if the subtree held no leaf inside the sphere.
// When the node budget or deadline cuts the traversal, the best leaf found
// so far is returned and s.stopReason records why the subtree is
// incomplete.
func (s *peSearch) exploreSubtree(sym int, pd float64) ([]int, float64) {
	root := s.mst.Add(s.mst.Root(), sym, pd)
	bestPD := math.Inf(1)
	var bestLeaf int32 = -1
	sorted := s.cfg.Strategy == SortedDFS

	stack := []int32{root}
	for len(stack) > 0 {
		if int64(len(stack)) > s.counters.MaxListLen {
			s.counters.MaxListLen = int64(len(stack))
		}
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.mst.PD(id) >= s.radius.load() {
			s.counters.ChildrenPruned++
			continue
		}
		if s.counters.NodesExpanded >= s.cfg.MaxNodes {
			s.stopReason = decoder.DegradedByBudget
			break
		}
		if !s.deadline.IsZero() && s.counters.NodesExpanded&63 == 0 && time.Now().After(s.deadline) {
			s.stopReason = decoder.DegradedByDeadline
			break
		}
		s.counters.NodesExpanded++
		s.evalChildren(id)
		depth := s.mst.Depth(id)
		if sorted {
			s.counters.SortedBatches++
			// Insertion sort of the small order slice, counting compares.
			for i := 1; i < s.p; i++ {
				for j := i; j > 0; j-- {
					s.counters.CompareOps++
					if s.childPD[s.order[j]] >= s.childPD[s.order[j-1]] {
						break
					}
					s.order[j], s.order[j-1] = s.order[j-1], s.order[j]
				}
			}
		}
		rsq := s.radius.load()
		if depth == s.m-1 {
			for _, c := range s.order {
				cpd := s.childPD[c]
				s.counters.LeavesReached++
				if cpd >= rsq {
					s.counters.ChildrenPruned++
					continue
				}
				if cpd < bestPD {
					bestPD = cpd
					bestLeaf = s.mst.Add(id, c, cpd)
					if s.radius.tighten(cpd) {
						s.counters.RadiusUpdates++
					}
					rsq = s.radius.load()
				}
			}
			continue
		}
		for i := s.p - 1; i >= 0; i-- {
			c := s.order[i]
			cpd := s.childPD[c]
			if cpd >= rsq {
				s.counters.ChildrenPruned++
				continue
			}
			stack = append(stack, s.mst.Add(id, c, cpd))
		}
	}
	if bestLeaf < 0 {
		return nil, math.Inf(1)
	}
	path := make([]int, s.m)
	s.mst.PathSymbols(bestLeaf, s.m, path)
	return path, bestPD
}

// evalChildren mirrors search.evalChildren for the worker-local state.
func (s *peSearch) evalChildren(id int32) {
	d := s.mst.Depth(id)
	k := s.m - 1 - d
	parentPD := s.mst.PD(id)
	row := s.r.Row(k)
	visited := s.mst.PathSymbols(id, s.m, s.pathBuf)
	s.counters.IrregularLoads += int64(visited)

	var inner complex128
	for i := k + 1; i < s.m; i++ {
		inner += row[i] * s.pts[s.pathBuf[i]]
	}
	target := s.ybar[k] - inner
	rkk := row[k]
	for c := 0; c < s.p; c++ {
		diff := target - rkk*s.pts[c]
		s.childPD[c] = parentPD + real(diff)*real(diff) + imag(diff)*imag(diff)
		s.order[c] = c
	}
	s.counters.OtherFlops += 8*int64(s.m-1-k) + int64(s.p)*12
	s.counters.RegularLoads += int64(s.m - k)
	s.counters.ChildrenGenerated += int64(s.p)
	s.counters.EvalDepthSum += int64(s.m - k)
}
