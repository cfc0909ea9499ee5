package sphere

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/cmatrix"
	"repro/internal/decoder"
	"repro/internal/integrity"
	"repro/internal/trace"
)

// search holds the state of one tree exploration: the reduced system
// (R, ȳ), the Meta State Table, the current sphere radius, the incumbent
// leaf, and the operation trace.
//
// Searches are pooled: the decode hot path acquires one, runs, extracts the
// result, and releases it, so steady-state decoding performs no heap
// allocation. All scratch slices and the MST arena keep their capacity
// across the pool round-trip.
type search struct {
	cfg  *Config
	m    int // transmit antennas == tree height
	p    int // |Ω| == branching factor
	r    *cmatrix.Matrix
	ybar cmatrix.Vector
	pts  []complex128
	mst  *MST

	radiusSq float64
	bestPD   float64
	// haveBest reports that some leaf entered the sphere this attempt;
	// bestPath then holds its symbols, antenna-indexed. The path is copied
	// out when the leaf commits because a LIFO search later truncates the
	// leaf's MST record.
	haveBest bool
	bestPath []int
	// radii holds the PDs of this attempt's improving leaves in discovery
	// order (the radius trajectory).
	radii []float64

	// deadline, when non-zero, bounds the wall-clock time of the
	// traversal; stopReason records what cut the search short ("" while
	// it is still exact).
	deadline   time.Time
	stopReason string

	counters decoder.Counters

	// maxNodes is the node budget of this search: cfg.MaxNodes, or the
	// tighter per-call Limits.MaxNodes.
	maxNodes int64

	// rec is this search's recorder (Limits.Recorder, else cfg.Recorder);
	// nil (the common case) disables all trace hooks. Recorder bookkeeping
	// piggybacks on the counters the search maintains anyway: hook sites
	// snapshot a counter before a child loop and report the delta after, so
	// the disabled path executes no extra work beyond one nil check.
	rec trace.Recorder

	// Reusable scratch.
	pathBuf []int
	childPD []float64
	order   []int
	stack   []int32

	// pathIDs[d] is the MST id of the node at depth d on the DFS path
	// currently mirrored in pathBuf; incPath enables the incremental
	// maintenance, which is only valid for strict-LIFO traversals (see
	// updatePath).
	pathIDs []int32
	incPath bool

	// ybarBuf backs ybar when the caller routes through computeYbar.
	ybarBuf cmatrix.Vector

	// Real-valued (RealSE) search state: the ascending PAM alphabet, the
	// interleaved upper-triangular real factor (flat row-major, see
	// RealPre), and the rotated real receive vector, all riding on the same
	// pooled scratch discipline as the complex fields (m is the real tree
	// height 2M, p the PAM size).
	pam      []float64
	rr       []float64
	rybar    []float64
	rybarBuf []float64

	// GEMM scratch reused across node expansions (the allocation profile
	// that motivated the paper's extracted GEMM engine: operands live in
	// dedicated buffers, not freshly carved memory).
	gemmState cmatrix.Matrix
	gemmA     cmatrix.Matrix
	gemmW     cmatrix.Matrix
	levelPD   []float64

	// ABFT helpers (set when cfg.VerifyGEMM) so verifyProduct runs in O(p)
	// per GEMM call: the alphabet's sum and peak ℓ1 magnitude (O(p) per
	// acquire), and the handle's cached R-row mass bound (installed by
	// decodePre from Preprocessed.RowMass, amortized across every decode on
	// the channel).
	ptsSum   complex128
	maxPtAbs float64
	rowMass  float64
}

var searchPool = sync.Pool{New: func() any { return new(search) }}

// acquireSearch checks a search out of the pool, sized for the reduced
// system rooted at R. Install ȳ via computeYbar (or assign s.ybar), call
// beginAttempt before running, and release when done.
func acquireSearch(cfg *Config, r *cmatrix.Matrix, lim Limits) *search {
	s := searchPool.Get().(*search)
	m := r.Cols
	p := cfg.Const.Size()
	s.cfg, s.m, s.p, s.r, s.ybar = cfg, m, p, r, nil
	s.setLimits(cfg, lim)
	s.pts = cfg.Const.Points()
	if cfg.VerifyGEMM {
		s.ptsSum, s.maxPtAbs = 0, 0
		for _, pt := range s.pts {
			s.ptsSum += pt
			if a1 := math.Abs(real(pt)) + math.Abs(imag(pt)); a1 > s.maxPtAbs {
				s.maxPtAbs = a1
			}
		}
		// rowMass is installed by the caller (decodePre) from the handle's
		// cached bound; seed a safe zero so a stray path fails closed (zero
		// tolerance detects everything and repairs exactly).
		s.rowMass = 0
	}
	if s.mst == nil {
		s.mst = NewMST(m)
	}
	s.pathBuf = growInts(s.pathBuf, m)
	s.bestPath = growInts(s.bestPath, m)
	s.pathIDs = growInt32s(s.pathIDs, m)
	s.childPD = growFloats(s.childPD, p)
	s.order = growInts(s.order, p)
	s.incPath = false
	return s
}

// setLimits installs the search's node budget and recorder: lim's where
// set, cfg's otherwise. A per-call MaxNodes only ever tightens cfg's.
func (s *search) setLimits(cfg *Config, lim Limits) {
	s.maxNodes, s.rec = cfg.MaxNodes, cfg.Recorder
	if lim.MaxNodes > 0 && lim.MaxNodes < cfg.MaxNodes {
		s.maxNodes = lim.MaxNodes
	}
	if lim.Recorder != nil {
		s.rec = lim.Recorder
	}
}

// computeYbar rotates y into the reduced domain (ȳ = Qᴴy) with the handle's
// reflectors, using the pooled buffer (length N: the rotation works on the
// whole vector), and installs it as the search's ȳ.
func (s *search) computeYbar(pre *Preprocessed, y cmatrix.Vector) cmatrix.Vector {
	if cap(s.ybarBuf) < pre.N {
		s.ybarBuf = make(cmatrix.Vector, pre.N)
	}
	s.ybar = pre.rotate(s.ybarBuf[:pre.N], y)
	return s.ybar
}

// beginAttempt starts a decode's search at the given radius: it zeroes the
// counters, announces the search to the recorder, and resets the traversal
// state (see restartAt).
func (s *search) beginAttempt(radiusSq float64, deadline time.Time) {
	s.deadline = deadline
	s.counters = decoder.Counters{}
	if s.rec != nil {
		s.rec.SearchStart(s.m, s.p, radiusSq)
	}
	s.restartAt(radiusSq)
}

// restartAt resets the traversal state (MST, incumbent, radius trajectory)
// for a fresh traversal at the given radius. Radius-doubling retries call it
// directly: the counters, the recorder's tallies and the node budget keep
// running across attempts, so they account for every expansion the decode
// paid for.
func (s *search) restartAt(radiusSq float64) {
	s.mst.Reset(s.m)
	s.radiusSq = radiusSq
	s.bestPD = math.Inf(1)
	s.haveBest = false
	s.radii = s.radii[:0]
	s.stopReason = ""
	for i := range s.pathIDs {
		s.pathIDs[i] = -1
	}
}

// maxRadiusDoublings bounds the retries of an empty sphere. A depth-first
// search that exhausts them runs one last attempt at r² = +Inf, which
// always reaches a leaf, so a start guessed too small (a tiny noise
// variance, say) never fails a decode that an unbounded start would finish.
// BFS cannot search an unbounded sphere and reports ErrNoLeaf instead.
const maxRadiusDoublings = 60

// runAttempts searches from radius until a leaf is found, doubling an empty
// sphere (the standard retry when the initial radius was guessed too small).
// preFlops and loads are the preprocessing work charged to the first
// attempt; each retry re-pays loads. A budget or deadline stop reports
// truncated under the anytime contract and an error under HardBudget.
func (s *search) runAttempts(radius float64, deadline time.Time, preFlops, loads int64) (retries int, truncated bool, err error) {
	s.beginAttempt(radius, deadline)
	s.counters.OtherFlops += preFlops
	s.counters.RegularLoads += loads
	for {
		if err := s.run(); err != nil {
			if (errors.Is(err, ErrBudget) || errors.Is(err, ErrDeadline)) && !s.cfg.HardBudget {
				return retries, true, nil
			}
			return retries, false, err
		}
		if s.haveBest {
			return retries, false, nil
		}
		if s.cfg.DisableRetry {
			return retries, false, fmt.Errorf("%w (r²=%v)", ErrNoLeaf, radius)
		}
		if math.IsInf(radius, 1) {
			// An infinite sphere with no leaf means the tree itself was
			// never completed — only possible via the node budget, which
			// run() reports; reaching here indicates a logic error.
			return retries, false, fmt.Errorf("%w despite infinite radius", ErrNoLeaf)
		}
		radius *= 2
		retries++
		if retries > maxRadiusDoublings {
			if s.cfg.Strategy == BFS {
				return retries, false, fmt.Errorf("%w after %d radius doublings", ErrNoLeaf, retries)
			}
			radius = math.Inf(1)
		}
		s.restartAt(radius)
		s.counters.RegularLoads += loads
	}
}

// release drops the reference fields and returns the search (and its
// scratch capacity) to the pool. A caller that handed the MST out (the
// traced API) sets s.mst = nil first; the next acquire re-allocates one.
func (s *search) release() {
	s.cfg = nil
	s.r = nil
	s.ybar = nil
	s.pts = nil
	s.rec = nil
	s.pam = nil
	s.rr = nil
	s.rybar = nil
	searchPool.Put(s)
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// reshape resizes a scratch matrix header in place, reusing its backing
// slice when the capacity suffices. Contents are unspecified afterwards;
// callers overwrite every element (or multiply with beta == 0).
func reshape(mat *cmatrix.Matrix, rows, cols int) *cmatrix.Matrix {
	n := rows * cols
	if cap(mat.Data) < n {
		mat.Data = make([]complex128, n)
	}
	mat.Data = mat.Data[:n]
	mat.Rows, mat.Cols = rows, cols
	return mat
}

// run dispatches to the configured traversal.
func (s *search) run() error {
	switch s.cfg.Strategy {
	case SortedDFS, PlainDFS:
		return s.runDFS(s.cfg.Strategy == SortedDFS)
	case BestFS:
		return s.runBestFS()
	case BFS:
		return s.runBFS()
	case FSD:
		return s.runFSD()
	case RealSE:
		return s.runRealSE()
	}
	panic("sphere: unreachable strategy")
}

// updatePath brings pathBuf (the symbols decided along the path to node id,
// indexed by antenna) up to date and charges the MST gather.
//
// The trace charge is the full path depth regardless of how the software
// maintains it: the hardware's pre-fetch unit must still stream d records
// out of the MST for a depth-d node, so IrregularLoads is identical to the
// old walk-every-time accounting.
//
// With incPath set the walk copies only the stale suffix: it always writes
// the popped node's own entry, then stops at the first ancestor whose
// recorded id already matches. That early stop is provably correct only for
// strict-LIFO traversals (DFS and list-DFS), where the popped node's parent
// is always the most recently expanded node on the current path; best-first
// and level orders can leave a stale deeper entry that coincidentally
// matches, so they keep the full walk. The popped node itself gets no early
// stop because a LIFO search truncates the MST and reuses ids: a stale entry
// at its depth may carry its id for a record that no longer exists. An
// ancestor's matching entry is current, since the ancestor wrote it when it
// was expanded and its record outlives its whole subtree.
func (s *search) updatePath(id int32, d int) {
	s.counters.IrregularLoads += int64(d)
	if !s.incPath {
		s.mst.PathSymbols(id, s.m, s.pathBuf)
		return
	}
	for n := id; n != s.mst.Root(); n = s.mst.Parent(n) {
		dep := s.mst.Depth(n)
		if n != id && s.pathIDs[dep] == n {
			break
		}
		s.pathIDs[dep] = n
		s.pathBuf[s.m-dep] = s.mst.Symbol(n)
	}
}

// evalChildren computes the PDs of all |Ω| children of the node id, filling
// s.childPD and s.childSym. The node sits at depth d, so the children decide
// antenna k = m−1−d and the PD increment is |ȳ_k − Σ_{i≥k} R[k][i]·s_i|²
// (Eq. 6). Two arithmetic paths produce the same values:
//
//   - scalar (BLAS-2 profile): walk the MST path once, accumulate the inner
//     product, then one fused update per child;
//   - GEMM (BLAS-3 profile, the paper's refactoring): gather the tree-state
//     block into a (m−k)×|Ω| matrix and multiply by the R row block.
func (s *search) evalChildren(id int32) {
	d := s.mst.Depth(id)
	if s.cfg.OnExpand != nil {
		s.cfg.OnExpand(d)
	}
	k := s.m - 1 - d
	parentPD := s.mst.PD(id)
	row := s.r.Row(k)

	s.updatePath(id, d)

	if s.cfg.UseGEMM {
		s.evalChildrenGEMM(k, parentPD, row)
	} else {
		s.evalChildrenScalar(k, parentPD, row)
	}
	s.counters.ChildrenGenerated += int64(s.p)
	s.counters.EvalDepthSum += int64(s.m - k)
	// Reset the iteration order to natural; sortChildren permutes it.
	for c := 0; c < s.p; c++ {
		s.order[c] = c
	}
}

func (s *search) evalChildrenScalar(k int, parentPD float64, row []complex128) {
	// inner = Σ_{i>k} R[k][i]·s_i over the already-decided path symbols.
	var inner complex128
	for i := k + 1; i < s.m; i++ {
		inner += row[i] * s.pts[s.pathBuf[i]]
	}
	target := s.ybar[k] - inner
	rkk := row[k]
	for c := 0; c < s.p; c++ {
		diff := target - rkk*s.pts[c]
		s.childPD[c] = parentPD + real(diff)*real(diff) + imag(diff)*imag(diff)
	}
	s.counters.OtherFlops += 8*int64(s.m-1-k) + int64(s.p)*12
	s.counters.RegularLoads += int64(s.m - k)
}

func (s *search) evalChildrenGEMM(k int, parentPD float64, row []complex128) {
	depth := s.m - k // block height: the new symbol plus the decided path
	// Tree-state block: column c is [ω_c, s_{k+1}, …, s_{m−1}]ᵀ. Every
	// element is overwritten, so the pooled scratch needs no clearing.
	state := reshape(&s.gemmState, depth, s.p)
	for c := 0; c < s.p; c++ {
		state.Set(0, c, s.pts[c])
	}
	for i := k + 1; i < s.m; i++ {
		sym := s.pts[s.pathBuf[i]]
		r := state.Row(i - k)
		for c := 0; c < s.p; c++ {
			r[c] = sym
		}
	}
	// A is the 1×depth row block R[k, k:m].
	a := reshape(&s.gemmA, 1, depth)
	copy(a.Row(0), row[k:s.m])
	w := reshape(&s.gemmW, 1, s.p)
	cmatrix.GEMM(1, a, state, 0, w)
	if s.cfg.GEMMFault != nil && s.cfg.GEMMFault() {
		w.Data[0] = corruptWord(w.Data[0])
	}
	if s.cfg.VerifyGEMM {
		s.verifyProduct(a, state, w, depth, s.p)
	}
	s.counters.GEMMCalls++
	s.counters.GEMMFlops += cmatrix.FlopsGEMM(1, s.p, depth)
	s.counters.RegularLoads += int64(depth) * int64(s.p+1)

	yk := s.ybar[k]
	for c := 0; c < s.p; c++ {
		diff := yk - w.At(0, c)
		s.childPD[c] = parentPD + real(diff)*real(diff) + imag(diff)*imag(diff)
	}
	s.counters.OtherFlops += int64(s.p) * 6 // NORM module work
}

// verifyProduct is the ABFT guard on one batched child evaluation: check the
// Huang–Abraham row-checksum identity on w = a·state and, on a mismatch,
// repair w in place by recomputing the product with the straightforward
// reference loop (an independent summation order from the blocked/split
// kernels, so a transient fabric error does not reproduce).
//
// The check exploits the tree-state structure to avoid re-walking operands
// the product already consumed. Each p-wide frontier block's columns share
// every decided path symbol, so its outputs are affine in the enumerated
// symbol: w_c = a₀·ω_c + T with one common tail T per block. Substituting
// T = w₀ − a₀·ω₀ into the row-checksum identity Σ_c w_c = a₀·Σω + p·T
// eliminates the tail entirely:
//
//	Σ_c w_c − p·w₀ = a₀·(Σω − p·ω₀)
//
// — a per-block test in O(p) additions with no k-dependence at all (the
// generic checksum pass is O(k·n)). Any single corrupted output word shifts
// the left side by δ (or (1−p)·δ for the block's word 0), never zero, so
// detection coverage for the transient-flip fault model is unchanged. The
// tolerance bounds the identity's rounding with the level's precomputed
// R-row mass: every word obeys |w_c| ≤ rowSuff·maxPtAbs, and the 2p+2
// accumulated terms ride a generous constant so honest float64
// rounding never trips it while an exponent/sign/high-mantissa flip does.
// The repair path only runs on detected corruption.
func (s *search) verifyProduct(a, state, w *cmatrix.Matrix, k, n int) {
	arow := a.Row(0)
	wrow := w.Row(0)
	pf := float64(s.p)
	a0 := arow[0]
	cterm := a0 * (s.ptsSum - complex(pf, 0)*s.pts[0])
	tol := integrity.EpsFloat64 * float64(k+s.p) * 4 * pf * s.rowMass * s.maxPtAbs
	s.counters.OtherFlops += int64(n)*2 + int64(n/s.p)*4
	ok := true
	for base := 0; base < n; base += s.p {
		var sum complex128
		for c := 0; c < s.p; c++ {
			sum += wrow[base+c]
		}
		d := sum - complex(pf, 0)*wrow[base] - cterm
		if math.Abs(real(d))+math.Abs(imag(d)) > tol {
			ok = false
			break
		}
	}
	if ok {
		return
	}
	s.counters.SDCDetected++
	for c := 0; c < n; c++ {
		var sum complex128
		for i := 0; i < k; i++ {
			sum += arow[i] * state.At(i, c)
		}
		wrow[c] = sum
	}
	s.counters.OtherFlops += cmatrix.FlopsGEMM(1, n, k)
	s.counters.SDCRecovered++
}

// corruptWord flips the high mantissa bit of the real component — the soft
// error the SDC chaos plan injects into a GEMM output word.
func corruptWord(z complex128) complex128 {
	return complex(math.Float64frombits(math.Float64bits(real(z))^(1<<51)), imag(z))
}

// sortChildren orders s.order by ascending child PD, counting comparator
// work. This is the paper's phase-3 sort (Fig. 3). An insertion sort over
// the small fixed alphabet (|Ω| = 4–64) beats sort.Slice here: no closure
// allocation, no comparator indirection, and CompareOps counts the exact
// number of comparisons the hardware sorter would burn.
func (s *search) sortChildren() {
	s.counters.SortedBatches++
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

// commitLeaf processes a full-depth child: every evaluated leaf counts, and
// an improving one shrinks the radius (Algorithm 1 lines 7–9).
func (s *search) commitLeaf(parent int32, sym int, pd float64) {
	s.counters.LeavesReached++
	if pd < s.radiusSq && pd < s.bestPD {
		s.counters.RadiusUpdates++
		s.setIncumbent(s.mst.Add(parent, sym, pd), pd)
	}
}

// setIncumbent makes the full-depth record leaf, of PD pd, the best point so
// far: the radius shrinks to pd and the leaf's path is copied into bestPath.
func (s *search) setIncumbent(leaf int32, pd float64) {
	s.bestPD = pd
	s.radiusSq = pd
	s.haveBest = true
	s.mst.PathSymbols(leaf, s.m, s.bestPath)
	s.radii = append(s.radii, pd)
	if s.rec != nil {
		s.rec.RadiusUpdate(pd)
	}
}

// budgetExceeded reports whether the traversal must stop — node budget
// spent or deadline passed — and records the reason. The deadline is
// polled every 64 expansions to keep time syscalls off the per-node path.
func (s *search) budgetExceeded() bool {
	if s.counters.NodesExpanded >= s.maxNodes {
		s.stopReason = decoder.DegradedByBudget
		return true
	}
	if !s.deadline.IsZero() && s.counters.NodesExpanded&63 == 0 && time.Now().After(s.deadline) {
		s.stopReason = decoder.DegradedByDeadline
		return true
	}
	return false
}

// stopErr maps the recorded stop reason to its sentinel error.
func (s *search) stopErr() error {
	if s.stopReason == decoder.DegradedByDeadline {
		return ErrDeadline
	}
	return ErrBudget
}

func (s *search) noteListLen(n int) {
	if int64(n) > s.counters.MaxListLen {
		s.counters.MaxListLen = int64(n)
	}
}

// --- Depth-first (plain and sorted) ----------------------------------------

// runDFS explores the tree with an explicit LIFO stack. With sorted == true
// the children of each expansion are pushed so the lowest-PD child pops
// first — the paper's traversal (Fig. 3's sorted insertion + LIFO pop).
//
// Stack ids ascend from bottom to top, so the popped node is the newest
// record still pending and every record after it belongs to a finished
// subtree: the pop truncates the MST to the node itself.
func (s *search) runDFS(sorted bool) error {
	s.incPath = true
	defer func() { s.incPath = false }()
	stack := s.stack[:0]
	defer func() { s.stack = stack[:0] }()
	stack = append(stack, s.mst.Root())
	for len(stack) > 0 {
		s.noteListLen(len(stack))
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s.mst.Truncate(int(id) + 1)
		// A node enqueued earlier may have lost its sphere membership to a
		// later radius update; re-check before paying for the expansion.
		if s.mst.PD(id) >= s.radiusSq {
			s.counters.ChildrenPruned++ // late prune of a committed node
			if s.rec != nil {
				s.rec.Children(s.mst.Depth(id), 1, 0)
			}
			continue
		}
		if s.budgetExceeded() {
			return s.stopErr()
		}
		s.counters.NodesExpanded++
		if s.rec != nil {
			s.rec.NodeExpanded(s.mst.Depth(id))
		}
		s.evalChildren(id)

		depth := s.mst.Depth(id)
		isLeafLevel := depth == s.m-1
		if sorted {
			s.sortChildren()
		}
		var pruneMark int64
		if s.rec != nil {
			pruneMark = s.counters.ChildrenPruned
		}
		if isLeafLevel {
			for _, c := range s.order {
				pd := s.childPD[c]
				if pd >= s.radiusSq {
					s.counters.ChildrenPruned++
					continue
				}
				s.commitLeaf(id, c, pd)
			}
			if s.rec != nil {
				pruned := int(s.counters.ChildrenPruned - pruneMark)
				s.rec.Children(s.m, pruned, s.p-pruned)
			}
			continue
		}
		// Push surviving children in reverse order so the best (sorted) or
		// first (plain) child is popped next.
		for i := s.p - 1; i >= 0; i-- {
			c := s.order[i]
			pd := s.childPD[c]
			if pd >= s.radiusSq {
				s.counters.ChildrenPruned++
				continue
			}
			stack = append(stack, s.mst.Add(id, c, pd))
		}
		if s.rec != nil {
			pruned := int(s.counters.ChildrenPruned - pruneMark)
			s.rec.Children(depth+1, pruned, s.p-pruned)
		}
	}
	return nil
}

// --- Best-first --------------------------------------------------------------

// pdHeap is a min-heap of MST node ids keyed by partial distance.
type pdHeap struct {
	ids []int32
	mst *MST
}

func (h *pdHeap) Len() int           { return len(h.ids) }
func (h *pdHeap) Less(i, j int) bool { return h.mst.PD(h.ids[i]) < h.mst.PD(h.ids[j]) }
func (h *pdHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *pdHeap) Push(x interface{}) { h.ids = append(h.ids, x.(int32)) }
func (h *pdHeap) Pop() interface{} {
	old := h.ids
	n := len(old)
	x := old[n-1]
	h.ids = old[:n-1]
	return x
}

// runBestFS pops the globally lowest-PD node first. Because PDs only grow
// with depth, the search can terminate as soon as the queue minimum is no
// better than the incumbent radius.
func (s *search) runBestFS() error {
	h := &pdHeap{mst: s.mst}
	heap.Push(h, s.mst.Root())
	for h.Len() > 0 {
		s.noteListLen(h.Len())
		id := heap.Pop(h).(int32)
		if s.mst.PD(id) >= s.radiusSq {
			// Global minimum outside the sphere: nothing left can improve.
			return nil
		}
		if s.budgetExceeded() {
			return s.stopErr()
		}
		s.counters.NodesExpanded++
		depth := s.mst.Depth(id)
		if s.rec != nil {
			s.rec.NodeExpanded(depth)
		}
		s.evalChildren(id)
		var pruneMark int64
		if s.rec != nil {
			pruneMark = s.counters.ChildrenPruned
		}
		if depth == s.m-1 {
			for c := 0; c < s.p; c++ {
				pd := s.childPD[c]
				if pd >= s.radiusSq {
					s.counters.ChildrenPruned++
					continue
				}
				s.commitLeaf(id, c, pd)
			}
			if s.rec != nil {
				pruned := int(s.counters.ChildrenPruned - pruneMark)
				s.rec.Children(s.m, pruned, s.p-pruned)
			}
			continue
		}
		for c := 0; c < s.p; c++ {
			pd := s.childPD[c]
			if pd >= s.radiusSq {
				s.counters.ChildrenPruned++
				continue
			}
			heap.Push(h, s.mst.Add(id, c, pd))
		}
		if s.rec != nil {
			pruned := int(s.counters.ChildrenPruned - pruneMark)
			s.rec.Children(depth+1, pruned, s.p-pruned)
		}
	}
	return nil
}

// --- Breadth-first (the GPU baseline of [1]) --------------------------------

// runBFS expands the whole frontier level by level. Children are pruned
// against the (fixed) radius; radius updates only happen when the final
// level is reached, which is exactly why BFS explores orders of magnitude
// more nodes than the sorted DFS (the effect behind Fig. 11).
//
// With UseGEMM the per-level evaluation is one large batched matrix product
// over the entire frontier — the actual GEMM shape of [1], where the level
// is the unit of device work — so GEMMCalls counts levels, not nodes. The
// scalar path evaluates per node; both produce identical PDs.
func (s *search) runBFS() error {
	frontier := []int32{s.mst.Root()}
	for depth := 0; depth < s.m; depth++ {
		if len(frontier) == 0 {
			return nil // sphere emptied out; caller may retry with larger r
		}
		s.noteListLen(len(frontier))
		isLeafLevel := depth == s.m-1

		var levelPD []float64
		if s.cfg.UseGEMM {
			if s.budgetExceeded() {
				return s.stopErr()
			}
			var err error
			levelPD, err = s.evalFrontierGEMM(frontier, depth)
			if err != nil {
				return err
			}
		}

		var next []int32
		for fi, id := range frontier {
			if s.budgetExceeded() {
				return s.stopErr()
			}
			s.counters.NodesExpanded++
			if s.rec != nil {
				s.rec.NodeExpanded(depth)
			}
			if levelPD != nil {
				copy(s.childPD, levelPD[fi*s.p:(fi+1)*s.p])
			} else {
				s.evalChildren(id)
			}
			var pruneMark int64
			if s.rec != nil {
				pruneMark = s.counters.ChildrenPruned
			}
			if isLeafLevel {
				for c := 0; c < s.p; c++ {
					pd := s.childPD[c]
					if pd >= s.radiusSq {
						s.counters.ChildrenPruned++
						continue
					}
					s.commitLeaf(id, c, pd)
				}
				if s.rec != nil {
					pruned := int(s.counters.ChildrenPruned - pruneMark)
					s.rec.Children(s.m, pruned, s.p-pruned)
				}
				continue
			}
			for c := 0; c < s.p; c++ {
				pd := s.childPD[c]
				if pd >= s.radiusSq {
					s.counters.ChildrenPruned++
					continue
				}
				next = append(next, s.mst.Add(id, c, pd))
			}
			if s.rec != nil {
				pruned := int(s.counters.ChildrenPruned - pruneMark)
				s.rec.Children(depth+1, pruned, s.p-pruned)
			}
		}
		if s.cfg.KBest > 0 && len(next) > s.cfg.KBest {
			// Keep the K lowest-PD nodes (one global sort per level).
			s.counters.SortedBatches++
			sort.Slice(next, func(i, j int) bool {
				s.counters.CompareOps++
				return s.mst.PD(next[i]) < s.mst.PD(next[j])
			})
			if s.rec != nil {
				// Frontier trim: these were reported kept above; the trim
				// re-prunes them (LevelStats.Kept is an upper bound here).
				s.rec.Children(depth+1, len(next)-s.cfg.KBest, 0)
			}
			s.counters.ChildrenPruned += int64(len(next) - s.cfg.KBest)
			next = next[:s.cfg.KBest]
		}
		frontier = next
	}
	return nil
}

// evalFrontierGEMM evaluates all |Ω| children of every frontier node at one
// tree level with a single matrix–matrix product — the level-batched GEMM
// of [1]. The tree-state matrix has one column per (node, child) pair:
// column f·P+c holds [ω_c, path symbols of node f]. Returns the flat PD
// array indexed the same way, with the bookkeeping counters (expansion
// counts excepted — the caller owns those) updated to match evalChildren's
// accounting. The returned slice aliases pooled scratch valid until the
// next level's call.
func (s *search) evalFrontierGEMM(frontier []int32, depth int) ([]float64, error) {
	k := s.m - 1 - depth
	blockH := s.m - k
	batch := len(frontier) * s.p
	state := reshape(&s.gemmState, blockH, batch)
	for fi, id := range frontier {
		if s.cfg.OnExpand != nil {
			s.cfg.OnExpand(depth)
		}
		visited := s.mst.PathSymbols(id, s.m, s.pathBuf)
		s.counters.IrregularLoads += int64(visited)
		base := fi * s.p
		for c := 0; c < s.p; c++ {
			state.Set(0, base+c, s.pts[c])
		}
		for i := k + 1; i < s.m; i++ {
			sym := s.pts[s.pathBuf[i]]
			row := state.Row(i - k)
			for c := 0; c < s.p; c++ {
				row[base+c] = sym
			}
		}
	}
	a := reshape(&s.gemmA, 1, blockH)
	copy(a.Row(0), s.r.Row(k)[k:s.m])
	w := reshape(&s.gemmW, 1, batch)
	cmatrix.GEMM(1, a, state, 0, w)
	if s.cfg.GEMMFault != nil && s.cfg.GEMMFault() {
		w.Data[0] = corruptWord(w.Data[0])
	}
	if s.cfg.VerifyGEMM {
		s.verifyProduct(a, state, w, blockH, batch)
	}
	s.counters.GEMMCalls++
	s.counters.GEMMFlops += cmatrix.FlopsGEMM(1, batch, blockH)
	s.counters.RegularLoads += int64(blockH) * int64(batch+1)
	s.counters.ChildrenGenerated += int64(batch)
	s.counters.EvalDepthSum += int64(blockH) * int64(len(frontier))
	s.counters.OtherFlops += int64(batch) * 6 // NORM module

	yk := s.ybar[k]
	pds := growFloats(s.levelPD, batch)
	s.levelPD = pds
	for fi, id := range frontier {
		parentPD := s.mst.PD(id)
		base := fi * s.p
		for c := 0; c < s.p; c++ {
			diff := yk - w.At(0, base+c)
			pds[base+c] = parentPD + real(diff)*real(diff) + imag(diff)*imag(diff)
		}
	}
	// Natural child order for the caller's pruning loop.
	for c := 0; c < s.p; c++ {
		s.order[c] = c
	}
	return pds, nil
}

// --- Fixed-complexity SD ------------------------------------------------------

// runFSD enumerates all |Ω| symbols at the first tree level and follows a
// single decision-feedback path below each: at every lower level only the
// child with the smallest PD survives. Complexity is fixed at |Ω|·M
// expansions regardless of SNR — the trade the related work [5,9] makes for
// parallel hardware friendliness — and ML optimality is lost.
func (s *search) runFSD() error {
	// First level: all children of the root.
	if s.budgetExceeded() {
		return s.stopErr()
	}
	s.counters.NodesExpanded++
	if s.rec != nil {
		s.rec.NodeExpanded(0)
	}
	s.evalChildren(s.mst.Root())
	if s.rec != nil {
		s.rec.Children(1, 0, s.p) // full enumeration: nothing pruned
	}
	paths := make([]int32, 0, s.p)
	firstPD := append([]float64(nil), s.childPD[:s.p]...)
	for c := 0; c < s.p; c++ {
		paths = append(paths, s.mst.Add(s.mst.Root(), c, firstPD[c]))
	}
	s.noteListLen(len(paths))
	// Decision feedback below: keep only the best child of each path.
	for depth := 1; depth < s.m; depth++ {
		for i, id := range paths {
			if s.budgetExceeded() {
				return s.stopErr()
			}
			s.counters.NodesExpanded++
			if s.rec != nil {
				s.rec.NodeExpanded(depth)
			}
			s.evalChildren(id)
			best, bestPD := 0, math.Inf(1)
			for c := 0; c < s.p; c++ {
				if s.childPD[c] < bestPD {
					best, bestPD = c, s.childPD[c]
				}
			}
			s.counters.ChildrenPruned += int64(s.p - 1)
			if s.rec != nil {
				s.rec.Children(depth+1, s.p-1, 1)
			}
			if depth == s.m-1 {
				s.commitLeaf(id, best, bestPD)
				// FSD accepts the best leaf among its |Ω| candidates even
				// outside the initial sphere, so force-commit if needed.
				if bestPD < s.bestPD {
					s.setIncumbent(s.mst.Add(id, best, bestPD), bestPD)
				}
			} else {
				paths[i] = s.mst.Add(id, best, bestPD)
			}
		}
	}
	return nil
}
