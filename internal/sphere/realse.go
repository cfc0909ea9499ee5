package sphere

import (
	"math"
	"time"

	"repro/internal/cmatrix"
	"repro/internal/decoder"
)

// This file holds the real-valued hot-path decode engine: the RealSE
// strategy runs the sphere search on the 2M-dimensional real embedding of
// the channel (Azzam & Ayanoglu's real-valued decomposition) with
// Schnorr–Euchner zig-zag enumeration. On a PAM axis the children of a node
// sit on a uniform amplitude grid, so the ascending-PD child order is
// analytic: start at the level nearest the unconstrained solution and walk
// outward. No per-node sort runs (CompareOps stays 0 — the paper's phase-3
// hardware sorter is deleted from the datapath), and the first candidate
// whose PD leaves the sphere proves every remaining sibling out too.
//
// The engine reuses the pooled search state, the MST arena, the anytime
// budget/deadline contract, and the trace recorder of the complex-valued
// strategies; only the per-node expansion differs.

// acquireRealSearch checks a search out of the pool, sized for the real
// reduced system: tree height rp.Dim (= 2M), branching len(pam).
func acquireRealSearch(cfg *Config, rp *RealPre, pam []float64, lim Limits) *search {
	s := searchPool.Get().(*search)
	dim := rp.Dim
	s.cfg, s.m, s.p = cfg, dim, len(pam)
	s.r, s.ybar, s.pts = nil, nil, nil
	s.pam = pam
	s.rr = rp.R
	s.setLimits(cfg, lim)
	if s.mst == nil {
		s.mst = NewMST(dim)
	}
	s.pathBuf = growInts(s.pathBuf, dim)
	s.bestPath = growInts(s.bestPath, dim)
	s.pathIDs = growInt32s(s.pathIDs, dim)
	s.childPD = growFloats(s.childPD, s.p)
	s.order = growInts(s.order, s.p)
	s.incPath = false
	return s
}

// computeRealYbar rotates y with the handle's reflectors (computeYbar, the
// one per-frame rotation of both engines) and interleaves the result into
// the real ordering (Re ȳ_j, Im ȳ_j per antenna) — which IS ȳr = Qrᵀ·yr for
// the interleaved real factorization (see RealPre). Pooled buffers only.
func (s *search) computeRealYbar(pre *Preprocessed, y cmatrix.Vector) []float64 {
	ybar := s.computeYbar(pre, y)
	s.rybarBuf = growFloats(s.rybarBuf, 2*len(ybar))
	for k, v := range ybar {
		s.rybarBuf[2*k], s.rybarBuf[2*k+1] = real(v), imag(v)
	}
	s.rybar = s.rybarBuf
	return s.rybar
}

// nearestPAM returns the index of the ascending-ordered PAM level nearest to
// z. The grid is uniform with spacing step, so this is O(1) rounding.
// Floor(x+0.5) instead of math.Round: Floor compiles to a single ROUNDSD on
// amd64 while Round does not, and the two differ only on exact half-ties
// between two equidistant levels, where either index is a nearest level.
func nearestPAM(z float64, pam []float64, step float64) int {
	c := int(math.Floor((z-pam[0])/step + 0.5))
	if c < 0 {
		return 0
	}
	if c > len(pam)-1 {
		return len(pam) - 1
	}
	return c
}

// runRealSE is the Schnorr–Euchner depth-first traversal of the real tree.
// Node expansion at depth d decides real coordinate k = dim−1−d. Children
// are emitted in ascending-PD order by two-pointer zig-zag around the
// nearest PAM level, so the first child at or beyond the radius prunes the
// whole remainder of the sibling batch — the analytic replacement for
// sortChildren, with zero comparator (CompareOps) work.
//
// Counter conventions match the sorted-DFS engine: every expansion generates
// the full |PAM| child batch (skipped siblings count as pruned, so
// pruned+kept == branching per expansion and the trace invariants hold
// unchanged), and the ascending order means at most one leaf commits per
// leaf-level expansion. Like runDFS, each pop truncates the MST to the
// popped node, so the arena holds at most 1 + dim·|PAM| records.
func (s *search) runRealSE() error {
	s.incPath = true
	defer func() { s.incPath = false }()
	stack := s.stack[:0]
	defer func() { s.stack = stack[:0] }()

	linf := s.cfg.Norm == NormLInf
	dim := s.m
	l := s.p
	pam := s.pam
	step := pam[1] - pam[0]

	stack = append(stack, s.mst.Root())
	for len(stack) > 0 {
		s.noteListLen(len(stack))
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s.mst.Truncate(int(id) + 1)
		// A node enqueued earlier may have lost its sphere membership to a
		// later radius update; re-check before paying for the expansion.
		// Valid under both norms: PDs are monotone non-decreasing down the
		// tree (sum of squares, or running max).
		if s.mst.PD(id) >= s.radiusSq {
			s.counters.ChildrenPruned++
			if s.rec != nil {
				s.rec.Children(s.mst.Depth(id), 1, 0)
			}
			continue
		}
		if s.budgetExceeded() {
			return s.stopErr()
		}
		s.counters.NodesExpanded++
		depth := s.mst.Depth(id)
		if s.rec != nil {
			s.rec.NodeExpanded(depth)
		}
		if s.cfg.OnExpand != nil {
			s.cfg.OnExpand(depth)
		}
		k := dim - 1 - depth
		s.updatePath(id, depth)

		row := s.rr[k*dim : (k+1)*dim]
		// Two accumulators keep the path inner product off the FMA latency
		// chain (it runs every expansion, length up to dim−1).
		var in0, in1 float64
		path := s.pathBuf
		i := k + 1
		for ; i+2 <= dim; i += 2 {
			in0 += row[i] * pam[path[i]]
			in1 += row[i+1] * pam[path[i+1]]
		}
		for ; i < dim; i++ {
			in0 += row[i] * pam[path[i]]
		}
		target := s.rybar[k] - (in0 + in1)
		rkk := row[k] // > 0: QRReal normalizes the diagonal positive
		parentPD := s.mst.PD(id)
		// Grid coordinate of the unconstrained solution; the nearest level
		// and the zig-zag both come from it.
		zg := (target/rkk - pam[0]) / step
		c0 := nearestPAM(target/rkk, pam, step)

		s.counters.ChildrenGenerated += int64(l)
		s.counters.EvalDepthSum += int64(dim - k)
		s.counters.RegularLoads += int64(dim - k)

		isLeafLevel := depth == dim-1
		lo, hi := c0-1, c0+1
		c := c0
		kept, evaluated := 0, 0
		for {
			evaluated++
			diff := target - rkk*pam[c]
			pd := diff * diff
			if linf {
				if parentPD > pd {
					pd = parentPD
				}
			} else {
				pd += parentPD
			}
			if pd >= s.radiusSq {
				// Ascending order: every remaining sibling is at least as
				// far out. Prune the whole tail of the batch.
				break
			}
			if isLeafLevel {
				s.commitLeaf(id, c, pd)
				kept++
				// commitLeaf shrank the radius to pd, so the next sibling
				// (pd' ≥ pd) cannot pass; still loop once more so the break
				// above tallies the tail as pruned.
			} else {
				// Buffer survivors in ascending order; pushed in reverse
				// below so the best child pops first.
				s.order[kept] = c
				s.childPD[kept] = pd
				kept++
			}
			if evaluated == l {
				break
			}
			// Zig-zag to the next-nearest untried level.
			switch {
			case lo < 0:
				c, hi = hi, hi+1
			case hi > l-1:
				c, lo = lo, lo-1
			case zg-float64(lo) <= float64(hi)-zg:
				c, lo = lo, lo-1
			default:
				c, hi = hi, hi+1
			}
		}
		s.counters.ChildrenPruned += int64(l - kept)
		// Cost model: path inner product, the division, and ~4 flops per
		// evaluated candidate (multiply, subtract, square, accumulate/max).
		s.counters.OtherFlops += 2*int64(dim-1-k) + 2 + 4*int64(evaluated)
		if s.rec != nil {
			s.rec.Children(depth+1, l-kept, kept)
		}
		if isLeafLevel {
			continue
		}
		for i := kept - 1; i >= 0; i-- {
			stack = append(stack, s.mst.Add(id, s.order[i], s.childPD[i]))
		}
	}
	return nil
}

// decodePreReal is the RealSE twin of decodePre: same retry loop, anytime
// contract, and result assembly, over the real reduced system. The metric
// semantics differ by norm: under NormL2 the reduced metric plus the
// rotation offset equals the complex-domain ‖y − Hs‖² (the embedding is an
// isometry), while under NormLInf the metric is the reduced-domain max —
// an ℓ∞ ball does not survive the orthogonal rotation, so no offset exists.
func (d *SD) decodePreReal(pre *Preprocessed, y cmatrix.Vector, noiseVar float64, qrFlops int64, lim Limits, wantInfo bool, res *decoder.Result, start time.Time) (*SearchInfo, error) {
	rp := pre.Real()
	var deadline time.Time
	if d.cfg.Deadline > 0 {
		deadline = start.Add(d.cfg.Deadline)
	}
	st := acquireRealSearch(&d.cfg, rp, d.pam, lim)
	rybar := st.computeRealYbar(pre, y)
	// ‖y − Hs‖² = ‖ȳr − Rr·sr‖² + offset; offset = ‖yr‖² − ‖ȳr‖² ≥ 0, and
	// ‖yr‖² = ‖y‖² (the embedding is an isometry).
	var offset float64
	if d.cfg.Norm == NormL2 {
		var yn, bn float64
		for _, v := range y {
			yn += real(v)*real(v) + imag(v)*imag(v)
		}
		for _, v := range rybar {
			bn += v * v
		}
		offset = yn - bn
		if offset < 0 { // numerical guard
			offset = 0
		}
	}

	n, m := int64(pre.N), int64(pre.M)
	dim := rp.Dim
	preFlops := qrFlops + 8*n*m + 4*(n+m)
	if qrFlops > 0 {
		// The caller wants this decode to pay for preprocessing: charge the
		// real factorization alongside the complex one (both live on the
		// shared handle and amortize identically across a coherence block).
		preFlops += rp.Flops
	}

	radius := d.initialRadiusReal(pre.N, dim, noiseVar)
	if d.cfg.BabaiRadius && d.cfg.InitialRadiusSq == 0 {
		radius = babaiRadiusSqReal(rp.R, dim, rybar, d.pam, d.cfg.Norm)
		preFlops += 8 * int64(dim) * int64(dim)
	}
	var info *SearchInfo
	if wantInfo {
		info = &SearchInfo{PreprocessFlops: preFlops}
	}

	retries, truncated, err := st.runAttempts(radius, deadline, preFlops, 4*n*m)
	if err != nil {
		st.release()
		return nil, err
	}

	mInt := pre.M
	res.Counters = st.counters
	res.Quality = decoder.QualityExact
	res.DegradedBy = ""
	res.Elapsed = 0
	if d.cfg.Deadline > 0 {
		res.Elapsed = time.Since(start)
	}
	realPath := st.bestPath // len dim: the incumbent's PAM decisions
	pd := st.bestPD
	if truncated {
		res.Quality = decoder.QualityBestEffort
		res.DegradedBy = st.stopReason
		// Emergency decision under the active norm: the better of the real
		// Babai point and the sliced real ZF solution — metric never worse
		// than plain ZF in that norm.
		fbPath, fbPD, fbFlops := fallbackPointReal(rp.R, dim, rybar, d.pam, d.cfg.Norm)
		res.Counters.OtherFlops += fbFlops
		if !st.haveBest || st.bestPD > fbPD {
			copy(realPath, fbPath)
			pd = fbPD
			res.Quality = decoder.QualityFallback
		}
	}

	// Map the 2M PAM decisions back onto constellation indices: interleaved
	// ordering, so coordinate 2j is the I amplitude of antenna j and
	// coordinate 2j+1 its Q amplitude.
	idx := growInts(res.SymbolIdx, mInt)
	syms := res.Symbols
	if cap(syms) < mInt {
		syms = make(cmatrix.Vector, mInt)
	}
	syms = syms[:mInt]
	for j := 0; j < mInt; j++ {
		id := d.pamLabels[realPath[2*j]]<<d.axisBits | d.pamLabels[realPath[2*j+1]]
		idx[j] = id
		syms[j] = d.cfg.Const.Symbol(id)
	}
	res.SymbolIdx = idx
	res.Symbols = syms
	if d.cfg.Norm == NormLInf {
		res.Metric = pd
	} else {
		res.Metric = pd + offset
	}

	if st.rec != nil {
		if res.DegradedBy != "" {
			st.rec.Degraded(res.DegradedBy)
		}
		st.rec.SearchEnd(st.radiusSq, retries)
	}

	if wantInfo {
		info.MST = st.mst
		info.FinalRadiusSq = st.radiusSq
		info.Retries = retries
		info.trajectory = append([]float64(nil), st.radii...)
		st.mst = nil // detached: the caller owns the table now
	}
	st.release()
	return info, nil
}

// decodeFallbackPreReal is the RealSE branch of DecodeFallbackPre: the
// linear emergency decision in the real domain, under the configured norm.
func (d *SD) decodeFallbackPreReal(pre *Preprocessed, y cmatrix.Vector, qrFlops int64) (*decoder.Result, error) {
	rp := pre.Real()
	// Rotate into a pooled search's buffers, as decodePreReal does.
	st := searchPool.Get().(*search)
	defer st.release()
	rybar := st.computeRealYbar(pre, y)
	var offset float64
	if d.cfg.Norm == NormL2 {
		var yn, bn float64
		for _, v := range y {
			yn += real(v)*real(v) + imag(v)*imag(v)
		}
		for _, v := range rybar {
			bn += v * v
		}
		offset = yn - bn
		if offset < 0 {
			offset = 0
		}
	}
	path, pd, fbFlops := fallbackPointReal(rp.R, rp.Dim, rybar, d.pam, d.cfg.Norm)
	mInt := pre.M
	idx := make([]int, mInt)
	syms := make(cmatrix.Vector, mInt)
	for j := 0; j < mInt; j++ {
		idx[j] = d.pamLabels[path[2*j]]<<d.axisBits | d.pamLabels[path[2*j+1]]
		syms[j] = d.cfg.Const.Symbol(idx[j])
	}
	n, m := int64(pre.N), int64(pre.M)
	var counters decoder.Counters
	counters.OtherFlops = qrFlops + 8*n*m + fbFlops
	if qrFlops > 0 {
		counters.OtherFlops += rp.Flops
	}
	counters.RegularLoads = 4 * n * m
	metric := pd
	if d.cfg.Norm == NormL2 {
		metric = pd + offset
	}
	return &decoder.Result{
		SymbolIdx:  idx,
		Symbols:    syms,
		Metric:     metric,
		Counters:   counters,
		Quality:    decoder.QualityFallback,
		DegradedBy: decoder.DegradedByBatchDeadline,
	}, nil
}

// initialRadiusReal picks the starting r² for the real search. Unlike the
// complex depth-first strategies, the ℓ² search starts from the noise-scaled
// sphere RadiusScale·N·σ² even without AutoRadius: an empty sphere retries
// with a doubled radius, so the start only bounds the early excursions a
// +Inf sphere pays for before its first leaf. The ℓ∞ search keeps +Inf
// unless AutoRadius is set; its automatic radius covers the expected
// maximum of the 2M squared real noise components (each N(0, σ²/2))
// instead of their sum: E[max] ≈ σ²·ln(2M), scaled by RadiusScale.
func (d *SD) initialRadiusReal(nRx, dim int, noiseVar float64) float64 {
	if d.cfg.InitialRadiusSq > 0 {
		return d.cfg.InitialRadiusSq
	}
	if d.cfg.BabaiRadius {
		// Resolved in decodePreReal once the factors and ȳr exist.
		return math.Inf(1)
	}
	if d.cfg.AutoRadius || d.cfg.Norm == NormL2 {
		var r float64
		if d.cfg.Norm == NormLInf {
			r = d.cfg.RadiusScale * noiseVar * math.Log(float64(dim))
		} else {
			r = d.cfg.RadiusScale * float64(nRx) * noiseVar
		}
		if r <= 0 {
			r = 1e-6
		}
		return r
	}
	return math.Inf(1)
}

// babaiRealPoint computes the real-domain Babai decision-feedback point —
// successive back-substitution with per-coordinate slicing to the nearest
// PAM level — returning the per-coordinate PAM indices and the
// reduced-domain metric under the given norm.
func babaiRealPoint(rr []float64, dim int, rybar, pam []float64, norm Norm) ([]int, float64) {
	path := make([]int, dim)
	vals := make([]float64, dim)
	step := pam[1] - pam[0]
	pd := 0.0
	for k := dim - 1; k >= 0; k-- {
		row := rr[k*dim : (k+1)*dim]
		inner := rybar[k]
		for i := k + 1; i < dim; i++ {
			inner -= row[i] * vals[i]
		}
		rkk := row[k]
		var z float64
		if rkk != 0 {
			z = inner / rkk
		}
		c := nearestPAM(z, pam, step)
		path[k] = c
		vals[k] = pam[c]
		diff := inner - rkk*vals[k]
		if norm == NormLInf {
			if diff*diff > pd {
				pd = diff * diff
			}
		} else {
			pd += diff * diff
		}
	}
	return path, pd
}

// zfRealPoint computes the sliced real zero-forcing decision — solve
// Rr·z = ȳr, slice each coordinate independently — returning PAM indices
// and the reduced-domain metric under the given norm. Returns pd = +Inf on
// a zero pivot so callers taking a min simply prefer the Babai point.
func zfRealPoint(rr []float64, dim int, rybar, pam []float64, norm Norm) ([]int, float64) {
	x := make([]float64, dim)
	if err := cmatrix.BackSubstituteReal(rr, dim, rybar[:dim], x); err != nil {
		return nil, math.Inf(1)
	}
	path := make([]int, dim)
	vals := make([]float64, dim)
	step := pam[1] - pam[0]
	for i, v := range x {
		path[i] = nearestPAM(v, pam, step)
		vals[i] = pam[path[i]]
	}
	pd := 0.0
	for k := 0; k < dim; k++ {
		row := rr[k*dim : (k+1)*dim]
		diff := rybar[k]
		for i := k; i < dim; i++ {
			diff -= row[i] * vals[i]
		}
		if norm == NormLInf {
			if diff*diff > pd {
				pd = diff * diff
			}
		} else {
			pd += diff * diff
		}
	}
	return path, pd
}

// fallbackPointReal is the real-domain emergency decision: the better of
// the Babai point and the sliced ZF solution under the active norm. The ZF
// decision is one of the two candidates, so the returned metric is never
// worse than plain zero-forcing in that norm — the same floor the complex
// fallback guarantees.
func fallbackPointReal(rr []float64, dim int, rybar, pam []float64, norm Norm) ([]int, float64, int64) {
	bPath, bPD := babaiRealPoint(rr, dim, rybar, pam, norm)
	zPath, zPD := zfRealPoint(rr, dim, rybar, pam, norm)
	d := int64(dim)
	flops := 24 * d * d // Babai sweep + ZF back-substitution + metric pass
	if zPD < bPD {
		return zPath, zPD, flops
	}
	return bPath, bPD, flops
}

// babaiRadiusSqReal is babaiRadiusSq in the real domain: the Babai point's
// metric, slightly inflated, bounds a sphere that provably contains at
// least one leaf, so the search can never come up empty.
func babaiRadiusSqReal(rr []float64, dim int, rybar, pam []float64, norm Norm) float64 {
	_, pd := babaiRealPoint(rr, dim, rybar, pam, norm)
	radius := pd * (1 + 1e-9)
	if radius <= 0 {
		radius = 1e-12
	}
	return radius
}
