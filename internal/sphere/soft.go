package sphere

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cmatrix"
	"repro/internal/decoder"
)

// SoftDecoder is a list sphere decoder producing max-log bit LLRs — the
// soft output a channel decoder (LDPC/turbo) consumes. The paper's design
// is hard-output; this is the standard library extension of the same
// search: instead of keeping only the best leaf, the depth-first search
// keeps the ListSize best leaves (the sphere radius tracks the worst
// retained candidate), and each bit's log-likelihood ratio is the metric
// gap between the best candidate with that bit 0 and the best with it 1.
//
// The hard decision embedded in SoftResult is still exactly ML: the best
// leaf of the list search equals the best leaf of the plain search, because
// the list radius is never tighter than the incumbent-best radius.
type SoftDecoder struct {
	cfg Config
	// ListSize is the number of candidate leaves retained (≥ 1).
	ListSize int
	// LLRClamp bounds |LLR| when a bit value never appears in the list.
	LLRClamp float64
}

// NewSoft builds a soft-output decoder. Only the depth-first strategies are
// supported (they reach leaves fast enough to fill the list).
func NewSoft(cfg Config, listSize int) (*SoftDecoder, error) {
	if cfg.Strategy != SortedDFS && cfg.Strategy != PlainDFS {
		return nil, fmt.Errorf("sphere: soft output requires a DFS strategy, got %v", cfg.Strategy)
	}
	if listSize < 1 {
		return nil, fmt.Errorf("sphere: list size %d < 1", listSize)
	}
	if _, err := New(cfg); err != nil {
		return nil, err
	}
	if cfg.RadiusScale == 0 {
		cfg.RadiusScale = 2
	}
	if cfg.MaxNodes == 0 {
		cfg.MaxNodes = 50_000_000
	}
	return &SoftDecoder{cfg: cfg, ListSize: listSize, LLRClamp: 50}, nil
}

// Name implements decoder.Decoder-style naming.
func (d *SoftDecoder) Name() string {
	return fmt.Sprintf("%s-list%d", d.cfg.Strategy, d.ListSize)
}

// SoftResult is a hard decision plus per-bit soft information.
type SoftResult struct {
	decoder.Result
	// LLR holds one value per transmitted bit, antenna-major MSB-first
	// (antenna 0 bits first). Positive means bit 0 is more likely, the
	// log P(b=0|y)/P(b=1|y) convention.
	LLR []float64
	// Candidates is the number of distinct leaves that informed the LLRs.
	Candidates int
}

// candidateHeap is a max-heap of retained leaves keyed by PD, so the worst
// candidate is evicted first.
type candidateHeap struct {
	ids []int32
	mst *MST
}

func (h *candidateHeap) Len() int           { return len(h.ids) }
func (h *candidateHeap) Less(i, j int) bool { return h.mst.PD(h.ids[i]) > h.mst.PD(h.ids[j]) }
func (h *candidateHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *candidateHeap) Push(x interface{}) { h.ids = append(h.ids, x.(int32)) }
func (h *candidateHeap) Pop() interface{} {
	old := h.ids
	n := len(old)
	x := old[n-1]
	h.ids = old[:n-1]
	return x
}

// DecodeSoft detects the vector and computes max-log LLRs.
func (d *SoftDecoder) DecodeSoft(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) (*SoftResult, error) {
	if err := decoder.CheckDims(h, y); err != nil {
		return nil, err
	}
	pre, err := Preprocess(h)
	if err != nil {
		return nil, fmt.Errorf("sphere: preprocessing failed: %w", err)
	}
	return d.DecodeSoftPre(pre, y, noiseVar)
}

// DecodeSoftPre is DecodeSoft against a precomputed channel factorization,
// so a batch under one coherence block factors H once for all its frames.
func (d *SoftDecoder) DecodeSoftPre(pre *Preprocessed, y cmatrix.Vector, noiseVar float64) (*SoftResult, error) {
	if err := pre.CheckY(y); err != nil {
		return nil, err
	}
	if noiseVar <= 0 || math.IsNaN(noiseVar) {
		return nil, fmt.Errorf("sphere: soft output needs a positive noise variance, got %v", noiseVar)
	}
	r := pre.complexR()
	start := time.Now()
	st := acquireSearch(&d.cfg, r, Limits{})
	defer st.release()
	if d.cfg.VerifyGEMM {
		st.rowMass = pre.RowMass()
	}
	ybar := st.computeYbar(pre, y)
	offset := cmatrix.Norm2Sq(y) - cmatrix.Norm2Sq(ybar)
	if offset < 0 {
		offset = 0
	}
	m := pre.M

	var deadline time.Time
	if d.cfg.Deadline > 0 {
		deadline = start.Add(d.cfg.Deadline)
	}
	st.beginAttempt(math.Inf(1), deadline)
	cands := &candidateHeap{mst: st.mst}
	truncated := false
	if err := st.runListDFS(cands, d.ListSize); err != nil {
		if (errors.Is(err, ErrBudget) || errors.Is(err, ErrDeadline)) && !d.cfg.HardBudget {
			truncated = true
		} else {
			return nil, err
		}
	}
	if st.rec != nil {
		if truncated {
			st.rec.Degraded(st.stopReason)
		}
		st.rec.SearchEnd(st.radiusSq, 0)
	}

	cons := d.cfg.Const
	bps := cons.BitsPerSymbol()
	nBits := m * bps

	if cands.Len() == 0 {
		if !truncated {
			return nil, fmt.Errorf("%w (soft)", ErrNoLeaf)
		}
		// Truncated before any leaf: hard fallback decision with saturated
		// LLRs in the direction of the fallback bits — flagged so a channel
		// decoder can deweight or discard the frame.
		fbIdx, fbPD, fbFlops := fallbackPoint(r, ybar, cons)
		st.counters.OtherFlops += fbFlops
		syms := make(cmatrix.Vector, m)
		llr := make([]float64, nBits)
		bitBuf := make([]int, bps)
		for a, id := range fbIdx {
			syms[a] = cons.Symbol(id)
			cons.BitsOf(id, bitBuf)
			for b, bit := range bitBuf {
				if bit == 0 {
					llr[a*bps+b] = d.LLRClamp
				} else {
					llr[a*bps+b] = -d.LLRClamp
				}
			}
		}
		res := decoder.Result{
			SymbolIdx:  fbIdx,
			Symbols:    syms,
			Metric:     fbPD + offset,
			Counters:   st.counters,
			Quality:    decoder.QualityFallback,
			DegradedBy: st.stopReason,
		}
		if d.cfg.Deadline > 0 {
			res.Elapsed = time.Since(start)
		}
		return &SoftResult{Result: res, LLR: llr, Candidates: 0}, nil
	}

	// Best metric per bit value, initialized empty.
	best0 := make([]float64, nBits)
	best1 := make([]float64, nBits)
	for i := range best0 {
		best0[i] = math.Inf(1)
		best1[i] = math.Inf(1)
	}
	bestPD := math.Inf(1)
	var bestID int32 = -1
	path := make([]int, m)
	bitBuf := make([]int, bps)
	for _, id := range cands.ids {
		pd := st.mst.PD(id)
		if pd < bestPD {
			bestPD = pd
			bestID = id
		}
		st.mst.PathSymbols(id, m, path)
		for a := 0; a < m; a++ {
			cons.BitsOf(path[a], bitBuf)
			for b, bit := range bitBuf {
				k := a*bps + b
				if bit == 0 {
					if pd < best0[k] {
						best0[k] = pd
					}
				} else if pd < best1[k] {
					best1[k] = pd
				}
			}
		}
	}

	llr := make([]float64, nBits)
	for k := range llr {
		switch {
		case math.IsInf(best0[k], 1):
			llr[k] = -d.LLRClamp
		case math.IsInf(best1[k], 1):
			llr[k] = d.LLRClamp
		default:
			// max-log: LLR = (m(b=1) − m(b=0)) / σ²; the ‖y‖² offset
			// cancels in the difference.
			v := (best1[k] - best0[k]) / noiseVar
			if v > d.LLRClamp {
				v = d.LLRClamp
			}
			if v < -d.LLRClamp {
				v = -d.LLRClamp
			}
			llr[k] = v
		}
	}

	idx := make([]int, m)
	st.mst.PathSymbols(bestID, m, idx)
	syms := make(cmatrix.Vector, m)
	for i, id := range idx {
		syms[i] = cons.Symbol(id)
	}
	res := decoder.Result{
		SymbolIdx: idx,
		Symbols:   syms,
		Metric:    bestPD + offset,
		Counters:  st.counters,
	}
	if truncated {
		res.Quality = decoder.QualityBestEffort
		res.DegradedBy = st.stopReason
	}
	if d.cfg.Deadline > 0 {
		res.Elapsed = time.Since(start)
	}
	return &SoftResult{
		Result:     res,
		LLR:        llr,
		Candidates: cands.Len(),
	}, nil
}

// runListDFS is the list variant of runDFS: leaves accumulate in cands (a
// bounded max-heap) and the pruning radius tracks the worst retained
// candidate once the list is full.
func (s *search) runListDFS(cands *candidateHeap, listSize int) error {
	sorted := s.cfg.Strategy == SortedDFS
	// Strict LIFO traversal: the incremental DFS-path maintenance applies
	// (see updatePath).
	s.incPath = true
	defer func() { s.incPath = false }()
	stack := s.stack[:0]
	defer func() { s.stack = stack[:0] }()
	stack = append(stack, s.mst.Root())
	for len(stack) > 0 {
		s.noteListLen(len(stack))
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
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
		if s.rec != nil {
			s.rec.NodeExpanded(s.mst.Depth(id))
		}
		s.evalChildren(id)
		depth := s.mst.Depth(id)
		if sorted {
			s.sortChildren()
		}
		var pruneMark int64
		if s.rec != nil {
			pruneMark = s.counters.ChildrenPruned
		}
		if depth == s.m-1 {
			for _, c := range s.order {
				pd := s.childPD[c]
				s.counters.LeavesReached++
				if pd >= s.radiusSq {
					s.counters.ChildrenPruned++
					continue
				}
				heap.Push(cands, s.mst.Add(id, c, pd))
				if cands.Len() > listSize {
					heap.Pop(cands)
				}
				if cands.Len() == listSize {
					// Radius now guards the list's worst member.
					s.radiusSq = s.mst.PD(cands.ids[0])
					s.counters.RadiusUpdates++
					if s.rec != nil {
						s.rec.RadiusUpdate(s.radiusSq)
					}
				}
			}
			if s.rec != nil {
				pruned := int(s.counters.ChildrenPruned - pruneMark)
				s.rec.Children(s.m, pruned, s.p-pruned)
			}
			continue
		}
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
