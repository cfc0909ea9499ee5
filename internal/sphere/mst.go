package sphere

import "fmt"

// mstNode is one record in the Meta State Table: the decoded symbol this
// node contributes, its depth in the tree, a link to its parent, and its
// partial Euclidean distance. The paper's MST (Section III-C3, Fig. 5)
// exists to replace dynamic pointer-based tree storage with a flat,
// partitioned table; this is the software twin of that structure, and the
// FPGA model charges its URAM capacity against exactly these records.
type mstNode struct {
	parent int32   // index of the parent record, -1 for the root
	symbol int16   // constellation index decided at this node
	depth  int16   // number of decided symbols along the path (root = 0)
	pd     float64 // partial Euclidean distance ‖ȳ_k… − R·s‖² so far
}

// MST is the Meta State Table: an arena of tree-node records. Node identity
// is the record index, which makes parent links plain integers (single-cycle
// BRAM/URAM reads on the FPGA) instead of pointers.
//
// A strict-LIFO depth-first search (SortedDFS, PlainDFS, RealSE) calls
// Truncate on every pop; the other searches only append. Every record
// appended after the popped node belongs to a finished subtree, so the
// arena never holds more than 1 + height·branching records — the software
// twin of Fig. 5's fixed-capacity, level-partitioned table. Ids are reused
// after a truncation.
type MST struct {
	nodes []mstNode
	// perDepth counts the records ever created at each depth, truncated ones
	// included, for diagnostics and URAM sizing.
	perDepth []int64
}

// NewMST creates a table for a tree of m levels and inserts the root.
func NewMST(m int) *MST {
	t := &MST{nodes: make([]mstNode, 0, 1024)}
	t.Reset(m)
	return t
}

// Reset clears the table for a tree of m levels, keeping the record arena's
// capacity so a pooled search reuses it allocation-free, and re-inserts the
// root. This is the software twin of re-initializing the FPGA's partitioned
// MST memory between frames without re-synthesizing it.
func (t *MST) Reset(m int) {
	t.nodes = t.nodes[:0]
	if cap(t.perDepth) < m+1 {
		t.perDepth = make([]int64, m+1)
	}
	t.perDepth = t.perDepth[:m+1]
	for i := range t.perDepth {
		t.perDepth[i] = 0
	}
	t.nodes = append(t.nodes, mstNode{parent: -1, symbol: -1, depth: 0, pd: 0})
	t.perDepth[0] = 1
}

// Truncate drops every record with id ≥ n (1 ≤ n ≤ Len, so the root
// survives). The per-depth population counts are cumulative and keep the
// dropped records.
func (t *MST) Truncate(n int) { t.nodes = t.nodes[:n] }

// Root returns the root node id.
func (t *MST) Root() int32 { return 0 }

// Len returns the number of records in the table.
func (t *MST) Len() int { return len(t.nodes) }

// Add appends a child record and returns its id.
func (t *MST) Add(parent int32, symbol int, pd float64) int32 {
	p := t.nodes[parent]
	d := p.depth + 1
	if int(d) >= len(t.perDepth) {
		panic(fmt.Sprintf("sphere: MST depth %d exceeds tree height %d", d, len(t.perDepth)-1))
	}
	t.nodes = append(t.nodes, mstNode{parent: parent, symbol: int16(symbol), depth: d, pd: pd})
	t.perDepth[d]++
	return int32(len(t.nodes) - 1)
}

// PD returns the partial distance of node id.
func (t *MST) PD(id int32) float64 { return t.nodes[id].pd }

// Depth returns the depth of node id.
func (t *MST) Depth(id int32) int { return int(t.nodes[id].depth) }

// Symbol returns the constellation index decided at node id (-1 for root).
func (t *MST) Symbol(id int32) int { return int(t.nodes[id].symbol) }

// Parent returns the parent id of node id (-1 for root).
func (t *MST) Parent(id int32) int32 { return t.nodes[id].parent }

// PathSymbols writes the symbol indices decided along the path from the
// root to node id into dst, which is indexed by transmit antenna: a node at
// depth d decided antenna m−d, so a full leaf path fills dst[0..m-1].
// Antennas not yet decided are left untouched. It returns the number of
// records visited (the irregular pointer-walk the pre-fetch unit must
// gather).
func (t *MST) PathSymbols(id int32, m int, dst []int) int {
	visited := 0
	for n := t.nodes[id]; n.depth > 0; n = t.nodes[n.parent] {
		dst[m-int(n.depth)] = int(n.symbol)
		visited++
	}
	return visited
}

// DepthPopulation returns the number of records created at each depth,
// root included, counting records a truncation has since dropped: the
// per-level occupancy of Fig. 5's level-partitioned database. sdtrace
// prints it per traced frame; the FPGA resource model does not read it.
func (t *MST) DepthPopulation() []int64 {
	out := make([]int64, len(t.perDepth))
	copy(out, t.perDepth)
	return out
}

// Validate checks structural invariants of the table: parents precede
// children, depths increment by one, and PDs are monotonically
// non-decreasing along every edge (adding a non-negative squared term).
// It is used by tests and returns a descriptive error on violation.
func (t *MST) Validate() error {
	for i, n := range t.nodes {
		if i == 0 {
			if n.parent != -1 || n.depth != 0 {
				return fmt.Errorf("sphere: malformed MST root: %+v", n)
			}
			continue
		}
		if n.parent < 0 || int(n.parent) >= i {
			return fmt.Errorf("sphere: MST node %d has parent %d (must precede it)", i, n.parent)
		}
		p := t.nodes[n.parent]
		if n.depth != p.depth+1 {
			return fmt.Errorf("sphere: MST node %d depth %d, parent depth %d", i, n.depth, p.depth)
		}
		if n.pd < p.pd-1e-12 {
			return fmt.Errorf("sphere: MST node %d PD %v below parent PD %v", i, n.pd, p.pd)
		}
	}
	return nil
}
