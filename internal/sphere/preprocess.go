package sphere

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cmatrix"
	"repro/internal/decoder"
)

// Preprocessed is a channel handle: the QR factors of one channel matrix H,
// computed once and reused across every received vector observed under that
// channel. It is the software analogue of the paper's pre-fetching /
// double-buffering unit, which keeps the factored channel resident next to
// the pipeline so per-frame work starts at the ȳ = Qᴴy rotation instead of
// the O(N·M²) factorization.
//
// The handle stores what the decoders read and nothing else (see factor):
// the Householder reflectors and diagonal phases that rotate y, and R in the
// interleaved real layout RealSE searches. The complex R the complex-valued
// engines read is derived from it on first use.
//
// The handle keeps a reference to H (it does not copy it); callers must not
// mutate a channel matrix after preprocessing it. A Preprocessed value is
// immutable after construction and safe for concurrent use; a handle from
// PreprocessCache.Get stays so until it is released.
type Preprocessed struct {
	// H is the factored channel (N×M).
	H *cmatrix.Matrix
	// N and M are the receive/transmit dimensions of H.
	N, M int
	// Flops is the factorization cost (32·N·M² real operations), charged
	// into a decode trace once per distinct channel — by the single-frame
	// wrappers on every call, and by the batch scheduler only on the first
	// frame that uses the handle.
	Flops int64

	// refl is the reflector block, N·M + 2M words. Column k of the
	// factorization is refl[k·N : (k+1)·N]; its rows k..N−1 hold the
	// Householder vector v_k of P_k = I − τ_k·v_k·v_kᴴ (rows above k are
	// scratch). Then come the M conjugate diagonal phases and the M τ_k
	// (real, stored as complex).
	refl []complex128
	// rp is the interleaved real factor the kernel writes; Real returns it.
	rp RealPre

	// checksum is the content checksum over the canonical storage (rp.R and
	// refl), computed at construction and re-verified on every
	// PreprocessCache hit. The storage is immutable by contract, so any
	// mismatch — a bit flip in whatever memory holds the cached
	// factorization — is silent data corruption, and the cache evicts and
	// refactors rather than let one poisoned entry corrupt every frame
	// sharing the channel fingerprint.
	checksum uint64

	// cplx publishes the complex R, derived into cplxBuf on first use and
	// checksummed into cplxSum before the pointer is stored; after that it
	// is never written again until the handle is refactored. The atomic fast
	// path keeps the lookup allocation-free (a sync.Once would heap-allocate
	// its closure on every call, which the zero-alloc decode tests forbid).
	cplx    atomic.Pointer[cmatrix.Matrix]
	cplxBuf cmatrix.Matrix
	cplxSum uint64
	cplxMu  sync.Mutex

	// rowMass caches the ABFT tolerance scale max_k Σ_{j≥k} |R[k][j]|₁
	// (Float64bits; 0 = not yet computed). Like the complex R it is derived
	// lazily and shared across every decode on the handle, so the verified
	// GEMM hot path pays an atomic load instead of an O(M²) magnitude sweep
	// per frame.
	rowMass atomic.Uint64

	// PreprocessCache bookkeeping, guarded by owner.mu: the owning cache
	// (nil for Preprocess handles and for handles that failed verification,
	// which are never recycled), the LRU links, the fingerprint key, the
	// count of unreleased Gets, and whether the entry is in the cache.
	owner      *PreprocessCache
	prev, next *Preprocessed
	key        uint64
	refs       int64
	cached     bool
}

// RowMass returns the largest ℓ1 mass of any R-row suffix, the magnitude
// bound the ABFT GEMM verifier scales its rounding tolerance with (every
// product word at level k obeys |w| ≤ rowMass·max|ω|₁). Computed on first
// use, then served from the handle. Safe for concurrent use: the sweep is
// deterministic over immutable data, so racing first callers store the same
// bits.
func (p *Preprocessed) RowMass() float64 {
	if bits := p.rowMass.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	var mass float64
	m, dim, rr := p.M, p.rp.Dim, p.rp.R
	for k := 0; k < m; k++ {
		top := rr[2*k*dim : (2*k+1)*dim]
		bot := rr[(2*k+1)*dim : (2*k+2)*dim]
		var suff float64
		for j := k; j < m; j++ {
			suff += math.Abs(top[2*j]) + math.Abs(bot[2*j])
		}
		if suff > mass {
			mass = suff
		}
	}
	p.rowMass.Store(math.Float64bits(mass))
	return mass
}

// RealPre is the real-valued-decomposition factor of a channel: the upper
// triangle of the interleaved real embedding, ready for the 2M-level real
// tree.
//
// The interleaved coordinate order (Re s₀, Im s₀, Re s₁, Im s₁, …) is what
// makes it free: a complex upper-triangular R with real diagonal embeds as
// 2×2 blocks [Re −Im; Im Re], and on the diagonal (Im r_kk = 0) those
// blocks collapse to r_kk·I — so the interleaved embedding of the complex
// factor is already upper triangular with positive diagonal. By uniqueness
// of the thin QR this IS the real QR factorization of the interleaved
// channel embedding (pinned against cmatrix.QRReal by test). The
// factorization kernel writes R in this layout directly, and the matching
// ȳr is the interleaving of the complex ȳ = Qᴴy, so one rotation serves
// both engines. Immutable after construction.
type RealPre struct {
	// Dim is the real tree height 2M.
	Dim int
	// R is the Dim×Dim upper-triangular real factor in flat row-major SoA
	// storage; row k is R[k*Dim : (k+1)*Dim]. Entries below the diagonal
	// are zero.
	R []float64
	// Flops is the modeled derivation cost (8·M² real stores/negations),
	// charged once per distinct channel like Preprocessed.Flops.
	Flops int64
}

// Real returns the handle's real-valued factor. It lives in the handle's
// own storage: no derivation, no allocation.
func (p *Preprocessed) Real() *RealPre { return &p.rp }

// complexR returns the complex R factor (M×M upper triangular, real positive
// diagonal), deriving it from the interleaved real factor on first use.
// Safe for concurrent use.
func (p *Preprocessed) complexR() *cmatrix.Matrix {
	if r := p.cplx.Load(); r != nil {
		return r
	}
	p.cplxMu.Lock()
	defer p.cplxMu.Unlock()
	if r := p.cplx.Load(); r != nil {
		return r
	}
	m, dim, rr := p.M, p.rp.Dim, p.rp.R
	r := reshape(&p.cplxBuf, m, m)
	for k := 0; k < m; k++ {
		row := r.Row(k)
		clear(row[:k])
		top := rr[2*k*dim : (2*k+1)*dim]
		bot := rr[(2*k+1)*dim : (2*k+2)*dim]
		for j := k; j < m; j++ {
			row[j] = complex(top[2*j], bot[2*j])
		}
	}
	p.cplxSum = r.PayloadChecksum()
	p.cplx.Store(r)
	return r
}

// VerifyIntegrity re-checksums the handle's storage — the reflector block,
// the real R, and the complex R when it has been derived — against the sums
// recorded when each was written. A false return means the handle was
// corrupted after construction (its storage is immutable by contract) and
// must not be served. The checksums change under any single-word flip,
// NaN- or Inf-producing ones included.
func (p *Preprocessed) VerifyIntegrity() bool {
	if handleChecksum(p.rp.R, p.refl) != p.checksum {
		return false
	}
	if r := p.cplx.Load(); r != nil && r.PayloadChecksum() != p.cplxSum {
		return false
	}
	return true
}

// Preprocess factors h for reuse. It returns cmatrix.ErrNonFinite /
// cmatrix.ErrSingular exactly as cmatrix.QR does.
func Preprocess(h *cmatrix.Matrix) (*Preprocessed, error) {
	p := new(Preprocessed)
	if err := p.factor(h); err != nil {
		return nil, err
	}
	return p, nil
}

// CheckY validates a received vector against the handle's dimensions.
func (p *Preprocessed) CheckY(y cmatrix.Vector) error {
	if len(y) != p.N {
		return fmt.Errorf("%w: y has %d entries, H is %dx%d",
			decoder.ErrDimension, len(y), p.N, p.M)
	}
	return nil
}

// PreprocessCache is a fingerprint-keyed LRU of Preprocessed handles. A
// batch whose frames arrive under a slowly varying channel (one coherence
// block spans many frames) factors each distinct H once and serves every
// other frame from the cache. Safe for concurrent use.
//
// Lookups hash the full matrix (cmatrix.Fingerprint) and then verify data
// equality on a hit, so a fingerprint collision costs one extra
// factorization, never a wrong one.
//
// Handles are reference counted: Get takes a reference and Release drops
// it. A handle that has left the LRU and holds no reference is recycled: the
// next miss refactors into its storage in place, so a steady-state miss
// allocates nothing. The LRU tail plays the paper's fixed double buffer —
// the channel about to be overwritten is one no in-flight batch still
// reads. A caller that never releases simply never recycles.
type PreprocessCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[uint64]*Preprocessed
	// head is the most recently used entry, tail the least; n counts them.
	head, tail *Preprocessed
	n          int
	// free lists recycled handles through their next links.
	free  *Preprocessed
	nfree int

	hits   int64
	misses int64
	// sdcEvictions counts hits whose cached payload failed its integrity
	// re-verification: the entry is evicted and the channel refactored
	// instead of serving poison.
	sdcEvictions int64
}

// DefaultCacheEntries is the cache capacity used when none is configured:
// enough for the distinct channels of several coalesced batches.
const DefaultCacheEntries = 64

// NewPreprocessCache builds a cache holding up to capacity distinct
// channels. capacity <= 0 selects DefaultCacheEntries.
func NewPreprocessCache(capacity int) *PreprocessCache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &PreprocessCache{
		capacity: capacity,
		entries:  make(map[uint64]*Preprocessed, capacity),
	}
}

// Get returns the handle for h, factoring it on a miss, and takes a
// reference on it. The handle may be shared with other callers and is
// immutable until the caller releases it; after Release the caller must
// not touch it again.
//
// A handle factored on a miss keeps h itself (p.H), not a copy, and every
// later hit is checked against it entry for entry. So the caller must not
// reuse or modify h's storage while the handle may still be cached, which
// includes after Release: a later hit would be checked against values
// that are no longer the channel the handle was factored from.
func (c *PreprocessCache) Get(h *cmatrix.Matrix) (*Preprocessed, error) {
	fp := h.Fingerprint()
	c.mu.Lock()
	if p, ok := c.entries[fp]; ok {
		if sameMatrix(p.H, h) {
			if p.VerifyIntegrity() {
				c.unlink(p)
				c.pushFront(p)
				p.refs++
				c.hits++
				c.mu.Unlock()
				return p, nil
			}
			// Silent data corruption in the cached storage: evict the
			// poisoned entry and refactor below. Every future frame sharing
			// this fingerprint gets a clean handle instead of shared poison,
			// and the suspect storage is disowned, never reused.
			c.sdcEvictions++
			p.owner = nil
		}
		// A poisoned entry or a fingerprint collision: evict it and factor
		// h below.
		c.evict(p)
	}
	c.misses++
	p := c.free
	if p != nil {
		c.free, p.next = p.next, nil
		c.nfree--
	}
	c.mu.Unlock()

	// Factor outside the lock so a large QR does not stall unrelated
	// lookups; a concurrent miss on the same H duplicates the work once.
	if p == nil {
		p = &Preprocessed{owner: c}
	}
	if err := p.factor(h); err != nil {
		c.mu.Lock()
		c.recycle(p)
		c.mu.Unlock()
		return nil, err
	}

	c.mu.Lock()
	p.refs = 1
	if _, ok := c.entries[fp]; !ok {
		p.key, p.cached = fp, true
		c.entries[fp] = p
		c.pushFront(p)
		for c.n > c.capacity {
			c.evict(c.tail)
		}
	}
	c.mu.Unlock()
	return p, nil
}

// Release drops one reference per handle, each from an earlier Get on this
// cache; nil handles and handles this cache does not own (Preprocess
// handles, poisoned ones) are ignored. A handle whose last reference goes
// after it left the LRU is recycled.
func (c *PreprocessCache) Release(ps ...*Preprocessed) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range ps {
		if p == nil || p.owner != c {
			continue
		}
		if p.refs <= 0 {
			panic("sphere: PreprocessCache.Release of an unreferenced handle")
		}
		p.refs--
		if p.refs == 0 && !p.cached {
			c.recycle(p)
		}
	}
}

// evict removes a cached entry from the map and the LRU, recycling it if no
// caller holds it.
func (c *PreprocessCache) evict(p *Preprocessed) {
	c.unlink(p)
	delete(c.entries, p.key)
	p.cached = false
	if p.refs == 0 {
		c.recycle(p)
	}
}

// recycle puts an unreferenced, uncached handle on the free list. A
// disowned (poisoned) handle is dropped instead, and the list holds at most
// capacity handles.
func (c *PreprocessCache) recycle(p *Preprocessed) {
	p.H = nil
	if p.owner != c || c.nfree >= c.capacity {
		return
	}
	p.next = c.free
	c.free = p
	c.nfree++
}

func (c *PreprocessCache) pushFront(p *Preprocessed) {
	p.prev, p.next = nil, c.head
	if c.head != nil {
		c.head.prev = p
	} else {
		c.tail = p
	}
	c.head = p
	c.n++
}

func (c *PreprocessCache) unlink(p *Preprocessed) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		c.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		c.tail = p.prev
	}
	p.prev, p.next = nil, nil
	c.n--
}

// Reset evicts every entry and sets the capacity (<= 0 selects
// DefaultCacheEntries). Unreferenced entries are recycled, so a cache reset
// before each batch serves as that batch's dedup table and its misses
// refactor into the previous batch's storage. Hit and miss counts keep
// accumulating.
func (c *PreprocessCache) Reset(capacity int) {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = capacity
	for c.tail != nil {
		c.evict(c.tail)
	}
}

// Len returns the number of cached channels.
func (c *PreprocessCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Stats returns cumulative (hits, misses).
func (c *PreprocessCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// SDCEvictions returns the number of cached entries evicted because their
// payload failed integrity re-verification on a hit.
func (c *PreprocessCache) SDCEvictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sdcEvictions
}

// CorruptEntry flips the high mantissa bit of one word of the most recently
// used entry's canonical storage — the bit-flip the SDC chaos plans inject
// to exercise the verify-on-hit defense. word indexes the real R's words,
// then the reflector block's (real and imaginary parts in turn), wrapped
// into range. It reports whether an entry was available to corrupt.
// Chaos/test use only: it deliberately violates the handle immutability
// contract.
func (c *PreprocessCache) CorruptEntry(word int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.head
	if p == nil {
		return false
	}
	if word < 0 {
		word = -word
	}
	rr := p.rp.R
	word %= len(rr) + 2*len(p.refl)
	if word < len(rr) {
		rr[word] = math.Float64frombits(math.Float64bits(rr[word]) ^ (1 << 51))
		return true
	}
	word -= len(rr)
	z := &p.refl[word/2]
	if word%2 == 0 {
		*z = corruptWord(*z)
	} else {
		*z = complex(real(*z), math.Float64frombits(math.Float64bits(imag(*z))^(1<<51)))
	}
	return true
}

// sameMatrix reports bit-level equality of two matrices (shapes included).
// The kernel rejects non-finite input, so NaN never reaches a cached handle
// and == is a sound equality here.
func sameMatrix(a, b *cmatrix.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}
