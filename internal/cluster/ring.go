// Package cluster is the horizontal tier above internal/serve: a front end
// that spreads detection load over a ring of sdserver shards and keeps the
// service answering through shard crashes, stalls, and network partitions.
//
// Routing is by channel fingerprint — the same word-wise hash key the QR
// PreprocessCache uses — so every frame observed under one channel lands on
// the same shard and its factored channel stays resident there. This is the
// paper's multi-PE partitioning lifted one level: where the FPGA statically
// assigns subtrees to processing elements so each PE's block RAM holds only
// its slice of the problem, the ring statically assigns channel keys to
// shards so each shard's QR cache holds only its users.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/rng"
)

// DefaultVirtualNodes is the per-shard vnode count used when none is
// configured: enough that a 3-shard ring balances within ~20% and a
// join/leave moves close to the fair 1/n of the keyspace.
const DefaultVirtualNodes = 96

// ringPoint is one vnode: a position on the 64-bit ring owned by a shard.
type ringPoint struct {
	hash  uint64
	shard int // index into Ring.shards
}

// Ring is an immutable consistent-hash ring over shard ids. Mutations (With,
// Without) return a new ring, so readers never need a lock — the proxy swaps
// rings atomically on join/leave. The consistent-hashing contract is what
// bounds rebalancing disruption: a join moves only the keys the new shard
// now owns (≈ K/n of them), a leave moves only the departed shard's keys,
// and every other key keeps its owner. Replica sets are successor lists, so
// they shift by at most the joined/left shard too.
type Ring struct {
	shards []string // sorted, distinct
	points []ringPoint
	vnodes int
}

// NewRing builds a ring over the given shard ids (duplicates collapse).
// vnodes <= 0 selects DefaultVirtualNodes. An empty shard list is a valid
// (empty) ring that owns nothing.
func NewRing(shards []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	distinct := make([]string, 0, len(shards))
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if !seen[s] {
			seen[s] = true
			distinct = append(distinct, s)
		}
	}
	sort.Strings(distinct)
	r := &Ring{shards: distinct, vnodes: vnodes}
	r.points = make([]ringPoint, 0, len(distinct)*vnodes)
	for i, s := range distinct {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(s, v), shard: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (astronomically rare) break by shard order so the ring
		// is deterministic regardless of insertion order.
		return r.points[a].shard < r.points[b].shard
	})
	return r
}

// vnodeHash positions one virtual node: FNV-1a over "id#v", passed through
// a 64-bit finalizer. The finalizer is load-bearing: raw FNV over a shared
// prefix plus a small counter is almost linear in v (the trailing counter
// bytes see too few multiplies to avalanche), so without it a shard's
// vnodes land in an arithmetic progression clumped on one arc of the ring
// and a 3-shard ring can skew as badly as 60/30/10.
func vnodeHash(id string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{'#', byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	return mix64(h.Sum64())
}

// mix64 is the MurmurHash3 fmix64 finalizer: full-avalanche bijection on
// 64-bit values.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Shards returns the ring's member ids (sorted; do not mutate).
func (r *Ring) Shards() []string { return r.shards }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.shards) }

// Has reports membership.
func (r *Ring) Has(id string) bool {
	i := sort.SearchStrings(r.shards, id)
	return i < len(r.shards) && r.shards[i] == id
}

// With returns a new ring with id joined (unchanged if already a member).
func (r *Ring) With(id string) *Ring {
	if r.Has(id) {
		return r
	}
	return NewRing(append(append([]string{}, r.shards...), id), r.vnodes)
}

// Without returns a new ring with id departed (unchanged if not a member).
func (r *Ring) Without(id string) *Ring {
	if !r.Has(id) {
		return r
	}
	kept := make([]string, 0, len(r.shards)-1)
	for _, s := range r.shards {
		if s != id {
			kept = append(kept, s)
		}
	}
	return NewRing(kept, r.vnodes)
}

// Owner returns the shard owning key: the one whose vnode is first at or
// clockwise after the key. Empty string on an empty ring.
func (r *Ring) Owner(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.shards[r.points[r.successor(key)].shard]
}

// Owners returns up to n distinct shards for key, in ring (preference)
// order: the owner first, then the successor replicas. n <= 0 returns nil.
func (r *Ring) Owners(key uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.shards) {
		n = len(r.shards)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, at := 0, r.successor(key); len(out) < n && i < len(r.points); i++ {
		p := r.points[(at+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, r.shards[p.shard])
		}
	}
	return out
}

// successor returns the index of the first point with hash >= key, wrapping
// to 0 past the end.
func (r *Ring) successor(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Disruption measures the fraction of a deterministic key sample whose
// primary owner differs between two rings — the rebalancing cost of a
// membership change, recorded in the proxy's ledger on every join/leave.
func Disruption(old, new *Ring, samples int) float64 {
	if samples <= 0 || old == nil || new == nil {
		return 0
	}
	r := rng.New(0x5d15)
	moved := 0
	for i := 0; i < samples; i++ {
		k := r.Uint64()
		if old.Owner(k) != new.Owner(k) {
			moved++
		}
	}
	return float64(moved) / float64(samples)
}

// String renders the membership for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d shards, %d vnodes)", len(r.shards), r.vnodes)
}
