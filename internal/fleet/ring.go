// Package fleet runs N schedd instances as one logical service (DESIGN.md
// §11): a consistent-hash ring maps schedule fingerprints and session ids to
// an owner plus R-1 replicas, a front-end Router forwards requests with
// per-peer timeouts, circuit breakers, seeded-jitter retries and hedged
// reads, and ReplicatedBlobs pushes session checkpoints and schedule records
// to the ring replicas so a surviving peer can take over a dead owner's
// sessions mid-stream.
//
// The fleet inherits the byte-determinism contract the serving layer has
// carried since DESIGN.md §7: every response is a pure function of the
// request body, so *any* peer can serve *any* request identically — routing
// is an optimization (cache locality, checkpoint residency), never a
// correctness requirement. That is what makes failover trivial to reason
// about: every non-degraded 200 is byte-identical to a single-node
// fault-free reference, regardless of which peers died along the way
// (pinned by TestFleetChaos).
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over peer names. Each peer projects Vnodes
// points onto the 64-bit hash circle; a key's owner is the first peer point
// clockwise from the key's hash, and its replicas are the next distinct
// peers. Determinism: the ring is a pure function of (names, vnodes) — every
// router and every peer computing the same ring agree on ownership without
// coordination (pinned by TestRingOwnershipPinned).
type Ring struct {
	names  []string // sorted peer names
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	peer int // index into names
}

// DefaultVnodes is the virtual-node count per peer when NewRing is given
// vnodes <= 0: enough that ownership shares stay within a few percent of
// 1/N for small fleets.
const DefaultVnodes = 64

// NewRing builds the ring for the given peer names (order-insensitive:
// names are sorted first, so every participant builds the same ring).
func NewRing(names []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	r := &Ring{names: sorted}
	for i, name := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", name, v)), peer: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].peer < r.points[b].peer // total order even on hash ties
	})
	return r
}

// Peers returns the ring's peer names in sorted order.
func (r *Ring) Peers() []string { return append([]string(nil), r.names...) }

// Owners returns the first n distinct peers clockwise from key's hash: the
// owner first, then the replicas in takeover preference order. n is capped
// at the peer count.
func (r *Ring) Owners(key string, n int) []string {
	if n > len(r.names) {
		n = len(r.names)
	}
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	// Dedup with a linear scan over the peers picked so far: n is the
	// replica count (2–3), so the scan beats a map allocation on this hot
	// path (every routed request and every replica walk comes through
	// here).
	picked := make([]int, 0, n)
	for i := 0; len(owners) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		dup := false
		for _, q := range picked {
			if q == p.peer {
				dup = true
				break
			}
		}
		if !dup {
			picked = append(picked, p.peer)
			owners = append(owners, r.names[p.peer])
		}
	}
	return owners
}

// hash64 is FNV-1a pushed through a 64-bit avalanche finalizer. FNV alone
// clusters badly on short, similar strings ("p0#1", "p0#2", … land nearly
// adjacent on the circle, which starves peers of keyspace); the finalizer
// disperses them uniformly. Both halves are fixed arithmetic — stable
// across processes and Go versions, which the no-coordination ownership
// agreement depends on.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
