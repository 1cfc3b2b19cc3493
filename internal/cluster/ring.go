package cluster

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes: each node places
// ringVNodes points on a 64-bit circle, and a key is owned by the first
// point clockwise of its hash. Replicas of a key are the next distinct
// nodes clockwise, so losing a node moves only its own arcs. The ring is
// immutable once built.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  int
	seed   uint64
}

type ringPoint struct {
	hash uint64
	node int
}

// ringVNodes is each node's virtual-node count: more vnodes give a
// smoother balance and a larger ring.
const ringVNodes = 64

// RingOptions configures NewRing.
type RingOptions struct {
	// Seed perturbs every ring hash, so different seeds give
	// independent placements of the same nodes (default 0).
	Seed uint64
}

// NewRing builds a ring over n nodes, ringVNodes points each.
func NewRing(n int, opts RingOptions) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: ring needs at least 1 node, got %d", n)
	}
	r := &Ring{nodes: n, seed: opts.Seed}
	for i := 0; i < n; i++ {
		for v := 0; v < ringVNodes; v++ {
			h := mix64(opts.Seed ^ mix64(uint64(i)+1) ^ mix64(0x5bd1e995*uint64(v)+0x1b873593))
			r.points = append(r.points, ringPoint{hash: h, node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Successors returns the first k distinct nodes clockwise of key's
// hash, primary first. k is clamped to the node count.
func (r *Ring) Successors(key string, k int) []int {
	if k > r.nodes {
		k = r.nodes
	}
	if k < 1 {
		k = 1
	}
	h := hashKey(r.seed, key)
	// First point with hash >= h, wrapping.
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for j := 0; j < len(r.points) && len(out) < k; j++ {
		p := r.points[(i+j)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// hashKey hashes a key string with the ring seed (FNV-1a core, then a
// splitmix-style finalizer for avalanche).
func hashKey(seed uint64, s string) uint64 {
	h := uint64(14695981039346656037) ^ mix64(seed)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
