package cluster

import (
	"fmt"
	"sort"
)

// Placement maps every embedding table to the nodes that serve it.
// Replicas[t] lists the node indexes holding table t, primary first;
// hot tables carry Replication entries, the rest exactly one. A
// Placement is immutable once built.
type Placement struct {
	// Nodes names the cluster members, indexed by the values in
	// Replicas.
	Nodes []string
	// Replicas maps table index -> owning node indexes, primary first.
	Replicas [][]int
	// Hot marks the tables that were replicated (nil if none were).
	Hot []bool
}

// PlacementOptions configures RingPlacement.
type PlacementOptions struct {
	// Replication is the replica count for hot tables (default 2,
	// clamped to the node count). Non-hot tables always get 1.
	Replication int
	// Hot marks the tables to replicate (nil = replicate none).
	Hot []bool
}

func (o PlacementOptions) replication(nodes int) int {
	r := o.Replication
	if r == 0 {
		r = 2
	}
	if r > nodes {
		r = nodes
	}
	if r < 1 {
		r = 1
	}
	return r
}

// RingPlacement deals the tables round the nodes: hot tables first,
// then the rest, each group in index order. Each table takes the next
// node as its primary, and a hot table also takes the following
// Replication-1 nodes as replicas, so every node is primary for
// floor(T/N) or ceil(T/N) tables. The placement depends only on the
// table count, the node count and the hot set.
func RingPlacement(tables int, nodes []string, opts PlacementOptions) (*Placement, error) {
	if err := validateNodes(tables, nodes, opts.Hot); err != nil {
		return nil, err
	}
	p := &Placement{Nodes: nodes, Replicas: make([][]int, tables), Hot: opts.Hot}
	next := 0 // the next table's primary, before wrapping round the nodes
	for _, hot := range []bool{true, false} {
		owners := 1
		if hot {
			owners = opts.replication(len(nodes))
		}
		for t := range tables {
			if (opts.Hot != nil && opts.Hot[t]) != hot {
				continue
			}
			for k := range owners {
				p.Replicas[t] = append(p.Replicas[t], (next+k)%len(nodes))
			}
			next++
		}
	}
	return p, nil
}

// HotTopK marks the k largest-volume tables hot (deterministic: ties
// break toward the lower table index). k <= 0 marks none.
func HotTopK(vols []float64, k int) []bool {
	if k <= 0 || len(vols) == 0 {
		return nil
	}
	if k > len(vols) {
		k = len(vols)
	}
	order := make([]int, len(vols))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return vols[order[a]] > vols[order[b]] })
	hot := make([]bool, len(vols))
	for _, t := range order[:k] {
		hot[t] = true
	}
	return hot
}

func validateNodes(tables int, nodes []string, hot []bool) error {
	if tables < 1 {
		return fmt.Errorf("cluster: %d tables", tables)
	}
	if len(nodes) < 1 {
		return fmt.Errorf("cluster: placement needs at least 1 node")
	}
	seen := make(map[string]bool, len(nodes))
	for _, id := range nodes {
		if id == "" {
			return fmt.Errorf("cluster: empty node id")
		}
		if seen[id] {
			return fmt.Errorf("cluster: duplicate node id %q", id)
		}
		seen[id] = true
	}
	if hot != nil && len(hot) != tables {
		return fmt.Errorf("cluster: %d hot flags for %d tables", len(hot), tables)
	}
	return nil
}

// Tables reports how many tables the placement covers.
func (p *Placement) Tables() int { return len(p.Replicas) }

// Replicated reports how many tables have more than one owner.
func (p *Placement) Replicated() int {
	c := 0
	for _, reps := range p.Replicas {
		if len(reps) > 1 {
			c++
		}
	}
	return c
}

// UniqueTables returns the tables node i is the sole owner of — the
// tables whose answers degrade to the functional fallback when node i
// is lost.
func (p *Placement) UniqueTables(i int) []int {
	var out []int
	for t, reps := range p.Replicas {
		if len(reps) == 1 && reps[0] == i {
			out = append(out, t)
		}
	}
	return out
}
