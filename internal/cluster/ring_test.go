package cluster

import (
	"fmt"
	"testing"

	"recross/internal/trace"
)

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(0, RingOptions{}); err == nil {
		t.Error("0 nodes accepted")
	}
}

func TestRingSuccessorsDistinct(t *testing.T) {
	r, err := NewRing(5, RingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		succ := r.Successors(fmt.Sprintf("t%d", k), 3)
		if len(succ) != 3 {
			t.Fatalf("key %d: %d successors, want 3", k, len(succ))
		}
		seen := map[int]bool{}
		for _, n := range succ {
			if n < 0 || n >= 5 {
				t.Fatalf("key %d: node %d out of range", k, n)
			}
			if seen[n] {
				t.Fatalf("key %d: duplicate node %d in %v", k, n, succ)
			}
			seen[n] = true
		}
	}
	// k clamps to the node count and to at least 1.
	if got := r.Successors("x", 99); len(got) != 5 {
		t.Errorf("k=99 gave %d successors, want 5", len(got))
	}
	if got := r.Successors("x", 0); len(got) != 1 {
		t.Errorf("k=0 gave %d successors, want 1", len(got))
	}
}

func TestRingDeterminism(t *testing.T) {
	a, _ := NewRing(4, RingOptions{Seed: 7})
	b, _ := NewRing(4, RingOptions{Seed: 7})
	c, _ := NewRing(4, RingOptions{Seed: 8})
	differs := false
	for k := 0; k < 50; k++ {
		key := fmt.Sprintf("t%d", k)
		sa, sb, sc := a.Successors(key, 2), b.Successors(key, 2), c.Successors(key, 2)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("key %s: same seed disagrees: %v vs %v", key, sa, sb)
			}
			if sa[i] != sc[i] {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 produced identical placements for 50 keys")
	}
}

// TestRingPlacementBalance bounds the table-bytes skew (max/mean node
// bytes) of ring placements across 100 independent seeds: no seed may
// be pathological, and the average ring must be reasonably flat. Bounds
// are calibrated against the observed distribution with headroom.
func TestRingPlacementBalance(t *testing.T) {
	spec := trace.Uniform(64, 2000, 8, 2)
	nodes := []string{"a", "b", "c", "d"}
	var sum, worst float64
	const seeds = 100
	for seed := 0; seed < seeds; seed++ {
		p, err := RingPlacement(len(spec.Tables), nodes, PlacementOptions{Seed: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		skew := p.BytesSkew(spec)
		if skew > worst {
			worst = skew
		}
		sum += skew
		if skew > 1.8 {
			t.Errorf("seed %d: skew %.3f > 1.8", seed, skew)
		}
		// Every node must own at least one table: a 64-table ring over 4
		// nodes leaving a node empty would be a hashing bug.
		for i := range nodes {
			owns := 0
			for tb := range p.Replicas {
				if p.Holds(i, tb) {
					owns++
				}
			}
			if owns == 0 {
				t.Errorf("seed %d: node %d owns no tables", seed, i)
			}
		}
	}
	mean := sum / seeds
	t.Logf("ring skew over %d seeds: mean %.3f, worst %.3f", seeds, mean, worst)
	if mean > 1.4 {
		t.Errorf("mean skew %.3f > 1.4", mean)
	}
}
