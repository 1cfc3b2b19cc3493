package cluster

import (
	"math"
	"testing"

	"recross/internal/trace"
)

func TestHotTopK(t *testing.T) {
	vols := []float64{5, 1, 9, 9, 3}
	hot := HotTopK(vols, 2)
	want := []bool{false, false, true, true, false}
	for i := range want {
		if hot[i] != want[i] {
			t.Fatalf("HotTopK(2) = %v, want %v", hot, want)
		}
	}
	if HotTopK(vols, 0) != nil {
		t.Error("k=0 should mark none")
	}
	all := HotTopK(vols, 99)
	for i, h := range all {
		if !h {
			t.Errorf("k>len left table %d cold", i)
		}
	}
}

func TestRingPlacementReplication(t *testing.T) {
	hot := []bool{true, true, false, false, false, false, false, false}
	p, err := RingPlacement(8, []string{"a", "b", "c", "d"}, PlacementOptions{Hot: hot, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	for tb, reps := range p.Replicas {
		want := 1
		if hot[tb] {
			want = 3
		}
		if len(reps) != want {
			t.Errorf("table %d: %d owners, want %d", tb, len(reps), want)
		}
		seen := map[int]bool{}
		for _, n := range reps {
			if seen[n] {
				t.Errorf("table %d: duplicate owner %d", tb, n)
			}
			seen[n] = true
			if !p.Holds(n, tb) {
				t.Errorf("Holds(%d,%d) false for an owner", n, tb)
			}
		}
	}
	if p.Replicated() != 2 {
		t.Errorf("Replicated() = %d, want 2", p.Replicated())
	}
	// Every non-hot table is unique to its single owner.
	unique := 0
	for i := range p.Nodes {
		unique += len(p.UniqueTables(i))
	}
	if unique != 6 {
		t.Errorf("%d unique tables across nodes, want 6", unique)
	}
}

func TestPlacementValidation(t *testing.T) {
	if _, err := RingPlacement(0, []string{"a"}, PlacementOptions{}); err == nil {
		t.Error("0 tables accepted")
	}
	if _, err := RingPlacement(4, nil, PlacementOptions{}); err == nil {
		t.Error("no nodes accepted")
	}
	if _, err := RingPlacement(4, []string{"a", "a"}, PlacementOptions{}); err == nil {
		t.Error("duplicate node id accepted")
	}
	if _, err := RingPlacement(4, []string{"a", ""}, PlacementOptions{}); err == nil {
		t.Error("empty node id accepted")
	}
	if _, err := RingPlacement(4, []string{"a"}, PlacementOptions{Hot: []bool{true}}); err == nil {
		t.Error("hot length mismatch accepted")
	}
}

// TestPlacementBytes sanity-checks the balance measure itself.
func TestPlacementBytes(t *testing.T) {
	spec := trace.Uniform(4, 1000, 8, 2)
	p := &Placement{
		Nodes:    []string{"a", "b"},
		Replicas: [][]int{{0}, {0}, {1}, {1}},
	}
	p.finalize()
	bytes := p.NodeTableBytes(spec)
	if bytes[0] != bytes[1] || bytes[0] == 0 {
		t.Errorf("uniform split gave bytes %v", bytes)
	}
	if skew := p.BytesSkew(spec); math.Abs(skew-1) > 1e-9 {
		t.Errorf("perfect split skew %v, want 1", skew)
	}
}
