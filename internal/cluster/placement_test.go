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

// TestCostPlacementBalance: with no dominant table, LPT lands within a
// few percent of the fractional LP floor.
func TestCostPlacementBalance(t *testing.T) {
	vols := make([]float64, 64)
	var sum float64
	for i := range vols {
		vols[i] = 1 + 2*float64(mix64(uint64(i)+1)%1000)/1000 // deterministic in [1,3)
		sum += vols[i]
	}
	p, err := CostPlacement(vols, []string{"a", "b", "c", "d"}, PlacementOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != "cost" {
		t.Errorf("mode %q", p.Mode)
	}
	if p.LPBound <= 0 {
		t.Fatalf("LP bound %v not solved", p.LPBound)
	}
	if want := sum / 4; math.Abs(p.LPBound-want) > 1e-6*want {
		t.Errorf("LP bound %.4f, want sum/n = %.4f", p.LPBound, want)
	}
	if ratio := p.Makespan / p.LPBound; ratio > 1.15 {
		t.Errorf("makespan %.4f is %.3fx the LP floor %.4f", p.Makespan, ratio, p.LPBound)
	}
}

// TestCostPlacementHotSplit: replicating the dominant table halves the
// bottleneck — the exact effect hot-table replication exists for.
func TestCostPlacementHotSplit(t *testing.T) {
	vols := []float64{8, 1, 1, 1, 1, 1, 1}
	nodes := []string{"a", "b", "c", "d"}
	solo, err := CostPlacement(vols, nodes, PlacementOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := CostPlacement(vols, nodes, PlacementOptions{Hot: HotTopK(vols, 1), Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	if solo.Makespan != 8 {
		t.Errorf("unreplicated makespan %.2f, want 8 (dominant table)", solo.Makespan)
	}
	if hot.Makespan >= solo.Makespan {
		t.Errorf("replication did not lower the bottleneck: %.2f >= %.2f", hot.Makespan, solo.Makespan)
	}
	if len(hot.Replicas[0]) != 2 {
		t.Errorf("hot table has %d owners, want 2", len(hot.Replicas[0]))
	}
}

func TestPlacementEqual(t *testing.T) {
	a, _ := RingPlacement(8, []string{"a", "b"}, PlacementOptions{Seed: 1})
	b, _ := RingPlacement(8, []string{"a", "b"}, PlacementOptions{Seed: 1})
	if !a.Equal(b) {
		t.Error("identical placements not Equal")
	}
	if a.Equal(nil) {
		t.Error("Equal(nil)")
	}
	c, _ := CostPlacement([]float64{9, 1, 1, 1, 1, 1, 1, 1}, []string{"a", "b"}, PlacementOptions{})
	if a.Equal(c) && !c.Equal(a) {
		t.Error("Equal not symmetric")
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
