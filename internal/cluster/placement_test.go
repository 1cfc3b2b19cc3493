package cluster

import (
	"fmt"
	"reflect"
	"testing"
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
			if n < 0 || n >= len(p.Nodes) {
				t.Errorf("table %d: owner %d out of [0,%d)", tb, n, len(p.Nodes))
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

// TestRingPlacementBalance: for every table and node count, each node
// is primary for floor(T/N) or ceil(T/N) tables, each hot table has
// min(Replication, N) distinct owners, and the placement does not depend
// on the node IDs.
func TestRingPlacementBalance(t *testing.T) {
	for _, tables := range []int{16, 26, 64} {
		for n := 1; n <= 8; n++ {
			ids := make([]string, n)
			other := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("node%d", i)
				other[i] = fmt.Sprintf("10.0.0.%d:7000", 9-i)
			}
			vols := make([]float64, tables)
			for tb := range vols {
				vols[tb] = float64((tb * 7) % tables)
			}
			opts := PlacementOptions{Hot: HotTopK(vols, tables/4), Replication: 3}
			p, err := RingPlacement(tables, ids, opts)
			if err != nil {
				t.Fatal(err)
			}
			primaries := make([]int, n)
			for tb, reps := range p.Replicas {
				primaries[reps[0]]++
				want := 1
				if opts.Hot[tb] {
					want = min(3, n)
				}
				seen := map[int]bool{}
				for _, i := range reps {
					seen[i] = true
				}
				if len(reps) != want || len(seen) != want {
					t.Errorf("T=%d N=%d table %d: owners %v, want %d distinct", tables, n, tb, reps, want)
				}
			}
			lo, hi := tables/n, (tables+n-1)/n
			for i, c := range primaries {
				if c < lo || c > hi {
					t.Errorf("T=%d N=%d: node %d is primary for %d tables, want %d..%d (all: %v)", tables, n, i, c, lo, hi, primaries)
				}
			}
			q, err := RingPlacement(tables, other, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.Replicas, q.Replicas) {
				t.Errorf("T=%d N=%d: placement depends on node IDs:\n%v\n%v", tables, n, p.Replicas, q.Replicas)
			}
		}
	}
}
