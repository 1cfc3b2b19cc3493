//go:build !race

package trace

import "testing"

// TestProfileAllocs holds a warm profiling pass to zero allocations: every
// sample is drawn into the generator's one reused buffer, and once every
// row of a tiny universe has been seen the histograms only count. (The
// race detector's instrumentation allocates, so this runs without -race
// only.)
func TestProfileAllocs(t *testing.T) {
	spec := ModelSpec{Name: "m", Tables: []TableSpec{
		{Name: "a", Rows: 16, VecLen: 16, Pooling: 80, Prob: 1, Skew: 1.1},
		{Name: "b", Rows: 8, VecLen: 16, Pooling: 80, Prob: 0.5, Skew: 0},
		{Name: "c", Rows: 4, VecLen: 16, Pooling: 1, Prob: 1, Skew: 0.6},
	}}
	g, err := NewGenerator(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Profile(200)
	for i, tb := range spec.Tables {
		if d := g.Histograms()[i].Distinct(); d != int(tb.Rows) {
			t.Fatalf("table %s: warm-up saw %d of %d rows", tb.Name, d, tb.Rows)
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { g.Profile(20) }); allocs != 0 {
		t.Fatalf("warm Profile(20) made %v allocations, want 0", allocs)
	}
}
