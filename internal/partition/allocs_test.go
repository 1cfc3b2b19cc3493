//go:build !race

package partition

import (
	"testing"

	"recross/internal/trace"
)

// TestProfileAllocs holds a warm profiling pass to zero allocations:
// every sample's ranks are drawn into one reused buffer and counted in
// the dense counters, or, past them, in a tail map that already holds
// every rank of its tiny universe. (The race detector's instrumentation
// allocates, so this runs without -race only.)
func TestProfileAllocs(t *testing.T) {
	spec := trace.ModelSpec{Name: "m", Tables: []trace.TableSpec{
		{Name: "a", Rows: 16, VecLen: 16, Pooling: 80, Prob: 1, Skew: 1.1},
		{Name: "b", Rows: 8, VecLen: 16, Pooling: 80, Prob: 0.5, Skew: 0},
		{Name: "c", Rows: 4, VecLen: 16, Pooling: 1, Prob: 1, Skew: 0.6},
		{Name: "d", Rows: denseRanks + 4, VecLen: 16, Pooling: 80, Prob: 1, Skew: 0},
	}}
	g, err := trace.NewGenerator(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := newRankCounts(spec)
	buf := c.count(g, nil, 4000)
	hists := c.histograms(g)
	for i, tb := range spec.Tables[:3] {
		if d := hists[i].Distinct(); d != int(tb.Rows) {
			t.Fatalf("table %s: warm-up saw %d of %d rows", tb.Name, d, tb.Rows)
		}
	}
	if d := len(c[3].tail); d != 4 {
		t.Fatalf("table d: warm-up saw %d of its 4 tail ranks", d)
	}
	if allocs := testing.AllocsPerRun(5, func() { buf = c.count(g, buf, 20) }); allocs != 0 {
		t.Fatalf("warm profiling pass of 20 samples made %v allocations, want 0", allocs)
	}
}
