//go:build !race

package partition

import (
	"testing"

	"recross/internal/stats"
	"recross/internal/trace"
)

// TestProfileAllocs holds a warm profiling pass to zero allocations: every
// sample is drawn into one reused buffer, and once every row of a tiny
// universe has been seen the histograms only count. (The race detector's
// instrumentation allocates, so this runs without -race only.)
func TestProfileAllocs(t *testing.T) {
	spec := trace.ModelSpec{Name: "m", Tables: []trace.TableSpec{
		{Name: "a", Rows: 16, VecLen: 16, Pooling: 80, Prob: 1, Skew: 1.1},
		{Name: "b", Rows: 8, VecLen: 16, Pooling: 80, Prob: 0.5, Skew: 0},
		{Name: "c", Rows: 4, VecLen: 16, Pooling: 1, Prob: 1, Skew: 0.6},
	}}
	g, err := trace.NewGenerator(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	hists := make([]*stats.Histogram, len(spec.Tables))
	for i := range hists {
		hists[i] = stats.NewHistogram()
	}
	buf := countDraws(g, hists, nil, 200)
	for i, tb := range spec.Tables {
		if d := hists[i].Distinct(); d != int(tb.Rows) {
			t.Fatalf("table %s: warm-up saw %d of %d rows", tb.Name, d, tb.Rows)
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { buf = countDraws(g, hists, buf, 20) }); allocs != 0 {
		t.Fatalf("warm profiling pass of 20 samples made %v allocations, want 0", allocs)
	}
}
