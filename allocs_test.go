//go:build !race

package recross

import "testing"

// TestRecrossRunAllocs holds a steady-state batch, BenchmarkRecrossRun's,
// to a ceiling of allocations: the result record, its node loads and the
// per-op latency bookkeeping, nothing per lookup. (The race detector's
// instrumentation allocates, so this runs without -race only.)
func TestRecrossRunAllocs(t *testing.T) {
	sys, batch := recrossBatch(t, false)
	for _, c := range []struct {
		name string
		run  func(Batch) (*RunStats, error)
		max  float64
	}{
		{"Run", sys.Run, 6},
		{"RunTraining", sys.RunTraining, 5},
	} {
		// AllocsPerRun's own first call is the warm-up batch.
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := c.run(batch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("steady-state %s made %v allocations, want <= %v", c.name, allocs, c.max)
		}
	}
}
