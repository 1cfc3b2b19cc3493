//go:build !race

package memctrl

import (
	"testing"

	"recross/internal/dram"
)

// TestDrainAllocs: a steady-state Drain allocates exactly one object, the
// returned OpLatency. Done, the op bookkeeping, the heaps and the queue
// nodes are controller scratch. (The race detector's instrumentation
// allocates, so this runs without -race only.)
func TestDrainAllocs(t *testing.T) {
	ch, err := dram.NewChannel(dram.DDR5(2), dram.DDR5Timing(), dram.NMPTwoStage)
	if err != nil {
		t.Fatal(err)
	}
	for fb := 0; fb < 8; fb++ {
		ch.EnableSALP(fb)
	}
	c, err := New(ch, LAS, DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	c.OpWindowLimit = 4
	reqs := benchReqs(4096)
	for i := range reqs {
		reqs[i].Write = i%5 == 0
	}
	allocs := testing.AllocsPerRun(5, func() {
		ch.Reset()
		if _, err := c.Drain(reqs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("steady-state Drain made %v allocations, want 1 (OpLatency)", allocs)
	}
}
