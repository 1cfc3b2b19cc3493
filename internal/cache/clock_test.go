package cache

import (
	"math/rand"
	"testing"
)

// naiveClock is the textbook second-chance sweep written out directly —
// the loop each of the row cache, page cache and page buffer used to carry
// its own copy of. The differential test holds Clock to it op for op.
type naiveClock struct {
	keys []int // slot -> key, -1 empty
	ref  []bool
	hand int
}

func (n *naiveClock) find(k int) int {
	for s, key := range n.keys {
		if key == k {
			return s
		}
	}
	return -1
}

func (n *naiveClock) insert(k int) (slot, victim int) {
	for {
		slot = n.hand
		n.hand = (n.hand + 1) % len(n.keys)
		if n.keys[slot] == -1 || !n.ref[slot] {
			break
		}
		n.ref[slot] = false
	}
	victim = n.keys[slot]
	n.keys[slot], n.ref[slot] = k, true
	return slot, victim
}

// TestClockDifferential drives Clock and the naive sweep through the same
// random lookups, fills and drops and requires the same slot and
// the same victim at every step.
func TestClockDifferential(t *testing.T) {
	for _, slots := range []int{1, 2, 7, 64} {
		rng := rand.New(rand.NewSource(int64(slots)))
		c := NewClock[int](slots)
		n := &naiveClock{keys: make([]int, slots), ref: make([]bool, slots)}
		for s := range n.keys {
			n.keys[s] = -1
		}
		for step := 0; step < 20000; step++ {
			k := rng.Intn(3 * slots)
			want := n.find(k)
			got, ok := c.Lookup(k)
			if ok != (want >= 0) || (ok && got != want) {
				t.Fatalf("slots %d step %d: Lookup(%d) = %d,%v, naive slot %d", slots, step, k, got, ok, want)
			}
			switch r := rng.Intn(100); {
			case ok && r < 10:
				c.Drop(got)
				n.keys[want], n.ref[want] = -1, false
			case ok:
				c.Touch(got)
				n.ref[want] = true
			case r < 80: // some misses are not filled (admission, probes)
				slot, victim, evicted := c.Insert(k)
				wantSlot, wantVictim := n.insert(k)
				if slot != wantSlot || evicted != (wantVictim >= 0) || (evicted && victim != wantVictim) {
					t.Fatalf("slots %d step %d: Insert(%d) = slot %d victim %d,%v; naive slot %d victim %d",
						slots, step, k, slot, victim, evicted, wantSlot, wantVictim)
				}
			}
		}
	}
}
