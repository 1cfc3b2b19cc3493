package cache

// Clock is the slot index of a CLOCK (second-chance) cache: which key
// lives in which of n fixed slots, one reference bit per slot, and the
// sweeping hand. It holds no values, takes no locks and counts nothing —
// its users (the embedding row cache's shards, the cold store's page
// cache, the cold timing model's page buffer) keep their own arenas
// indexed by slot, their own mutexes and their own counters, and share
// only the replacement order.
//
// A hit Touches its slot. An Insert advances the hand: an empty slot is
// taken as is, a referenced slot loses its bit and is passed over, and the
// first unreferenced slot is evicted — so after one lap every bit is clear
// and the sweep terminates. CLOCK approximates LRU with no per-access list
// surgery.
type Clock[K comparable] struct {
	index map[K]int32
	keys  []K
	state []uint8 // per slot: slotEmpty, slotCold or slotReferenced
	hand  int
}

const (
	slotEmpty uint8 = iota
	slotCold
	slotReferenced
)

// NewClock returns an empty index over n slots (n >= 1).
func NewClock[K comparable](n int) *Clock[K] {
	return &Clock[K]{index: make(map[K]int32, n), keys: make([]K, n), state: make([]uint8, n)}
}

// Cap returns the slot count.
func (c *Clock[K]) Cap() int { return len(c.keys) }

// Lookup returns k's slot without touching its reference bit.
func (c *Clock[K]) Lookup(k K) (slot int, ok bool) {
	s, ok := c.index[k]
	return int(s), ok
}

// Touch sets an occupied slot's reference bit.
func (c *Clock[K]) Touch(slot int) { c.state[slot] = slotReferenced }

// Insert places k, which must not be resident, in the slot the sweep
// selects and marks it referenced. When that slot held another key the
// key is returned as the evicted victim.
func (c *Clock[K]) Insert(k K) (slot int, victim K, evicted bool) {
	for {
		slot = c.hand
		if c.hand++; c.hand == len(c.keys) {
			c.hand = 0
		}
		if c.state[slot] != slotReferenced {
			break
		}
		c.state[slot] = slotCold
	}
	if c.state[slot] == slotCold {
		victim, evicted = c.keys[slot], true
		delete(c.index, victim)
	}
	c.keys[slot], c.state[slot], c.index[k] = k, slotReferenced, int32(slot)
	return slot, victim, evicted
}

// Drop empties an occupied slot; the hand takes it on a later sweep.
func (c *Clock[K]) Drop(slot int) {
	delete(c.index, c.keys[slot])
	c.state[slot] = slotEmpty
}
