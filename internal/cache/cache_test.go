package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 64, 8); err == nil {
		t.Error("zero size should error")
	}
	if _, err := New(1<<20, 64, 0); err == nil {
		t.Error("zero ways should error")
	}
	if _, err := New(1000, 64, 8); err == nil {
		t.Error("non-divisible size should error")
	}
	if _, err := New(3*64*8, 64, 8); err == nil {
		t.Error("non-power-of-two sets should error")
	}
}

func TestHitAfterMiss(t *testing.T) {
	c, err := New(1<<12, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x1000) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x1010) {
		t.Fatal("same line different offset should hit")
	}
	if c.Access(0x1040) {
		t.Fatal("next line should miss")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache with 1 set: capacity 2 lines.
	c, err := New(2*64, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0 * 64)
	c.Access(1 * 64)
	c.Access(0 * 64) // touch line 0: line 1 is now LRU
	c.Access(2 * 64) // evicts line 1
	if !c.Contains(0 * 64) {
		t.Fatal("recently used line evicted")
	}
	if c.Contains(1 * 64) {
		t.Fatal("LRU line not evicted")
	}
	if !c.Contains(2 * 64) {
		t.Fatal("new line not resident")
	}
}

func TestContainsDoesNotTouch(t *testing.T) {
	c, _ := New(2*64, 64, 2)
	c.Access(0)
	c.Access(64)
	c.Contains(0) // must NOT refresh line 0
	c.Access(128) // evict true LRU (line 0)
	if c.Contains(0) {
		t.Fatal("Contains refreshed LRU state")
	}
	if !c.Access(64) {
		t.Fatal("line 1 evicted instead of the true LRU")
	}
}

// Property: a working set that fits within one set's ways never misses
// after the first pass, regardless of access order.
func TestNoCapacityMissWithinWays(t *testing.T) {
	f := func(seed int64) bool {
		c, err := New(1<<14, 64, 8) // 32 sets, 8 ways
		if err != nil {
			return false
		}
		// 8 lines, all mapping to set 0 (stride = sets*line = 32*64).
		var lines [8]uint64
		for i := range lines {
			lines[i] = uint64(i) * 32 * 64
			c.Access(lines[i])
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			if !c.Access(lines[rng.Intn(8)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedWorkloadHitsHot(t *testing.T) {
	// A 64 KB cache over a 64 MB footprint with 90% of accesses to 100 hot
	// lines should show a high hit rate — the RecNMP hot-entry cache premise.
	c, _ := New(1<<16, 64, 8)
	rng := rand.New(rand.NewSource(1))
	const n = 50000
	hits := 0
	for i := 0; i < n; i++ {
		var addr uint64
		if rng.Float64() < 0.9 {
			addr = uint64(rng.Intn(100)) * 64
		} else {
			addr = uint64(rng.Intn(1<<20)) * 64
		}
		if c.Access(addr) {
			hits++
		}
	}
	if r := float64(hits) / n; r < 0.8 {
		t.Fatalf("hit rate = %.3f, want > 0.8 on skewed workload", r)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c, _ := New(32<<20, 64, 16)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63n(1 << 34))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
	}
}
