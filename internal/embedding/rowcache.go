package embedding

import (
	"fmt"
	"sync"
	"sync/atomic"

	"recross/internal/cache"
)

// RowCache is a sharded software cache of materialized embedding rows,
// keyed (table, index). It exists because the default tables are
// procedural: every lookup regenerates the whole row element-by-element
// through splitmix hashing, so under the power-law access streams of
// recommendation workloads the same hot head rows are re-hashed millions
// of times. RecNMP (Ke et al.) makes memory-side caching of hot embedding
// entries its highest-leverage optimization for exactly this reason; the
// RowCache is the software data plane's version of that cache.
//
// Design:
//
//   - Sharding: keys hash across a power-of-two shard set (default 16),
//     each shard with its own mutex, so concurrent serving goroutines
//     touching different rows rarely contend.
//   - Storage: each shard owns one flat float32 arena of slots*vecLen,
//     so a fill copies into place and the cache performs zero per-entry
//     allocations after construction.
//   - Eviction: CLOCK (second chance) through the shared cache.Clock
//     slot index, one per shard.
//
// Get copies the row out under the shard lock (a vecLen float32 copy is
// far cheaper than re-hashing the row and keeps readers safe against a
// concurrent eviction reusing the slot), so all methods are safe for
// concurrent use.
type RowCache struct {
	shards []rowShard
	vecLen int
	slots  int // per shard

	// logicalRowBytes is the serialized size one cached row occupies in
	// the backing store (quantized layers: the code size, not the resident
	// fp32 footprint). Drives the Stats compression accounting; defaults
	// to vecLen*4. Atomic so attaching a quantized layer after
	// construction is race-safe against Stats readers.
	logicalRowBytes atomic.Int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	entries   atomic.Int64
}

// rowShard is one lock domain: a CLOCK slot index and the row arena its
// slots address.
type rowShard struct {
	mu    sync.Mutex
	clock *cache.Clock[uint64]
	data  []float32
	_     [24]byte // soften false sharing between neighbouring shards
}

// rowCacheShards is the default shard count (power of two).
const rowCacheShards = 16

// NewRowCache builds a cache with a total budget of sizeBytes for rows of
// vecLen float32 elements. The per-shard slot count is rounded down to a
// power of two; sizeBytes must afford at least one slot per shard.
func NewRowCache(sizeBytes int64, vecLen int) (*RowCache, error) {
	if vecLen <= 0 {
		return nil, fmt.Errorf("embedding: row cache vecLen %d <= 0", vecLen)
	}
	rowBytes := int64(vecLen) * 4
	totalSlots := sizeBytes / rowBytes
	perShard := totalSlots / rowCacheShards
	// Round down to a power of two.
	slots := 1
	for slots*2 <= int(perShard) {
		slots *= 2
	}
	if perShard < 1 {
		return nil, fmt.Errorf("embedding: row cache budget %d B affords no slots (%d B/row x %d shards)",
			sizeBytes, rowBytes, rowCacheShards)
	}
	c := &RowCache{
		shards: make([]rowShard, rowCacheShards),
		vecLen: vecLen,
		slots:  slots,
	}
	for i := range c.shards {
		c.shards[i] = rowShard{clock: cache.NewClock[uint64](slots), data: make([]float32, slots*vecLen)}
	}
	c.logicalRowBytes.Store(rowBytes)
	return c, nil
}

// SetLogicalRowBytes records the backing-store (precision-aware) size of
// one row, for the Stats compression accounting. Resident rows are always
// fp32; this only changes what LogicalBytes reports. Safe while serving.
func (c *RowCache) SetLogicalRowBytes(n int64) {
	if n <= 0 {
		n = int64(c.vecLen) * 4
	}
	c.logicalRowBytes.Store(n)
}

// rowKey packs (table, idx) into one uint64: 23 bits of table, 40 bits of
// row index (production caps at 40M rows), and a forced top bit.
func rowKey(table int, idx int64) uint64 {
	return 1<<63 | uint64(table)<<40 | (uint64(idx) & (1<<40 - 1))
}

// shardOf mixes the key and selects a shard.
func (c *RowCache) shardOf(key uint64) *rowShard {
	return &c.shards[splitmix(key)&(rowCacheShards-1)]
}

// Get probes for (table, idx) and on a hit copies the row into dst
// (len >= vecLen) and returns true. A hit sets the slot's CLOCK bit.
func (c *RowCache) Get(table int, idx int64, dst []float32) bool {
	key := rowKey(table, idx)
	sh := c.shardOf(key)
	sh.mu.Lock()
	slot, ok := sh.clock.Lookup(key)
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return false
	}
	sh.clock.Touch(slot)
	copy(dst[:c.vecLen], sh.data[slot*c.vecLen:])
	sh.mu.Unlock()
	c.hits.Add(1)
	return true
}

// Put fills (table, idx) with row (len >= vecLen), evicting via CLOCK if
// the shard is full.
func (c *RowCache) Put(table int, idx int64, row []float32) {
	key := rowKey(table, idx)
	sh := c.shardOf(key)
	sh.mu.Lock()
	slot, ok := sh.clock.Lookup(key)
	if ok {
		// Already resident (another goroutine raced the same miss);
		// refresh the data and reference bit.
		sh.clock.Touch(slot)
	} else {
		var evicted bool
		if slot, _, evicted = sh.clock.Insert(key); evicted {
			c.evictions.Add(1)
		} else {
			c.entries.Add(1)
		}
	}
	copy(sh.data[slot*c.vecLen:(slot+1)*c.vecLen], row)
	sh.mu.Unlock()
}

// VecLen returns the row width the cache was built for.
func (c *RowCache) VecLen() int { return c.vecLen }

// RowCacheStats is a point-in-time counter snapshot.
type RowCacheStats struct {
	// Hits and Misses count Get probes.
	Hits, Misses int64
	// Evictions counts CLOCK replacements of resident rows.
	Evictions int64
	// Entries is the resident row count; Bytes its resident fp32
	// footprint (cached rows are always dequantized float32).
	Entries int64
	Bytes   int64
	// LogicalBytes is what the same rows occupy at the backing store's
	// precision (SetLogicalRowBytes); equal to Bytes for fp32 layers.
	LogicalBytes int64
	// CapBytes is the cache's row-data capacity.
	CapBytes int64
}

// CompressionRatio is Bytes/LogicalBytes — how much larger the resident
// fp32 rows are than their backing-store form (1 for fp32 layers, 0
// before any fill).
func (s RowCacheStats) CompressionRatio() float64 {
	if s.LogicalBytes == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.LogicalBytes)
}

// HitRate returns Hits/(Hits+Misses), or 0 before any probe.
func (s RowCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the counters.
func (c *RowCache) Stats() RowCacheStats {
	entries := c.entries.Load()
	rowBytes := int64(c.vecLen) * 4
	return RowCacheStats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evictions.Load(),
		Entries:      entries,
		Bytes:        entries * rowBytes,
		LogicalBytes: entries * c.logicalRowBytes.Load(),
		CapBytes:     int64(c.slots) * rowCacheShards * rowBytes,
	}
}
