package coldstore

import (
	"sync"
	"sync/atomic"

	"recross/internal/cache"
)

// get results: the probe missed, served a (verified) row, or found the
// row's block corrupt in the frame — the caller must repair the page.
const (
	cacheMiss = iota
	cacheHit
	cacheCorrupt
)

// pageCache is a small CLOCK cache of device pages in front of the backing
// file — the host-side page buffer of the cold tier. One mutex guards the
// whole cache: probes are page-granular (a hit copies one vector out), so
// contention is far below the row-cache tier's and sharding would buy
// nothing.
//
// Integrity rides the cache at block granularity: each frame carries a
// bitmap of which of its page's checksum blocks have been verified.
// Serving a row from an unverified block first runs the store's verify
// hook over the block (under the cache lock, so the frame cannot move);
// on mismatch the frame is dropped and the caller repairs from the
// RowSource. Bits are seeded by put — the fill path has already verified
// the block it read for — so no row is ever served from bytes nothing
// has checked.
type pageCache struct {
	mu       sync.Mutex
	clock    *cache.Clock[int64] // page id -> frame
	vals     []float32           // frame arenas, frameLen each
	verified []uint64            // frame bitmaps: bit b set = block b verified
	frameLen int
	vwords   int // verified words per frame
	blockLen int // floats per full checksum block

	// verify checks one cached block against its stored checksum; nil
	// (checksums disabled) trusts every frame.
	verify func(page int64, block int, blockVals []float32) bool

	hits, misses, evictions atomic.Int64
	pageReads               atomic.Int64
}

func newPageCache(frames, frameLen, blocksPerPage, blockLen int, verify func(int64, int, []float32) bool) *pageCache {
	vwords := (blocksPerPage + 63) / 64
	return &pageCache{
		clock:    cache.NewClock[int64](frames),
		vals:     make([]float32, frames*frameLen),
		verified: make([]uint64, frames*vwords),
		frameLen: frameLen,
		vwords:   vwords,
		blockLen: blockLen,
		verify:   verify,
	}
}

// get copies vector [off, off+len(dst)) of the cached page into dst. The
// row lives in checksum block `block`; a frame block is verified on its
// first serve, so a fill that only checked the block it read for still
// never leaks unchecked bytes through later hits. A cacheCorrupt result
// drops the frame — the caller regenerates the page from its source.
func (c *pageCache) get(page int64, off int, dst []float32, block int) int {
	c.mu.Lock()
	f, ok := c.clock.Lookup(page)
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return cacheMiss
	}
	base := f * c.frameLen
	if c.verify != nil {
		w, bit := f*c.vwords+block/64, uint64(1)<<(block%64)
		if c.verified[w]&bit == 0 {
			lo := block * c.blockLen
			hi := lo + c.blockLen
			if hi > c.frameLen {
				hi = c.frameLen
			}
			if !c.verify(page, block, c.vals[base+lo:base+hi]) {
				c.clock.Drop(f)
				c.mu.Unlock()
				return cacheCorrupt
			}
			c.verified[w] |= bit
		}
	}
	copy(dst, c.vals[base+off:base+off+len(dst)])
	c.clock.Touch(f)
	c.mu.Unlock()
	c.hits.Add(1)
	return cacheHit
}

// contains probes without copying or counting (the prefetcher's check).
func (c *pageCache) contains(page int64) bool {
	c.mu.Lock()
	_, ok := c.clock.Lookup(page)
	c.mu.Unlock()
	return ok
}

// put installs a page's contents, evicting by CLOCK when full. block
// names the single checksum block the filler verified, or putAllVerified
// when every block is known good (repair and prefetch paths; checksums
// off). A racing double-install of the same page is harmless (the values
// are identical by construction) and keeps the first frame — the racer
// verified its own copy, so the first frame's bitmap stays authoritative
// for what it holds.
func (c *pageCache) put(page int64, vals []float32, block int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.clock.Lookup(page); ok {
		return
	}
	f, _, evicted := c.clock.Insert(page)
	if evicted {
		c.evictions.Add(1)
	}
	vb := c.verified[f*c.vwords : (f+1)*c.vwords]
	if c.verify == nil || block < 0 {
		for i := range vb {
			vb[i] = ^uint64(0)
		}
	} else {
		for i := range vb {
			vb[i] = 0
		}
		vb[block/64] = 1 << (block % 64)
	}
	copy(c.vals[f*c.frameLen:(f+1)*c.frameLen], vals)
}

// putAllVerified marks every block of an installed page verified.
const putAllVerified = -1

// reset drops every cached page (Remap invalidation).
func (c *pageCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock.Reset()
	clear(c.verified)
}
