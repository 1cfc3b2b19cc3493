package coldstore

import (
	"sync"
	"sync/atomic"

	"recross/internal/cache"
	"recross/internal/kernels"
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
// whole cache: probes are page-granular (a hit decodes one vector out), so
// contention is far below the row-cache tier's and sharding would buy
// nothing.
//
// A frame holds its page's device bytes, never decoded floats: a fill is
// one PageBytes copy, a hit decodes only the requested row, the arena is
// exactly frames*PageBytes whatever the precision, and the frame is the
// byte image the block checksums were computed over.
//
// Integrity rides the cache at block granularity: each frame carries a
// bitmap of which of its page's checksum blocks have been verified.
// Serving a row from an unverified block first checks the block against
// its stored sum (under the cache lock, so the frame cannot move); on
// mismatch the frame is dropped and the caller repairs from the
// RowSource. Bits are seeded by put — the fill path has already verified
// the block it read for — so no row is ever served from bytes nothing has
// checked.
type pageCache struct {
	mu       sync.Mutex
	s        *Store              // the page layout frames are decoded by, and verifyBuf
	clock    *cache.Clock[int64] // page id -> frame
	frames   []byte              // frame arenas, PageBytes each
	verified []uint64            // frame bitmaps: bit b set = block b verified
	vwords   int                 // verified words per frame

	hits, misses, evictions atomic.Int64
	pageReads               atomic.Int64
}

// newPageCache builds s's cache; s's layout fields must be set.
func newPageCache(frames int, s *Store) *pageCache {
	vwords := (s.bpp + 63) / 64
	return &pageCache{
		s:        s,
		clock:    cache.NewClock[int64](frames),
		frames:   make([]byte, frames*s.cfg.PageBytes),
		verified: make([]uint64, frames*vwords),
		vwords:   vwords,
	}
}

// frame returns frame f's bytes. Caller holds c.mu.
func (c *pageCache) frame(f int) []byte {
	n := c.s.cfg.PageBytes
	return c.frames[f*n : (f+1)*n]
}

// get decodes row rowIn of the cached page into dst. A frame block is
// verified on its first serve, so a fill that only checked the block it
// read for still never leaks unchecked bytes through later hits. A
// cacheCorrupt result drops the frame — the caller regenerates the page
// from its source.
func (c *pageCache) get(page int64, rowIn int, dst []float32) int {
	c.mu.Lock()
	f, ok := c.clock.Lookup(page)
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return cacheMiss
	}
	frame := c.frame(f)
	block := rowIn / c.s.blockRows
	w, bit := f*c.vwords+block/64, uint64(1)<<(block%64)
	if c.verified[w]&bit == 0 {
		if !c.s.verifyBuf(page, frame, block) {
			c.clock.Drop(f)
			c.mu.Unlock()
			return cacheCorrupt
		}
		c.verified[w] |= bit
	}
	kernels.DecodeRow(c.s.prec, dst, frame[rowIn*c.s.rowBytes:])
	c.clock.Touch(f)
	c.mu.Unlock()
	c.hits.Add(1)
	return cacheHit
}

// put installs a page's device bytes, evicting by CLOCK when full. block
// names the single checksum block the filler verified, or allBlocks
// when every block is known good (generated or repaired pages). A racing double-install of the same page keeps the first frame —
// the racer verified its own copy, so the first frame's bitmap stays
// authoritative for what it holds.
func (c *pageCache) put(page int64, buf []byte, block int) {
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
	if block == allBlocks {
		for i := range vb {
			vb[i] = ^uint64(0)
		}
	} else {
		clear(vb)
		vb[block/64] = 1 << (block % 64)
	}
	copy(c.frame(f), buf)
}
