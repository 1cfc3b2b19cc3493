// Package coldstore implements the flash-backed cold tier: a fourth
// placement level below ReCross's R-, G- and B-regions for embedding mass
// that cannot (or should not) live in DRAM. From the related work it takes
// RecSSD-style in-storage reduction: the device can return pre-reduced
// partial sums instead of raw rows, shrinking the host link transfer to
// one vector per op (a timing-model property; the functional result is
// bit-identical either way because the reduction order is preserved).
//
// The store is file-backed (pread) with page-granular layout — row i of a
// table sits in slot i, rows in index order — and lazy page population:
// pages are generated from the procedural source tables on first access
// and written back, so the file always holds the exact bytes of the
// reference rows — any read path (page cache, file, regeneration) returns
// identical bits. A small CLOCK page cache sits in
// front of the device.
//
// Concurrency: the functional read path (ReadRow) is safe for arbitrary
// concurrent use — it is part of the serving data plane.
// The timing model (Sim) follows the simulator's single-goroutine contract:
// one Sim per replica, owned by its worker.
package coldstore

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"recross/internal/kernels"
	"recross/internal/metrics"
)

// RowSource supplies reference rows for lazy page population. It matches
// embedding.Table, but is declared here so the package has no dependency
// on the embedding layer (embedding depends on coldstore's consumers, not
// the other way around).
type RowSource interface {
	Rows() int64
	VecLen() int
	Row(i int64, dst []float32) []float32
}

// Config configures the cold tier: the capacity and timing model the
// ReCross partitioner prices the fourth placement level with (CapBytes,
// ResidentBudgetBytes, PageBytes, InStorageReduce, Precision; see NewSim)
// and the functional backing store Open builds.
type Config struct {
	// CapBytes is the cold region's capacity offered to the partitioner
	// (required; size it to hold whatever the DRAM budget displaces).
	CapBytes int64
	// ResidentBudgetBytes, when positive, clamps the summed DRAM region
	// capacity to this budget (regions shrink proportionally), so table
	// sets larger than DRAM spill their cold mass onto flash instead of
	// failing to fit. Zero leaves the DRAM regions at their geometric
	// capacity.
	ResidentBudgetBytes int64
	// PageBytes is the device page size (default 16 KiB). Must hold at
	// least one vector; rows never straddle pages.
	PageBytes int
	// InStorageReduce enables RecSSD-style device-side pooling: one
	// partial sum per op crosses the host link instead of every gathered
	// row, raising the effective link bandwidth the LP prices cold
	// placements with.
	InStorageReduce bool
	// Dir is the directory holding the backing file (default
	// os.TempDir()). The file is created (or truncated) by Open and
	// removed by Close.
	Dir string
	// Precision is the on-device row format (default kernels.FP32,
	// independent of the DRAM tiers' precision). With FP16 or INT8, pages
	// hold kernels.EncodeRow images — smaller rows, so more rows per page,
	// fewer device reads per gather and a page-read bandwidth the
	// partitioner prices higher by the codec ratio — and every read
	// serves the canonical dequantized value. Block checksums cover the
	// encoded bytes, which is also what the page cache holds, so one
	// verification rule serves every precision (see ReadRow).
	Precision kernels.Precision
	// CacheBytes is the host-side page-cache budget (default 64 pages):
	// the cache holds CacheBytes/PageBytes frames (at least one) of
	// PageBytes device bytes each, whatever the precision.
	CacheBytes int64
	// Retries is how many times a failed device page read is retried
	// (after retryBackoff, doubling per attempt) before the read counts
	// as a failure (default 2; negative disables retries).
	Retries int
	// ReadDeadline bounds one device page read: past it the read is
	// abandoned (the device goroutine finishes into its own buffer and is
	// drained by Close) and counted as a failure. 0 disables (default) —
	// the in-process devices cannot hang, and the deadline path costs a
	// goroutine per device read.
	ReadDeadline time.Duration
	// BreakerThreshold consecutive failed device reads open the circuit
	// breaker (default 4). While open, cold reads fail fast and the
	// caller falls back to direct RowSource materialization.
	BreakerThreshold int
	// BreakerCooldown is the open->half-open delay (default 50ms).
	BreakerCooldown time.Duration
	// BreakerProbes consecutive successful half-open reads close the
	// circuit again (default 2).
	BreakerProbes int
	// ScrubInterval is the background scrubber's cadence: every interval
	// one resident page is read back from the device and verified against
	// its checksum, repairing on mismatch. 0 disables the scrubber
	// (default).
	ScrubInterval time.Duration
	// WrapDevice, when set, interposes on the store's page I/O — the
	// fault-injection seam (chaos.FaultyColdStore wraps here).
	WrapDevice func(Device) Device
}

func (c Config) withDefaults() Config {
	if c.Dir == "" {
		c.Dir = os.TempDir()
	}
	if c.PageBytes == 0 {
		c.PageBytes = 16 << 10
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 * int64(c.PageBytes)
	}
	if c.Retries == 0 {
		c.Retries = 2
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 4
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 50 * time.Millisecond
	}
	if c.BreakerProbes == 0 {
		c.BreakerProbes = 2
	}
	return c
}

// page population states.
const (
	pageEmpty uint32 = iota
	pageReady
)

// Stats is the store's counter snapshot.
type Stats struct {
	// RowReads counts functional row reads served by the store.
	RowReads int64
	// PageHits and PageMisses count host page-cache probes.
	PageHits, PageMisses int64
	// PageReads counts device page reads (cache misses).
	PageReads int64
	// Populated counts pages generated and written on first access.
	Populated int64
	// Evictions counts page-cache CLOCK evictions.
	Evictions int64
	// ChecksumFailures counts page reads whose CRC32C did not match the
	// stored sum; each triggers a repair.
	ChecksumFailures int64
	// Repairs counts pages regenerated bit-exactly from the RowSource
	// after a checksum mismatch.
	Repairs int64
	// ScrubPages counts pages the background scrubber has verified.
	ScrubPages int64
	// Retries counts device read retry attempts.
	Retries int64
	// ReadFailures counts device reads that failed after all retries.
	ReadFailures int64
	// WriteFailures counts failed device write-backs.
	WriteFailures int64
	// ReadTimeouts counts device reads abandoned past ReadDeadline.
	ReadTimeouts int64
	// BreakerRejects counts reads failed fast by the open circuit.
	BreakerRejects int64
	// BreakerState is the circuit state (0 closed, 1 half-open, 2 open);
	// BreakerOpens/HalfOpens/Closes count cumulative transitions.
	BreakerState                                  int64
	BreakerOpens, BreakerHalfOpens, BreakerCloses int64
	// Degraded mirrors Store.Degraded: the breaker is not closed.
	Degraded bool
	// Pages and PageBytes describe the layout.
	Pages     int64
	PageBytes int64
	// CachePages is the host page-cache capacity in pages.
	CachePages int64
}

// HitRate returns the host page-cache hit fraction.
func (s Stats) HitRate() float64 {
	if s.PageHits+s.PageMisses == 0 {
		return 0
	}
	return float64(s.PageHits) / float64(s.PageHits+s.PageMisses)
}

// Store is the flash-backed cold tier. Create with Open.
type Store struct {
	cfg       Config
	tables    []RowSource
	vecLen    int
	prec      kernels.Precision
	rowBytes  int // encoded row size at prec
	rpp       int // rows per page
	blockRows int // rows per checksum block (~4 KiB of row bytes)
	bpp       int // checksum blocks per page
	pageBase  []int64
	nPages    int64

	file *os.File
	dev  Device // page I/O seam (the file, or a fault wrapper around it)

	// mu orders Close after in-flight reads: the read path holds it
	// shared, Close exclusively.
	mu    sync.RWMutex
	state []atomic.Uint32 // per-page population state
	// sums holds one CRC32C per ~4 KiB checksum block (bpp per page,
	// indexed page*bpp+block), valid while the page's state is ready.
	// Block granularity keeps verification off the fill path's critical
	// ns: a fill checks only the block it serves and the rest verify on
	// first serve from the cache or under the scrubber.
	sums []atomic.Uint32
	// popMu stripes page population so one goroutine generates a page.
	popMu [64]sync.Mutex

	cache *pageCache

	breaker *breaker

	// closed flips once in Close; readers check it under mu and bail.
	// ioWG tracks abandoned deadline reads so Close can drain them
	// before closing the file.
	closed atomic.Bool
	ioWG   sync.WaitGroup

	scrubStop chan struct{}
	scrubDone chan struct{}

	bufs sync.Pool // page-sized []byte scratch

	rowReads, populated         atomic.Int64
	checksumFailures, repairs   atomic.Int64
	scrubPages, retries         atomic.Int64
	readFailures, writeFailures atomic.Int64
	timeouts, breakerRejects    atomic.Int64
}

// Open creates the backing file and store for the given source tables. All
// tables must share one vector length.
func Open(cfg Config, tables []RowSource) (*Store, error) {
	cfg = cfg.withDefaults()
	if len(tables) == 0 {
		return nil, fmt.Errorf("coldstore: no tables")
	}
	vecLen := tables[0].VecLen()
	for i, t := range tables {
		if t.VecLen() != vecLen {
			return nil, fmt.Errorf("coldstore: table %d vecLen %d != %d", i, t.VecLen(), vecLen)
		}
		if t.Rows() <= 0 {
			return nil, fmt.Errorf("coldstore: table %d has no rows", i)
		}
	}
	rowBytes := cfg.Precision.RowBytes(vecLen)
	if cfg.PageBytes < rowBytes {
		return nil, fmt.Errorf("coldstore: page %d B below %v row %d B", cfg.PageBytes, cfg.Precision, rowBytes)
	}
	s := &Store{
		cfg:      cfg,
		tables:   tables,
		vecLen:   vecLen,
		prec:     cfg.Precision,
		rowBytes: rowBytes,
		rpp:      cfg.PageBytes / rowBytes,
		pageBase: make([]int64, len(tables)),
	}
	// Checksum blocks target ~4 KiB of row bytes: small enough that the
	// verify on the fill path is a fraction of the device read, large
	// enough for the hardware CRC's multi-stream kernel. Small pages
	// collapse to one block covering the whole page.
	s.blockRows = blockTargetBytes / rowBytes
	if s.blockRows < 1 {
		s.blockRows = 1
	}
	if s.blockRows > s.rpp {
		s.blockRows = s.rpp
	}
	s.bpp = (s.rpp + s.blockRows - 1) / s.blockRows
	for i, t := range tables {
		s.pageBase[i] = s.nPages
		s.nPages += (t.Rows() + int64(s.rpp) - 1) / int64(s.rpp)
	}
	s.state = make([]atomic.Uint32, s.nPages)
	s.sums = make([]atomic.Uint32, s.nPages*int64(s.bpp))
	s.breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerProbes, cfg.BreakerCooldown)
	cachePages := int(cfg.CacheBytes / int64(cfg.PageBytes))
	if cachePages < 1 {
		cachePages = 1
	}
	s.cache = newPageCache(cachePages, s)
	s.bufs.New = func() any { b := make([]byte, cfg.PageBytes); return &b }

	f, err := os.CreateTemp(cfg.Dir, "coldstore-*.dat")
	if err != nil {
		return nil, fmt.Errorf("coldstore: backing file: %w", err)
	}
	if err := f.Truncate(s.nPages * int64(cfg.PageBytes)); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("coldstore: truncate: %w", err)
	}
	s.file = f
	s.dev = &fileDevice{f: f, pageBytes: int64(cfg.PageBytes)}
	if cfg.WrapDevice != nil {
		s.dev = cfg.WrapDevice(s.dev)
	}
	if cfg.ScrubInterval > 0 {
		s.scrubStop = make(chan struct{})
		s.scrubDone = make(chan struct{})
		go s.scrubber()
	}
	return s, nil
}

// RowsPerPage returns the page layout's row capacity.
func (s *Store) RowsPerPage() int { return s.rpp }

// Close stops the scrubber, drains in-flight readers and
// abandoned deadline reads, then closes and removes the backing file.
// Idempotent and safe to call concurrently with reads: the first call does
// the work (later calls return nil immediately), new readers observe the
// closed flag and bail, and the file closes only after every goroutine
// that could still touch the device has finished.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.scrubStop != nil {
		close(s.scrubStop)
		<-s.scrubDone
	}
	// Exclusive lock drains in-flight readers (they hold mu shared for
	// the whole read); the wait drains deadline reads they abandoned.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ioWG.Wait()
	name := s.file.Name()
	err := s.file.Close()
	if e := os.Remove(name); err == nil && !os.IsNotExist(e) {
		err = e
	}
	return err
}

// Degraded reports whether the cold tier is serving degraded: the circuit
// breaker is not closed, so cold reads fail fast and callers fall back to
// direct RowSource materialization.
func (s *Store) Degraded() bool { return s.breaker.current() != BreakerClosed }

// ReadRow writes row idx of table into dst (len == VecLen) and reports
// whether the store served that row: false for out-of-range input, for a
// closed store, and for a device too broken to answer (breaker open or a
// read that failed after retries) — the caller then falls back to
// CanonicalRow, which computes the same bits without the device. When the
// store does answer, the bits are Decode(Encode(RowSource.Row)) at the
// store's precision: pages are populated from the source, only the one
// requested row is ever decoded (from the cache frame on a hit, from the
// read buffer on a miss), and one integrity rule holds for every
// precision — a device read verifies the ~4 KiB checksum block it serves,
// any other block verifies on its first serve from the cache, and a
// mismatching page is repaired from the source before anything is served.
// No row is ever served from bytes nothing has checked.
func (s *Store) ReadRow(table int, idx int64, dst []float32) bool {
	if table < 0 || table >= len(s.tables) {
		return false
	}
	if idx < 0 || idx >= s.tables[table].Rows() {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return false
	}
	page := s.pageBase[table] + idx/int64(s.rpp)
	rowIn := int(idx % int64(s.rpp))
	probe := s.cache.get(page, rowIn, dst)
	if probe == cacheHit {
		s.rowReads.Add(1)
		return true
	}
	if probe == cacheMiss && !s.breaker.allow() {
		s.breakerRejects.Add(1)
		return false
	}
	bp := s.bufs.Get().(*[]byte)
	defer s.bufs.Put(bp)
	buf, vblk := *bp, allBlocks
	if probe == cacheCorrupt {
		// The row's block sat unverified in the frame and failed its
		// first-serve check: regenerate the reference page, persist it
		// and serve the repaired bits.
		s.checksumFailures.Add(1)
		s.repair(page, buf)
	} else {
		var ok bool
		if vblk, ok = s.readPage(page, rowIn/s.blockRows, buf); !ok {
			return false
		}
	}
	kernels.DecodeRow(s.prec, dst, buf[rowIn*s.rowBytes:])
	s.cache.put(page, buf, vblk)
	s.rowReads.Add(1)
	return true
}

// CanonicalRow writes the value a healthy ReadRow serves for row idx of
// table — the source row through the store's codec, one row at a time —
// without touching the device or the cache. It is the degraded path's
// answer when ReadRow declines, so a cold row's bits never depend on
// device health, whatever precision the caller's own tables are held at.
// Bounds are the caller's (RowSource.Row's) job.
func (s *Store) CanonicalRow(table int, idx int64, dst []float32) {
	bp := s.bufs.Get().(*[]byte)
	s.encodeRow(table, idx, *bp, dst)
	kernels.DecodeRow(s.prec, dst, *bp)
	s.bufs.Put(bp)
}

// encodeRow writes row idx of table to dst in the device row format; row
// (len == VecLen) is scratch for the full-precision source value.
func (s *Store) encodeRow(table int, idx int64, dst []byte, row []float32) {
	s.tables[table].Row(idx, row)
	kernels.EncodeRow(s.prec, dst, row)
}

// allBlocks stands for every checksum block of a page where one block
// index is expected: verify them all (verifyBuf, the scrubber's
// off-critical-path mode), or mark them all verified (pageCache.put).
const allBlocks = -1

// retryBackoff is the sleep before a failed device read's first retry,
// doubling per attempt.
const retryBackoff = 100 * time.Microsecond

// readPage reads page's device bytes into buf (one page), populating the
// file on first access. It reports false only when the device failed past
// all retries — the caller falls back to CanonicalRow. On success, block
// of buf has been checksum-verified against the stored sums — a
// mismatching page is first repaired from the RowSource — and the returned
// value names what the caller may serve from buf and mark verified in the
// cache: block, or allBlocks when the whole page is known good (generated
// here or repaired). Caller holds s.mu shared.
func (s *Store) readPage(page int64, block int, buf []byte) (int, bool) {
	if s.state[page].Load() != pageReady && !s.populate(page, buf) {
		// The write-back failed but the generated bytes are correct:
		// serve them and leave persistence for the next access.
		return allBlocks, true
	}
	for attempt := 0; ; attempt++ {
		err := s.devRead(page, buf)
		if err == nil {
			break
		}
		if attempt >= s.cfg.Retries {
			s.readFailures.Add(1)
			s.breaker.onFailure()
			return 0, false
		}
		s.retries.Add(1)
		time.Sleep(retryBackoff << attempt)
	}
	s.breaker.onSuccess()
	s.cache.pageReads.Add(1)
	if !s.verifyBuf(page, buf, block) {
		// Flipped bits or a torn write-back: regenerate the reference
		// bytes, persist them, and serve the repaired page.
		s.checksumFailures.Add(1)
		s.repair(page, buf)
		return allBlocks, true
	}
	return block, true
}

// devRead performs one device page read, bounded by Config.ReadDeadline
// when set: a read past the deadline is abandoned to finish into its own
// pooled buffer (tracked by ioWG so Close can drain it before closing the
// file) and reported as a failure.
func (s *Store) devRead(page int64, dst []byte) error {
	if s.cfg.ReadDeadline <= 0 {
		return s.dev.ReadPage(page, dst)
	}
	type result struct {
		bp  *[]byte
		err error
	}
	ch := make(chan result, 1)
	bp := s.bufs.Get().(*[]byte)
	s.ioWG.Add(1)
	go func() {
		defer s.ioWG.Done()
		err := s.dev.ReadPage(page, *bp)
		ch <- result{bp, err}
	}()
	t := time.NewTimer(s.cfg.ReadDeadline)
	defer t.Stop()
	select {
	case r := <-ch:
		if r.err == nil {
			copy(dst, *r.bp)
		}
		s.bufs.Put(r.bp)
		return r.err
	case <-t.C:
		s.timeouts.Add(1)
		go func() { // reclaim the buffer when the straggler lands
			r := <-ch
			s.bufs.Put(r.bp)
		}()
		return errReadTimeout
	}
}

// fillPage generates page's reference bytes into buf. Caller holds s.mu
// shared and the page's popMu stripe.
func (s *Store) fillPage(page int64, buf []byte) {
	ti := s.tableOfPage(page)
	rows := s.tables[ti].Rows()
	clear(buf)
	row := make([]float32, s.vecLen)
	first := (page - s.pageBase[ti]) * int64(s.rpp)
	for k := 0; k < s.rpp && first+int64(k) < rows; k++ {
		s.encodeRow(ti, first+int64(k), buf[k*s.rowBytes:], row)
	}
}

// populate generates page's rows from the source table into buf and
// writes them back, recording the block checksums. Striped locking
// serializes population of one page; the state check inside the lock makes
// it exactly-once. It reports whether the page is persisted: on a failed
// write-back buf holds the generated (correct) bytes and the page stays
// unpopulated so the next access retries.
func (s *Store) populate(page int64, buf []byte) (persisted bool) {
	mu := &s.popMu[page%int64(len(s.popMu))]
	mu.Lock()
	defer mu.Unlock()
	if s.state[page].Load() == pageReady {
		return true
	}
	s.fillPage(page, buf)
	if err := s.dev.WritePage(page, buf); err != nil {
		s.writeFailures.Add(1)
		s.breaker.onFailure()
		return false
	}
	s.storeSums(page, buf)
	s.populated.Add(1)
	s.state[page].Store(pageReady)
	return true
}

// repair regenerates page bit-exactly from the source tables into buf
// after a checksum mismatch, writes it back and refreshes the stored block
// sums. Regeneration cannot fail (the tables are procedural), so buf
// always ends up holding the reference bytes; if only the write-back fails
// the page is demoted to unpopulated so the next access retries
// persistence. Caller holds s.mu shared.
func (s *Store) repair(page int64, buf []byte) {
	mu := &s.popMu[page%int64(len(s.popMu))]
	mu.Lock()
	defer mu.Unlock()
	s.fillPage(page, buf)
	if err := s.dev.WritePage(page, buf); err != nil {
		s.writeFailures.Add(1)
		s.state[page].Store(pageEmpty)
	} else {
		s.storeSums(page, buf)
		s.state[page].Store(pageReady)
	}
	s.repairs.Add(1)
}

// tableOfPage finds the table owning a global page id.
func (s *Store) tableOfPage(page int64) int {
	i := sort.Search(len(s.pageBase), func(i int) bool { return s.pageBase[i] > page })
	return i - 1
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	c, state := s.cache, s.breaker.current()
	return Stats{
		RowReads:         s.rowReads.Load(),
		PageHits:         c.hits.Load(),
		PageMisses:       c.misses.Load(),
		PageReads:        c.pageReads.Load(),
		Populated:        s.populated.Load(),
		Evictions:        c.evictions.Load(),
		ChecksumFailures: s.checksumFailures.Load(),
		Repairs:          s.repairs.Load(),
		ScrubPages:       s.scrubPages.Load(),
		Retries:          s.retries.Load(),
		ReadFailures:     s.readFailures.Load(),
		WriteFailures:    s.writeFailures.Load(),
		ReadTimeouts:     s.timeouts.Load(),
		BreakerRejects:   s.breakerRejects.Load(),
		BreakerState:     int64(state),
		BreakerOpens:     s.breaker.opens.Load(),
		BreakerHalfOpens: s.breaker.halfOpens.Load(),
		BreakerCloses:    s.breaker.closes.Load(),
		Degraded:         state != BreakerClosed,
		Pages:            s.nPages,
		PageBytes:        int64(s.cfg.PageBytes),
		CachePages:       int64(c.clock.Cap()),
	}
}

// RegisterMetrics publishes the recross_coldstore_* series in set (the
// serving layer's, so they ride its /metrics). Every counter is the
// store's own atomic; the exposition never goes through Stats.
func (s *Store) RegisterMetrics(set *metrics.Set) {
	c, b := s.cache, s.breaker
	set.Counter("recross_coldstore_row_reads_total", "Rows read through the store.", s.rowReads.Load)
	set.Counter("recross_coldstore_page_hits_total", "Page-cache probes that hit.", c.hits.Load)
	set.Counter("recross_coldstore_page_misses_total", "Page-cache probes that missed.", c.misses.Load)
	set.Counter("recross_coldstore_page_reads_total", "Pages read from the device.", c.pageReads.Load)
	set.Counter("recross_coldstore_pages_populated_total", "Pages materialized into the backing file.", s.populated.Load)
	set.Counter("recross_coldstore_evictions_total", "Cached pages replaced by CLOCK.", c.evictions.Load)
	set.Counter("recross_coldstore_checksum_failures_total", "Blocks that failed their CRC32C.", s.checksumFailures.Load)
	set.Counter("recross_coldstore_repairs_total", "Pages rewritten from their row source.", s.repairs.Load)
	set.Counter("recross_coldstore_scrub_pages_total", "Pages verified by the background scrubber.", s.scrubPages.Load)
	set.Counter("recross_coldstore_retries_total", "Device reads retried.", s.retries.Load)
	set.Counter("recross_coldstore_read_failures_total", "Device reads failed after retries.", s.readFailures.Load)
	set.Counter("recross_coldstore_write_failures_total", "Device writes failed.", s.writeFailures.Load)
	set.Counter("recross_coldstore_read_timeouts_total", "Device reads past their deadline.", s.timeouts.Load)
	set.Counter("recross_coldstore_breaker_rejects_total", "Reads refused while the breaker was open.", s.breakerRejects.Load)
	set.Counter("recross_coldstore_breaker_opens_total", "Breaker transitions to open.", b.opens.Load)
	set.Counter("recross_coldstore_breaker_half_opens_total", "Breaker transitions to half-open.", b.halfOpens.Load)
	set.Counter("recross_coldstore_breaker_closes_total", "Breaker transitions to closed.", b.closes.Load)
	set.IntGauge("recross_coldstore_breaker_state", "Breaker state (0 closed, 1 half-open, 2 open).", func() int64 { return int64(b.current()) })
	set.IntGauge("recross_coldstore_pages", "Pages in the store.", func() int64 { return s.nPages })
	set.IntGauge("recross_coldstore_page_bytes", "Device page size.", func() int64 { return int64(s.cfg.PageBytes) })
	set.IntGauge("recross_coldstore_cache_pages", "Page-cache capacity in pages.", func() int64 { return int64(c.clock.Cap()) })
	set.Gauge("recross_coldstore_page_hit_rate", "Page-cache hits over probes.", func() float64 { return Stats{PageHits: c.hits.Load(), PageMisses: c.misses.Load()}.HitRate() })
}
