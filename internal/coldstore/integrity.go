package coldstore

import (
	"errors"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Device is the store's page I/O seam: everything the store reads from or
// writes to the backing medium goes through one Device, so fault-injection
// wrappers (internal/chaos.FaultyColdStore) and alternative media can
// interpose without the store knowing. Implementations must be safe for
// concurrent use; ReadPage/WritePage transfer exactly one page.
type Device interface {
	// ReadPage fills dst (one page) with page's current device bytes.
	ReadPage(page int64, dst []byte) error
	// WritePage persists src (one page) as page's new contents.
	WritePage(page int64, src []byte) error
}

// fileDevice is the pread/pwrite Device over the backing file.
type fileDevice struct {
	f         *os.File
	pageBytes int64
}

func (d *fileDevice) ReadPage(page int64, dst []byte) error {
	_, err := d.f.ReadAt(dst, page*d.pageBytes)
	return err
}

func (d *fileDevice) WritePage(page int64, src []byte) error {
	_, err := d.f.WriteAt(src, page*d.pageBytes)
	return err
}

// castagnoli is the CRC32C polynomial table — the checksum storage systems
// standardize on (iSCSI, ext4, Btrfs) because hardware accelerates it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockTargetBytes sizes a page's checksum blocks (~4 KiB of row bytes).
const blockTargetBytes = 4096

// blockSpan returns block b's byte range within a page buffer. Blocks are
// whole rows, so a served vector always lies inside exactly one block;
// page slack past the last row (when PageBytes is not a multiple of the
// vector size) is never served and carries no checksum.
func (s *Store) blockSpan(b int) (lo, hi int) {
	lo = b * s.blockRows * s.rowBytes
	hi = lo + s.blockRows*s.rowBytes
	if max := s.rpp * s.rowBytes; hi > max {
		hi = max
	}
	return lo, hi
}

// storeSums records every block checksum of a freshly generated page
// buffer (populate and repair, after a successful write-back).
func (s *Store) storeSums(page int64, buf []byte) {
	for b := 0; b < s.bpp; b++ {
		lo, hi := s.blockSpan(b)
		s.sums[page*int64(s.bpp)+int64(b)].Store(crc32.Checksum(buf[lo:hi], castagnoli))
	}
}

// verifyBuf checks a page's device bytes — a fresh device read or a page
// cache frame, which holds the same image — against the stored block sums:
// one block, or the whole page when block is allBlocks. Caller holds s.mu
// shared and the page's state is ready.
func (s *Store) verifyBuf(page int64, buf []byte, block int) bool {
	if block != allBlocks {
		lo, hi := s.blockSpan(block)
		return crc32.Checksum(buf[lo:hi], castagnoli) == s.sums[page*int64(s.bpp)+int64(block)].Load()
	}
	for b := 0; b < s.bpp; b++ {
		lo, hi := s.blockSpan(b)
		if crc32.Checksum(buf[lo:hi], castagnoli) != s.sums[page*int64(s.bpp)+int64(b)].Load() {
			return false
		}
	}
	return true
}

// errReadTimeout marks a device read abandoned past Config.ReadDeadline.
var errReadTimeout = errors.New("coldstore: page read deadline exceeded")

// Breaker states, exported through Stats.BreakerState and the
// recross_coldstore_breaker_state gauge.
const (
	BreakerClosed   int32 = 0
	BreakerHalfOpen int32 = 1
	BreakerOpen     int32 = 2
)

// breaker is the cold tier's circuit breaker. Closed (healthy) reads flow
// to the device; BreakerThreshold consecutive failures open it, after which
// reads fail fast into the caller's RowSource fallback. After
// BreakerCooldown the next read probes the device (half-open);
// BreakerProbes consecutive probe successes close the circuit, one failure
// re-opens it. The scrubber's sweep reads feed the same breaker, so a
// device that heals is detected and the circuit closed even with no
// request traffic on the cold route.
type breaker struct {
	threshold int
	cooldown  time.Duration
	probes    int

	mu       sync.Mutex
	state    int32
	fails    int // consecutive failures while closed
	okProbes int // consecutive successes while half-open
	openedAt time.Time

	published                atomic.Int32 // state, lock-free for Degraded()
	opens, halfOpens, closes atomic.Int64
}

func newBreaker(threshold, probes int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, probes: probes}
}

// set transitions the state machine (mu held) and maintains the cumulative
// transition counters tests and dashboards watch.
func (b *breaker) set(state int32) {
	if b.state == state {
		return
	}
	b.state = state
	b.published.Store(state)
	b.fails, b.okProbes = 0, 0
	switch state {
	case BreakerOpen:
		b.openedAt = time.Now()
		b.opens.Add(1)
	case BreakerHalfOpen:
		b.halfOpens.Add(1)
	case BreakerClosed:
		b.closes.Add(1)
	}
}

// allow reports whether a device read may proceed. While open it flips to
// half-open once the cooldown has elapsed, admitting probe traffic.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.set(BreakerHalfOpen)
		return true
	default:
		return true
	}
}

// onSuccess records a successful device read. A success while open (only
// the scrubber reads without allow) short-circuits the cooldown: the
// device answered, so move to half-open and count the probe.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails = 0
	case BreakerOpen:
		b.set(BreakerHalfOpen)
		fallthrough
	case BreakerHalfOpen:
		b.okProbes++
		if b.okProbes >= b.probes {
			b.set(BreakerClosed)
		}
	}
}

// onFailure records a failed device read (retries already exhausted).
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.set(BreakerOpen)
		}
	case BreakerHalfOpen:
		b.set(BreakerOpen)
	case BreakerOpen:
		// Still failing: restart the cooldown so half-open waits for a
		// quiet period, not just elapsed time since the first trip.
		b.openedAt = time.Now()
	}
}

// current returns the published state without taking the lock.
func (b *breaker) current() int32 { return b.published.Load() }

// scrubber is the background integrity sweep: every ScrubInterval it picks
// the next populated page, reads it from the device, verifies its checksum
// and repairs on mismatch. Its reads double as health probes for the
// breaker — a sticky-failed device that comes back is observed here first.
func (s *Store) scrubber() {
	defer close(s.scrubDone)
	t := time.NewTicker(s.cfg.ScrubInterval)
	defer t.Stop()
	var next int64
	for {
		select {
		case <-s.scrubStop:
			return
		case <-t.C:
			s.scrubNext(&next)
		}
	}
}

// scrubNext scans forward from *next for a populated page and scrubs it.
func (s *Store) scrubNext(next *int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return
	}
	for n := int64(0); n < s.nPages; n++ {
		p := (*next + n) % s.nPages
		if s.state[p].Load() != pageReady {
			continue
		}
		*next = p + 1
		s.scrubPage(p)
		return
	}
}

// scrubPage verifies one resident page — every checksum block — against
// its stored sums, repairing on mismatch. Caller holds s.mu shared.
func (s *Store) scrubPage(page int64) {
	bp := s.bufs.Get().(*[]byte)
	buf := *bp
	err := s.devRead(page, buf)
	if err != nil {
		s.bufs.Put(bp)
		s.readFailures.Add(1)
		s.breaker.onFailure()
		return
	}
	s.scrubPages.Add(1)
	if !s.verifyBuf(page, buf, allBlocks) {
		s.checksumFailures.Add(1)
		s.repair(page, buf)
	}
	s.bufs.Put(bp)
	s.breaker.onSuccess()
}
