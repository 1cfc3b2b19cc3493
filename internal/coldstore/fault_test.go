package coldstore

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hookDev interposes on the store's real device for fault tests (the chaos
// package has the reusable wrapper; this package cannot import it without a
// cycle, so tests script faults directly). Hooks are swapped atomically so
// tests can flip behaviour while store goroutines are mid-read.
type hookDev struct {
	inner Device
	// read, when set, replaces ReadPage (call d.inner directly inside to
	// pass through, then damage dst or return an error).
	read atomic.Pointer[func(page int64, dst []byte) error]
	// write, when set, replaces WritePage.
	write atomic.Pointer[func(page int64, src []byte) error]
}

func (d *hookDev) ReadPage(page int64, dst []byte) error {
	if f := d.read.Load(); f != nil {
		return (*f)(page, dst)
	}
	return d.inner.ReadPage(page, dst)
}

func (d *hookDev) WritePage(page int64, src []byte) error {
	if f := d.write.Load(); f != nil {
		return (*f)(page, src)
	}
	return d.inner.WritePage(page, src)
}

func (d *hookDev) setRead(f func(page int64, dst []byte) error)  { d.read.Store(&f) }
func (d *hookDev) setWrite(f func(page int64, src []byte) error) { d.write.Store(&f) }
func (d *hookDev) clearRead()                                    { d.read.Store(nil) }
func (d *hookDev) clearWrite()                                   { d.write.Store(nil) }

// newHookedStore opens a store whose device is wrapped with a hookDev.
func newHookedStore(t *testing.T, cfg Config, rows ...int64) (*Store, []RowSource, *hookDev) {
	t.Helper()
	hd := &hookDev{}
	prev := cfg.WrapDevice
	cfg.WrapDevice = func(d Device) Device {
		if prev != nil {
			d = prev(d)
		}
		hd.inner = d
		return hd
	}
	s, srcs := newTestStore(t, cfg, rows...)
	return s, srcs, hd
}

// readWant materializes the reference bits for (table, idx).
func readWant(srcs []RowSource, ti int, idx int64) []float32 {
	want := make([]float32, srcs[ti].VecLen())
	srcs[ti].Row(idx, want)
	return want
}

// checkRow asserts ReadRow succeeds and returns the reference bits.
func checkRow(t *testing.T, s *Store, srcs []RowSource, ti int, idx int64) {
	t.Helper()
	got := make([]float32, srcs[ti].VecLen())
	if !s.ReadRow(ti, idx, got) {
		t.Fatalf("table %d row %d not served", ti, idx)
	}
	want := readWant(srcs, ti, idx)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("table %d row %d elem %d: %v != %v", ti, idx, j, got[j], want[j])
		}
	}
}

// TestChecksumRepairsCorruptRead checks a device read returning flipped
// bits is caught by the page CRC32C and repaired bit-exactly from the
// source — the caller never sees the damage.
func TestChecksumRepairsCorruptRead(t *testing.T) {
	// 256 B pages, 4 rows/page, single-frame cache so rereads hit the device.
	s, srcs, hd := newHookedStore(t, Config{PageBytes: 256, CacheBytes: 256}, 64)
	checkRow(t, s, srcs, 0, 0) // populate page 0
	checkRow(t, s, srcs, 0, 8) // page 2 evicts page 0 from the 1-frame cache
	hd.setRead(func(page int64, dst []byte) error {
		err := hd.inner.ReadPage(page, dst)
		if err == nil && page == 0 {
			dst[3] ^= 0xff // silent media corruption on page 0 only
		}
		return err
	})
	checkRow(t, s, srcs, 0, 1) // page 0 again: corrupt read -> repair
	st := s.Stats()
	if st.ChecksumFailures == 0 || st.Repairs == 0 {
		t.Fatalf("corruption not caught: %+v", st)
	}
	if st.ReadFailures != 0 || st.Degraded {
		t.Fatalf("repairable corruption counted as device failure: %+v", st)
	}
	// The repair rewrote the reference bytes; with the hook still damaging
	// page 0, every reread keeps repairing but still serves exact bits.
	hd.clearRead()
	checkRow(t, s, srcs, 0, 9) // evict
	checkRow(t, s, srcs, 0, 2)
	if got := s.Stats().ChecksumFailures; got != st.ChecksumFailures {
		t.Fatalf("checksum failure after repair with healthy device: %d -> %d", st.ChecksumFailures, got)
	}
}

// TestTornWriteRepairedOnRead checks a write-back that silently persists
// only half the page (reported as success) is caught by the checksum on
// the very next read and never served.
func TestTornWriteRepairedOnRead(t *testing.T) {
	s, srcs, hd := newHookedStore(t, Config{PageBytes: 256, CacheBytes: 256}, 64)
	var torn atomic.Int64
	hd.setWrite(func(page int64, src []byte) error {
		if page == 1 && torn.Add(1) == 1 {
			return hd.inner.WritePage(page, src[:len(src)/2]) // tear the first write
		}
		return hd.inner.WritePage(page, src)
	})
	// First access of page 1: populate tears the write-back, the immediate
	// device read mismatches, repair rewrites and serves reference bits.
	checkRow(t, s, srcs, 0, 4)
	st := s.Stats()
	if st.ChecksumFailures == 0 || st.Repairs == 0 {
		t.Fatalf("torn write not caught: %+v", st)
	}
	hd.clearWrite()
	checkRow(t, s, srcs, 0, 0) // evict page 1
	checkRow(t, s, srcs, 0, 5) // reread page 1 from the repaired file
	if got := s.Stats().ChecksumFailures; got != st.ChecksumFailures {
		t.Fatalf("repair did not persist: checksum failures %d -> %d", st.ChecksumFailures, got)
	}
}

// TestRetryRecoversTransientError checks a read that fails transiently is
// retried with backoff and succeeds without tripping the breaker.
func TestRetryRecoversTransientError(t *testing.T) {
	s, srcs, hd := newHookedStore(t, Config{
		PageBytes: 256, CacheBytes: 256, Retries: 2,
	}, 64)
	errTransient := errors.New("transient")
	var fails atomic.Int64
	fails.Store(2)
	hd.setRead(func(page int64, dst []byte) error {
		if fails.Add(-1) >= 0 {
			return errTransient
		}
		return hd.inner.ReadPage(page, dst)
	})
	checkRow(t, s, srcs, 0, 0)
	st := s.Stats()
	if st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}
	if st.ReadFailures != 0 || st.Degraded {
		t.Fatalf("recovered read counted as failure: %+v", st)
	}
}

// TestBreakerOpensHalfOpensCloses drives the circuit through its full
// cycle against a sticky-failed device: threshold failures open it, reads
// then fail fast, the cooldown admits a probe (half-open), and probe
// successes close it again.
func TestBreakerOpensHalfOpensCloses(t *testing.T) {
	s, srcs, hd := newHookedStore(t, Config{
		PageBytes: 256, CacheBytes: 256,
		Retries: -1, BreakerThreshold: 2, BreakerCooldown: 5 * time.Millisecond, BreakerProbes: 2,
	}, 64)
	// Populate pages 0 and 1 while healthy.
	checkRow(t, s, srcs, 0, 0)
	checkRow(t, s, srcs, 0, 4)
	errDev := errors.New("device gone")
	hd.setRead(func(page int64, dst []byte) error { return errDev })
	dst := make([]float32, 16)
	if s.ReadRow(0, 0, dst) { // cache holds page 1; page 0 must hit the device
		t.Fatal("read served through a failed device")
	}
	if s.ReadRow(0, 1, dst) {
		t.Fatal("read served through a failed device")
	}
	st := s.Stats()
	if st.BreakerState != int64(BreakerOpen) || !st.Degraded {
		t.Fatalf("breaker not open after %d failures: %+v", st.ReadFailures, st)
	}
	if s.ReadRow(0, 2, dst) {
		t.Fatal("read served while breaker open")
	}
	if st := s.Stats(); st.BreakerRejects == 0 {
		t.Fatalf("open breaker did not fail fast: %+v", st)
	}
	// Device heals; after the cooldown the next reads are probes.
	hd.clearRead()
	time.Sleep(10 * time.Millisecond)
	checkRow(t, s, srcs, 0, 0)
	checkRow(t, s, srcs, 0, 4)
	st = s.Stats()
	if st.BreakerState != int64(BreakerClosed) || st.Degraded {
		t.Fatalf("breaker not closed after healthy probes: %+v", st)
	}
	if st.BreakerOpens < 1 || st.BreakerHalfOpens < 1 || st.BreakerCloses < 1 {
		t.Fatalf("transition counters: %+v", st)
	}
}

// TestBreakerStateMachine unit-tests the breaker directly: thresholds,
// cooldown gating, half-open failure, and probe-counted close.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(2, 2, 5*time.Millisecond)
	if !b.allow() || b.current() != BreakerClosed {
		t.Fatal("new breaker not closed")
	}
	b.onFailure()
	if b.current() != BreakerClosed {
		t.Fatal("opened below threshold")
	}
	b.onFailure()
	if b.current() != BreakerOpen {
		t.Fatal("did not open at threshold")
	}
	if b.allow() {
		t.Fatal("allowed read during cooldown")
	}
	time.Sleep(6 * time.Millisecond)
	if !b.allow() || b.current() != BreakerHalfOpen {
		t.Fatal("cooldown did not admit a probe")
	}
	b.onFailure()
	if b.current() != BreakerOpen {
		t.Fatal("half-open failure did not re-open")
	}
	time.Sleep(6 * time.Millisecond)
	if !b.allow() {
		t.Fatal("second cooldown did not admit a probe")
	}
	b.onSuccess()
	if b.current() != BreakerHalfOpen {
		t.Fatal("closed below probe count")
	}
	b.onSuccess()
	if b.current() != BreakerClosed {
		t.Fatal("probes did not close")
	}
	if b.opens.Load() != 2 || b.halfOpens.Load() != 2 || b.closes.Load() != 1 {
		t.Fatalf("transition counters: opens %d halfOpens %d closes %d",
			b.opens.Load(), b.halfOpens.Load(), b.closes.Load())
	}
}

// TestReadDeadlineAbandonsSlowRead checks a stalled device read is
// abandoned at the deadline and counted, and that Close still drains the
// abandoned straggler cleanly.
func TestReadDeadlineAbandonsSlowRead(t *testing.T) {
	s, srcs, hd := newHookedStore(t, Config{
		PageBytes: 256, CacheBytes: 256,
		Retries: -1, ReadDeadline: 2 * time.Millisecond,
	}, 64)
	checkRow(t, s, srcs, 0, 0) // populate while fast
	hd.setRead(func(page int64, dst []byte) error {
		time.Sleep(20 * time.Millisecond)
		return hd.inner.ReadPage(page, dst)
	})
	dst := make([]float32, 16)
	if s.ReadRow(0, 4, dst) {
		t.Fatal("read served past its deadline")
	}
	if st := s.Stats(); st.ReadTimeouts == 0 || st.ReadFailures == 0 {
		t.Fatalf("timeout not counted: %+v", st)
	}
	hd.clearRead()
	checkRow(t, s, srcs, 0, 4)
	// Close while a fresh straggler is still sleeping: must drain, not race
	// the unmap or leak.
	hd.setRead(func(page int64, dst []byte) error {
		time.Sleep(20 * time.Millisecond)
		return hd.inner.ReadPage(page, dst)
	})
	s.ReadRow(0, 8, dst)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestScrubberRepairsSilentCorruption checks the background scrubber finds
// and repairs corruption no read path has touched.
func TestScrubberRepairsSilentCorruption(t *testing.T) {
	s, srcs, hd := newHookedStore(t, Config{
		PageBytes: 256, CacheBytes: 256,
		ScrubInterval: time.Millisecond,
	}, 64)
	checkRow(t, s, srcs, 0, 0) // populate page 0
	// Flip bits on the backing medium underneath the store.
	junk := make([]byte, 256)
	if err := hd.inner.ReadPage(0, junk); err != nil {
		t.Fatalf("raw read: %v", err)
	}
	junk[17] ^= 0xff
	if err := hd.inner.WritePage(0, junk); err != nil {
		t.Fatalf("raw write: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.ChecksumFailures >= 1 && st.Repairs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrubber never repaired: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	// The repaired page serves reference bits (bypass the stale cache frame
	// by evicting first).
	checkRow(t, s, srcs, 0, 8)
	checkRow(t, s, srcs, 0, 1)
	if st := s.Stats(); st.ScrubPages == 0 {
		t.Fatalf("no scrub pages counted: %+v", st)
	}
}

// TestScrubberClosesBreakerAfterOutage checks auto-recovery with zero
// request traffic: a sticky device outage opens the breaker, and once the
// device returns the scrubber's probes alone close it. The cooldown is set
// far beyond the test so only the scrubber path (success-while-open) can
// recover it.
func TestScrubberClosesBreakerAfterOutage(t *testing.T) {
	s, srcs, hd := newHookedStore(t, Config{
		PageBytes: 256, CacheBytes: 256,
		Retries: -1, BreakerThreshold: 1, BreakerProbes: 1,
		BreakerCooldown: time.Hour, ScrubInterval: time.Millisecond,
	}, 64)
	checkRow(t, s, srcs, 0, 0)
	errDev := errors.New("device gone")
	hd.setRead(func(page int64, dst []byte) error { return errDev })
	deadline := time.Now().Add(5 * time.Second)
	for !s.Degraded() { // scrubber probes trip the breaker on their own
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	hd.clearRead()
	for s.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("scrubber never closed the breaker: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.BreakerCloses == 0 {
		t.Fatalf("no close transition counted: %+v", st)
	}
	checkRow(t, s, srcs, 0, 1)
}

// TestCloseIdempotentConcurrent is the Close hardening proof: double close
// from racing goroutines, Close racing live readers and the scrubber,
// and post-close operations — all clean under -race.
func TestCloseIdempotentConcurrent(t *testing.T) {
	s, srcs := newTestStore(t, Config{
		PageBytes: 256, CacheBytes: 512,
		ScrubInterval: time.Millisecond,
	}, 256)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			got := make([]float32, 16)
			want := make([]float32, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				idx := int64(rng.Intn(256))
				if s.ReadRow(0, idx, got) { // false once closing: fine
					srcs[0].Row(idx, want)
					for j := range want {
						if got[j] != want[j] {
							t.Errorf("row %d elem %d: %v != %v", idx, j, got[j], want[j])
							return
						}
					}
				}
			}
		}(int64(w))
	}
	time.Sleep(5 * time.Millisecond) // let reads overlap the close
	var errs [2]error
	var cwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cwg.Add(1)
		go func(i int) { defer cwg.Done(); errs[i] = s.Close() }(i)
	}
	cwg.Wait()
	close(stop)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Close %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("third Close: %v", err)
	}
	dst := make([]float32, 16)
	if s.ReadRow(0, 0, dst) {
		t.Fatal("read served after Close")
	}
}

// TestCorruptionHammer races concurrent readers against randomly
// corrupted device reads. Corruption is always repaired inline, so every
// served row must be bit-identical to the reference — under -race this is
// the read and integrity paths' thread-safety proof.
func TestCorruptionHammer(t *testing.T) {
	s, srcs, hd := newHookedStore(t, Config{PageBytes: 256, CacheBytes: 1024}, 256)
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(11))
	hd.setRead(func(page int64, dst []byte) error {
		err := hd.inner.ReadPage(page, dst)
		mu.Lock()
		corrupt := rng.Intn(8) == 0
		mu.Unlock()
		if err == nil && corrupt {
			dst[int(page)%len(dst)] ^= 0xff
		}
		return err
	})
	const readers, reads = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			got := make([]float32, 16)
			want := make([]float32, 16)
			for i := 0; i < reads; i++ {
				idx := int64(rr.Intn(256))
				if !s.ReadRow(0, idx, got) {
					t.Errorf("row %d not served (corruption is repairable, not fatal)", idx)
					return
				}
				srcs[0].Row(idx, want)
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("row %d elem %d: %v != %v", idx, j, got[j], want[j])
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := s.Stats()
	if st.ChecksumFailures == 0 || st.Repairs == 0 {
		t.Fatalf("hammer never exercised the repair path: %+v", st)
	}
	if st.Degraded {
		t.Fatalf("repairable corruption degraded the store: %+v", st)
	}
}
