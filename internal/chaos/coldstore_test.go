package chaos

import (
	"sync"
	"testing"
	"time"

	"recross/internal/coldstore"
)

// memDev is a trivial in-memory page device for wrapper-level tests.
type memDev struct {
	mu        sync.Mutex
	pages     map[int64][]byte
	pageBytes int
}

func newMemDev(pageBytes int) *memDev {
	return &memDev{pages: map[int64][]byte{}, pageBytes: pageBytes}
}

func (d *memDev) ReadPage(page int64, dst []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.pages[page]; ok {
		copy(dst, p)
		return nil
	}
	for i := range dst {
		dst[i] = 0
	}
	return nil
}

func (d *memDev) WritePage(page int64, src []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := make([]byte, d.pageBytes)
	copy(p, src)
	d.pages[page] = p
	return nil
}

// faultTrace replays n reads through a wrapper and records which ops
// errored and which returned damaged payloads.
func faultTrace(d *FaultyColdStore, ref *memDev, n int) string {
	want := make([]byte, ref.pageBytes)
	got := make([]byte, ref.pageBytes)
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		page := int64(i % 4)
		ref.ReadPage(page, want)
		err := d.ReadPage(page, got)
		switch {
		case err != nil:
			out[i] = 'e'
		case string(got) != string(want):
			out[i] = 'c'
		default:
			out[i] = '.'
		}
	}
	return string(out)
}

// TestColdFaultDeterminism checks the fault sequence is a pure function of
// (seed, operation sequence): same seed replays identically, a different
// seed diverges.
func TestColdFaultDeterminism(t *testing.T) {
	mk := func(seed int64) (*FaultyColdStore, *memDev) {
		ref := newMemDev(64)
		for p := int64(0); p < 4; p++ {
			buf := make([]byte, 64)
			for i := range buf {
				buf[i] = byte(p)
			}
			ref.WritePage(p, buf)
		}
		cfg := ColdConfig{Rates: ColdRates{ReadErr: 0.1, CorruptPage: 0.1}, Seed: seed}
		return WrapColdDevice(ref, cfg, nil), ref
	}
	a, refA := mk(7)
	b, refB := mk(7)
	c, refC := mk(8)
	ta, tb, tc := faultTrace(a, refA, 200), faultTrace(b, refB, 200), faultTrace(c, refC, 200)
	if ta != tb {
		t.Fatalf("same seed diverged:\n%s\n%s", ta, tb)
	}
	if ta == tc {
		t.Fatalf("different seeds produced identical fault sequences")
	}
	var faults int
	for _, ch := range ta {
		if ch != '.' {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no faults injected at 20% combined rate over 200 ops")
	}
}

// TestColdScheduleFires checks scripted faults fire on their exact
// operation — regardless of the injector's enabled switch — and land in
// the shared per-kind counters.
func TestColdScheduleFires(t *testing.T) {
	ref := newMemDev(64)
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xAB
	}
	ref.WritePage(0, buf)
	inj := NewInjector()
	inj.SetEnabled(false) // schedule must fire anyway
	d := WrapColdDevice(ref, ColdConfig{
		Stall: time.Millisecond,
		Schedule: []ColdRule{
			{Op: 2, Kind: ReadErr},
			{Op: 3, Kind: CorruptPage},
			{Op: 4, Kind: Stall},
			{Op: 2, Kind: TornWrite},
		},
	}, inj)
	dst := make([]byte, 64)
	if err := d.ReadPage(0, dst); err != nil { // op 1: clean
		t.Fatalf("op 1: %v", err)
	}
	if err := d.ReadPage(0, dst); err == nil { // op 2: scripted ReadErr
		t.Fatal("op 2: scripted read error did not fire")
	}
	if err := d.ReadPage(0, dst); err != nil { // op 3: scripted corruption
		t.Fatalf("op 3: %v", err)
	}
	if string(dst) == string(buf) {
		t.Fatal("op 3: scripted corruption left the page clean")
	}
	t0 := time.Now()
	if err := d.ReadPage(0, dst); err != nil { // op 4: scripted stall
		t.Fatalf("op 4: %v", err)
	}
	if time.Since(t0) < time.Millisecond {
		t.Fatal("op 4: scripted stall did not delay")
	}
	if err := d.WritePage(1, buf); err != nil { // write op 1: clean
		t.Fatalf("write 1: %v", err)
	}
	if err := d.WritePage(1, buf); err != nil { // write op 2: torn, silent
		t.Fatalf("write 2 (torn) reported: %v", err)
	}
	half := make([]byte, 64)
	ref.ReadPage(1, half)
	if string(half[:32]) != string(buf[:32]) || string(half[32:]) == string(buf[32:]) {
		t.Fatal("torn write did not persist exactly the first half")
	}
	for _, k := range []Kind{ReadErr, CorruptPage, Stall, TornWrite} {
		if inj.Count(k) != 1 {
			t.Fatalf("count(%v) = %d, want 1", k, inj.Count(k))
		}
	}
}

// coldSource is a deterministic RowSource for store-level tests.
type coldSource struct{ rows int64 }

func (c *coldSource) Rows() int64 { return c.rows }
func (c *coldSource) VecLen() int { return 16 }
func (c *coldSource) Row(i int64, dst []float32) []float32 {
	x := uint64(i)*0xBF58476D1CE4E5B9 + 0x9E3779B97F4A7C15
	for j := range dst {
		x ^= x >> 29
		x *= 0x94D049BB133111EB
		dst[j] = float32(x>>40)/float32(1<<23) - 1
	}
	return dst
}

// TestFailDeviceBreakerCycle drives a real store through a sticky device
// outage via the wrapper: the breaker opens (reads fail fast into the
// caller's fallback), RestoreDevice plus the scrubber's probes close it
// again, and post-recovery reads are bit-identical.
func TestFailDeviceBreakerCycle(t *testing.T) {
	var dev *FaultyColdStore
	cfg := coldstore.Config{
		Dir: t.TempDir(), PageBytes: 256, CacheBytes: 256,
		Retries: -1, BreakerThreshold: 1, BreakerProbes: 1,
		BreakerCooldown: time.Hour, // only the scrubber may recover it
		ScrubInterval:   time.Millisecond,
		WrapDevice: func(d coldstore.Device) coldstore.Device {
			dev = WrapColdDevice(d, ColdConfig{}, nil)
			return dev
		},
	}
	src := &coldSource{rows: 64}
	s, err := coldstore.Open(cfg, []coldstore.RowSource{src})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	got := make([]float32, 16)
	want := make([]float32, 16)
	if !s.ReadRow(0, 0, got) {
		t.Fatal("healthy read failed")
	}
	dev.FailDevice()
	if !dev.Failed() {
		t.Fatal("Failed() after FailDevice")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !s.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if s.ReadRow(0, 20, got) { // uncached page through a failed device
		t.Fatal("read served during sticky outage")
	}
	dev.RestoreDevice()
	for s.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after restore: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	for i := int64(0); i < 64; i++ {
		if !s.ReadRow(0, i, got) {
			t.Fatalf("row %d not served after recovery", i)
		}
		src.Row(i, want)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d elem %d after recovery: %v != %v", i, j, got[j], want[j])
			}
		}
	}
	st := s.Stats()
	if st.BreakerOpens == 0 || st.BreakerCloses == 0 {
		t.Fatalf("breaker transitions not counted: %+v", st)
	}
}

// TestColdCorruptionRepairedThroughWrapper checks probabilistic page
// corruption from the wrapper is always absorbed by checksum repair: the
// store never serves damaged bits and never degrades.
func TestColdCorruptionRepairedThroughWrapper(t *testing.T) {
	cfg := coldstore.Config{
		Dir: t.TempDir(), PageBytes: 256, CacheBytes: 256,
		WrapDevice: func(d coldstore.Device) coldstore.Device {
			return WrapColdDevice(d, ColdConfig{Rates: ColdRates{CorruptPage: 0.3}, Seed: 5}, nil)
		},
	}
	src := &coldSource{rows: 256}
	s, err := coldstore.Open(cfg, []coldstore.RowSource{src})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	got := make([]float32, 16)
	want := make([]float32, 16)
	for pass := 0; pass < 3; pass++ {
		for i := int64(0); i < 256; i++ {
			if !s.ReadRow(0, i, got) {
				t.Fatalf("pass %d row %d not served", pass, i)
			}
			src.Row(i, want)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("pass %d row %d elem %d: %v != %v", pass, i, j, got[j], want[j])
				}
			}
		}
	}
	st := s.Stats()
	if st.ChecksumFailures == 0 || st.Repairs == 0 {
		t.Fatalf("30%% corruption never hit the repair path: %+v", st)
	}
	if st.Degraded {
		t.Fatalf("repairable corruption degraded the store: %+v", st)
	}
}
