package coldstore

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"recross/internal/kernels"
	"recross/internal/metrics"
)

// testSource is a deterministic RowSource: element (id, row, j) is a fixed
// function of its coordinates, so any two materializations of a row are
// bit-identical — the property the store must preserve through its file.
type testSource struct {
	id     uint64
	rows   int64
	vecLen int
}

func (t *testSource) Rows() int64 { return t.rows }

func (t *testSource) VecLen() int { return t.vecLen }

func (t *testSource) Row(i int64, dst []float32) []float32 {
	x := t.id*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	for j := range dst {
		x ^= x >> 29
		x *= 0x94D049BB133111EB
		dst[j] = float32(x>>40)/float32(1<<23) - 1
	}
	return dst
}

func newTestStore(t *testing.T, cfg Config, rows ...int64) (*Store, []RowSource) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	srcs := make([]RowSource, len(rows))
	for i, n := range rows {
		srcs[i] = &testSource{id: uint64(i) + 1, rows: n, vecLen: 16}
	}
	s, err := Open(cfg, srcs)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, srcs
}

// TestReadRowBitIdentical checks every row of every table round-trips the
// file bit-for-bit.
func TestReadRowBitIdentical(t *testing.T) {
	// One subtest: the store's one backing device (file pread/pwrite).
	t.Run("pread", func(t *testing.T) {
		s, srcs := newTestStore(t, Config{PageBytes: 256, CacheBytes: 1024}, 37, 101)
		got := make([]float32, 16)
		want := make([]float32, 16)
		for ti, src := range srcs {
			for i := int64(0); i < src.Rows(); i++ {
				if !s.ReadRow(ti, i, got) {
					t.Fatalf("table %d row %d not held", ti, i)
				}
				src.Row(i, want)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("table %d row %d elem %d: %v != %v", ti, i, j, got[j], want[j])
					}
				}
			}
		}
		if s.Stats().RowReads == 0 {
			t.Fatal("no row reads counted")
		}
	})
}

// TestReadRowOutOfRange checks bad coordinates report "not held" instead
// of serving wrong bits.
func TestReadRowOutOfRange(t *testing.T) {
	s, _ := newTestStore(t, Config{}, 10)
	dst := make([]float32, 16)
	for _, c := range []struct {
		ti  int
		idx int64
	}{{-1, 0}, {1, 0}, {0, -1}, {0, 10}} {
		if s.ReadRow(c.ti, c.idx, dst) {
			t.Fatalf("ReadRow(%d, %d) claimed success", c.ti, c.idx)
		}
	}
}

// TestPageCacheCounters checks hit/miss/eviction accounting through a
// cache sized to two pages.
func TestPageCacheCounters(t *testing.T) {
	// 4 rows per page (16 floats * 4 B = 64 B vectors, 256 B pages),
	// cache of exactly 2 pages.
	s, _ := newTestStore(t, Config{PageBytes: 256, CacheBytes: 512}, 64)
	buf := make([]float32, 16)
	s.ReadRow(0, 0, buf) // page 0 miss
	s.ReadRow(0, 1, buf) // page 0 hit
	s.ReadRow(0, 4, buf) // page 1 miss
	st := s.Stats()
	if st.PageMisses != 2 || st.PageHits != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", st.PageHits, st.PageMisses)
	}
	// Stream the rest: must evict.
	for i := int64(8); i < 64; i += 4 {
		s.ReadRow(0, i, buf)
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions after streaming %d pages through 2 frames", 64/4)
	}
}

// TestPageCacheBudget pins what CacheBytes buys: frames hold device pages,
// so at every precision the cache's arena is CacheBytes/PageBytes frames
// (at least one) of PageBytes each and never exceeds the configured budget
// — a quantized page's frame is no larger than an fp32 page's.
func TestPageCacheBudget(t *testing.T) {
	const pageBytes = 4096
	for _, prec := range []kernels.Precision{kernels.FP32, kernels.INT8} {
		for _, cacheBytes := range []int64{1, pageBytes, 10*pageBytes + 100, 64 * pageBytes} {
			src := &testSource{id: 1, rows: 1000, vecLen: 64}
			s, err := Open(Config{Dir: t.TempDir(), PageBytes: pageBytes, CacheBytes: cacheBytes, Precision: prec}, []RowSource{src})
			if err != nil {
				t.Fatal(err)
			}
			frames := max(cacheBytes/pageBytes, 1)
			if got := s.Stats().CachePages; got != frames {
				t.Errorf("%v CacheBytes %d: %d frames, want %d", prec, cacheBytes, got, frames)
			}
			arena := int64(len(s.cache.frames))
			if arena != frames*pageBytes || arena > max(cacheBytes, pageBytes) {
				t.Errorf("%v CacheBytes %d: arena %d B, want %d frames x %d B within the budget", prec, cacheBytes, arena, frames, pageBytes)
			}
			s.Close()
		}
	}
}

// TestColdStoreIdleGoroutines: a store with the scrubber off is passive —
// Open starts no goroutine and a served read leaves none behind, so a
// cold stack at rest costs only its memory.
func TestColdStoreIdleGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s, _ := newTestStore(t, Config{PageBytes: 256}, 64)
	if !s.ReadRow(0, 12, make([]float32, 16)) {
		t.Fatal("row not served")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("open store with ScrubInterval 0 runs %d goroutine(s)", after-before)
	}
}

// TestSimDeterministicAndISR checks the replica timing model: identical
// slot streams price identically, repeated pages hit the device buffer,
// and in-storage reduction cuts the link transfer for pooled gathers.
func TestSimDeterministicAndISR(t *testing.T) {
	spec := Config{PageBytes: 256}
	vecBytes := 64
	slots := make([]int64, 0, 128)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 128; i++ {
		slots = append(slots, int64(rng.Intn(1024)))
	}
	a, b := NewSim(spec, vecBytes), NewSim(spec, vecBytes)
	ca, ra, ha := a.Batch(slots, 4)
	cb, rb, hb := b.Batch(slots, 4)
	if ca != cb || ra != rb || ha != hb {
		t.Fatalf("same stream priced differently: (%d,%d,%d) vs (%d,%d,%d)", ca, ra, ha, cb, rb, hb)
	}
	if ra == 0 {
		t.Fatal("no page reads priced")
	}
	// Rerunning the same batch must mostly hit the device buffer.
	_, r2, h2 := a.Batch(slots, 4)
	if h2 <= ha || r2 >= ra {
		t.Fatalf("no buffer reuse on rerun: reads %d->%d hits %d->%d", ra, r2, ha, h2)
	}

	// A link-bound stream (every slot in one cached page) must get faster
	// with in-storage reduction: the link carries ops, not rows.
	isr := Config{PageBytes: 256, InStorageReduce: true}
	hot := make([]int64, 512)
	host, dev := NewSim(spec, vecBytes), NewSim(isr, vecBytes)
	host.Batch(hot[:1], 1) // warm the single page in both buffers
	dev.Batch(hot[:1], 1)
	ch, _, _ := host.Batch(hot, 8)
	cd, _, _ := dev.Batch(hot, 8)
	if cd >= ch {
		t.Fatalf("in-storage reduce not faster on link-bound stream: %d >= %d", cd, ch)
	}
}

// TestEffectiveBWOrdersBelowDRAM pins the LP pricing property the fourth
// region depends on: cold bandwidth is far below any DRAM region's.
func TestEffectiveBWOrdersBelowDRAM(t *testing.T) {
	m := DefaultModel()
	bw := m.EffectiveBW(256, false)
	if bw <= 0 || bw > 1 {
		t.Fatalf("cold EffectiveBW = %v, want (0, 1] bytes/cycle", bw)
	}
	if isr := m.EffectiveBW(256, true); isr <= 0 {
		t.Fatalf("ISR EffectiveBW = %v", isr)
	}
}

// TestExpoSchema: the registered recross_coldstore_* series read the
// store's live counters (their names are held by the root metrics golden).
func TestExpoSchema(t *testing.T) {
	s, _ := newTestStore(t, Config{}, 8)
	set := metrics.NewSet()
	s.RegisterMetrics(set)
	buf := make([]float32, 16)
	s.ReadRow(0, 3, buf)
	s.ReadRow(0, 3, buf)
	var b strings.Builder
	set.WriteTo(&b)
	for _, want := range []string{
		"recross_coldstore_row_reads_total 2\n",
		"recross_coldstore_page_misses_total 1\n",
		"recross_coldstore_page_hits_total 1\n",
		"recross_coldstore_pages_populated_total 1\n",
		"recross_coldstore_page_hit_rate 0.5\n",
		"recross_coldstore_breaker_state 0\n",
		"recross_coldstore_pages 1\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}
}

// TestSimFixedTrace pins the page buffer's replacement order: hit, read
// and cycle totals over a skewed 40-batch stream, recorded before the
// buffer moved onto the shared cache.Clock. Any change in which page a
// sweep evicts shows up in these totals.
func TestSimFixedTrace(t *testing.T) {
	s := NewSim(Config{PageBytes: 256}, 64)
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.1, 4, 4095)
	var cycles, reads, hits int64
	for b := 0; b < 40; b++ {
		slots := make([]int64, 96)
		for i := range slots {
			slots[i] = int64(zipf.Uint64())
		}
		c, r, h := s.Batch(slots, 6)
		cycles, reads, hits = cycles+int64(c), reads+r, hits+h
	}
	if cycles != 8700000 || reads != 1740 || hits != 2100 {
		t.Fatalf("cycles %d reads %d hits %d, want 8700000 / 1740 / 2100", cycles, reads, hits)
	}
}
