package coldstore

import (
	"math"
	"math/rand"
	"testing"

	"recross/internal/kernels"
	"recross/internal/stats"
)

// Quantized page-format tests: a store opened at INT8 serves the
// canonical Decode(Encode(row)) value of every row — bit-identical to
// encoding the source row directly — with error against the fp32 source
// bounded by the codec parameters, and survives checksum repair exactly
// like the fp32 format.

func openQuantStore(t *testing.T, prec kernels.Precision, rows int64, vecLen int, cfg Config) (*Store, RowSource, *hookDev) {
	t.Helper()
	src := &testSource{id: 1, rows: rows, vecLen: vecLen}
	hd := &hookDev{}
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	cfg.Precision = prec
	prev := cfg.WrapDevice
	cfg.WrapDevice = func(d Device) Device {
		if prev != nil {
			d = prev(d)
		}
		hd.inner = d
		return hd
	}
	s, err := Open(cfg, []RowSource{src})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, src, hd
}

// canonicalRow computes the reference serving value: the source row
// passed once through the precision's codec.
func canonicalRow(prec kernels.Precision, src RowSource, idx int64, dst []float32) {
	raw := make([]float32, src.VecLen())
	src.Row(idx, raw)
	buf := make([]byte, prec.RowBytes(len(raw)))
	kernels.EncodeRow(prec, buf, raw)
	kernels.DecodeRow(prec, dst, buf)
}

func TestQuantizedReadRowCanonical(t *testing.T) {
	const prec = kernels.INT8
	s, src, _ := openQuantStore(t, prec, 3000, 48, Config{PageBytes: 4096})
	got := make([]float32, 48)
	want := make([]float32, 48)
	raw := make([]float32, 48)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		idx := rng.Int63n(3000)
		if !s.ReadRow(0, idx, got) {
			t.Fatalf("%v: row %d unavailable", prec, idx)
		}
		canonicalRow(prec, src, idx, want)
		if d := stats.MaxULPDistance(got, want); d != 0 {
			t.Fatalf("%v row %d: served row differs from canonical codec value (%d ULP)", prec, idx, d)
		}
		// And the codec error versus the fp32 source stays within the
		// derived scale-grid bound.
		src.Row(idx, raw)
		absMax := 0.0
		for _, v := range raw {
			if a := math.Abs(float64(v)); a > absMax {
				absMax = a
			}
		}
		q8 := make([]uint8, len(raw))
		scale, _ := kernels.QuantizeI8(q8, raw)
		bound := math.Abs(float64(scale))*(0.5+math.Pow(2, -13)) + math.Pow(2, -24)*absMax
		if e := stats.MaxAbsError(got, raw); e > bound {
			t.Fatalf("%v row %d: codec error %g above derived bound %g", prec, idx, e, bound)
		}
	}
}

func TestQuantizedRowsPerPage(t *testing.T) {
	// Smaller encoded rows must pack more rows per page: that is the whole
	// bandwidth case for the quantized cold tier.
	base, _, _ := openQuantStore(t, kernels.FP32, 1000, 64, Config{PageBytes: 16 << 10})
	i8, _, _ := openQuantStore(t, kernels.INT8, 1000, 64, Config{PageBytes: 16 << 10})
	if base.RowsPerPage() != 64 {
		t.Fatalf("fp32 rpp = %d, want 64", base.RowsPerPage())
	}
	if i8.RowsPerPage() != (16<<10)/72 { // 64 codes + 8 header bytes per row
		t.Fatalf("int8 rpp = %d, want %d", i8.RowsPerPage(), (16<<10)/72)
	}
}

// TestQuantizedChecksumRepair checks the CRC32C blocks cover the encoded
// bytes: flipped bits in a quantized page are caught at device-read time
// and the page is re-encoded bit-exactly from the source.
func TestQuantizedChecksumRepair(t *testing.T) {
	const prec = kernels.INT8
	s, src, hd := openQuantStore(t, prec, 500, 32, Config{
		PageBytes:  2048,
		CacheBytes: 2048, // one frame: rereads hit the device
	})
	got := make([]float32, 32)
	if !s.ReadRow(0, 7, got) {
		t.Fatal("populate read failed")
	}
	// Evict page 0 by touching a distant page, then corrupt device reads.
	far := int64(s.RowsPerPage() * 3)
	if !s.ReadRow(0, far, got) {
		t.Fatal("eviction read failed")
	}
	hd.setRead(func(page int64, dst []byte) error {
		err := hd.inner.ReadPage(page, dst)
		if err == nil && page == 0 {
			dst[3] ^= 0xff
		}
		return err
	})
	if !s.ReadRow(0, 7, got) {
		t.Fatalf("%v: read after corruption failed", prec)
	}
	hd.clearRead()
	st := s.Stats()
	if st.ChecksumFailures == 0 || st.Repairs == 0 {
		t.Fatalf("%v: corruption not detected/repaired: %+v", prec, st)
	}
	want := make([]float32, 32)
	canonicalRow(prec, src, 7, want)
	if stats.MaxULPDistance(got, want) != 0 {
		t.Fatalf("%v: repaired row is not the canonical codec value", prec)
	}
}

// TestQuantizedBlockGranularIntegrity pins the one integrity rule at the
// precision it used not to hold for: a device read of an int8 page checks
// only the checksum block it serves, and corruption in another block is
// caught on that block's first serve from the cache — never served, never
// charged to the rows that were fine.
func TestQuantizedBlockGranularIntegrity(t *testing.T) {
	s, src, hd := openQuantStore(t, kernels.INT8, 2000, 64, Config{
		PageBytes:  16 << 10,
		CacheBytes: 16 << 10, // one frame: rereads hit the device
	})
	if s.bpp < 2 {
		t.Fatalf("layout has %d checksum blocks per page, need 2", s.bpp)
	}
	rowA, rowB := int64(3), int64(s.blockRows+5) // page 0, blocks 0 and 1
	got := make([]float32, 64)
	want := make([]float32, 64)
	check := func(idx int64) {
		t.Helper()
		if !s.ReadRow(0, idx, got) {
			t.Fatalf("row %d not served", idx)
		}
		canonicalRow(kernels.INT8, src, idx, want)
		if stats.MaxULPDistance(got, want) != 0 {
			t.Fatalf("row %d: served bits are not the canonical codec value", idx)
		}
	}
	check(rowA)                       // populate page 0
	check(int64(s.RowsPerPage()) * 3) // evict it from the one frame
	// Flip bits on the medium underneath the store, in block B only.
	page := make([]byte, s.cfg.PageBytes)
	if err := hd.inner.ReadPage(0, page); err != nil {
		t.Fatal(err)
	}
	lo, _ := s.blockSpan(1)
	page[lo+int(rowB-int64(s.blockRows))*s.rowBytes+kernels.I8RowOverhead+7] ^= 0xff
	if err := hd.inner.WritePage(0, page); err != nil {
		t.Fatal(err)
	}

	check(rowA) // device read verifies block A only
	if st := s.Stats(); st.ChecksumFailures != 0 || st.Repairs != 0 {
		t.Fatalf("damage in block B charged to a read of block A: %+v", st)
	}
	check(rowB) // first serve of block B from the frame: caught, repaired
	st := s.Stats()
	if st.ChecksumFailures != 1 || st.Repairs != 1 {
		t.Fatalf("checksum failures %d repairs %d after reading the damaged block, want 1 and 1", st.ChecksumFailures, st.Repairs)
	}
	check(rowA)
	check(rowB)
	after := s.Stats()
	if after.PageHits != st.PageHits+2 || after.PageReads != st.PageReads ||
		after.ChecksumFailures != 1 || after.Repairs != 1 {
		t.Fatalf("rereads after the repair were not clean hits: %+v -> %+v", st, after)
	}
}
