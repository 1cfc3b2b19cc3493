//go:build !race

package coldstore

import (
	"testing"

	"recross/internal/kernels"
)

// TestReadRowZeroAlloc asserts the read path allocates nothing in steady
// state, on a page-cache hit and on a device miss alike: a hit decodes one
// row out of the frame, a miss reads into a pooled page buffer, decodes one
// row and copies the buffer into a frame. (Not built under -race: there
// sync.Pool drops buffers at random, so the pool itself allocates.)
func TestReadRowZeroAlloc(t *testing.T) {
	for _, prec := range []kernels.Precision{kernels.FP32, kernels.INT8} {
		src := &testSource{id: 1, rows: 4000, vecLen: 64}
		s, err := Open(Config{
			Dir: t.TempDir(), PageBytes: 16 << 10, CacheBytes: 16 << 10, // one frame
			Precision: prec,
		}, []RowSource{src})
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float32, 64)
		far := int64(s.RowsPerPage()) * 2
		s.ReadRow(0, far, dst) // populate both pages, warm the buffer pool
		s.ReadRow(0, 0, dst)

		before := s.Stats()
		if n := testing.AllocsPerRun(200, func() { s.ReadRow(0, 1, dst) }); n != 0 {
			t.Errorf("%v: ReadRow allocates %v per cache hit, want 0", prec, n)
		}
		if st := s.Stats(); st.PageReads != before.PageReads {
			t.Fatalf("%v: hit path went to the device: %+v", prec, st)
		}

		before = s.Stats()
		var flip int64
		if n := testing.AllocsPerRun(200, func() {
			flip ^= far // alternate two pages through the one frame
			s.ReadRow(0, flip, dst)
		}); n != 0 {
			t.Errorf("%v: ReadRow allocates %v per device miss, want 0", prec, n)
		}
		if st := s.Stats(); st.PageHits != before.PageHits {
			t.Fatalf("%v: miss path hit the cache: %+v", prec, st)
		}
		s.Close()
	}
}
