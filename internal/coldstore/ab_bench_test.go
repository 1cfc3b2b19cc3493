package coldstore

import (
	"testing"

	"recross/internal/kernels"
)

// benchPageRead measures the uncached row-read path — device page read,
// integrity verification, one-row decode and the frame install — with a
// one-frame cache so every operation goes to the device. At every
// precision a fill checks only the ~4 KiB checksum block it serves
// (~0.2 µs), not the whole page, and installs the page's device bytes with
// one PageBytes copy.
func benchPageRead(b *testing.B, prec kernels.Precision) {
	cfg := Config{Dir: b.TempDir(), PageBytes: 16 << 10, CacheBytes: 1, Precision: prec}
	src := &testSource{id: 1, rows: 200000, vecLen: 64}
	s, err := Open(cfg, []RowSource{src})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	dst := make([]float32, 64)
	rows := int64(200000)
	for i := int64(0); i < rows; i += int64(s.RowsPerPage()) {
		s.ReadRow(0, i, dst)
	}
	stride := int64(s.RowsPerPage())
	var idx int64
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ReadRow(0, idx%rows, dst)
		idx += stride
	}
}

func BenchmarkPageReadChecksumFP32(b *testing.B) { benchPageRead(b, kernels.FP32) }
func BenchmarkPageReadChecksumINT8(b *testing.B) { benchPageRead(b, kernels.INT8) }
