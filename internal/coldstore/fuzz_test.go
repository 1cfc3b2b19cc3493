package coldstore

import (
	"bytes"
	"testing"

	"recross/internal/kernels"
	"recross/internal/stats"
)

// FuzzColdPageBytes feeds the read path arbitrary device bytes: the hooked
// device overwrites the head of the page it returns with the fuzz input,
// for a fuzz-chosen precision and row. A served row is always the
// reference bits: the damage is caught and repaired, never decoded into an
// answer.
func FuzzColdPageBytes(f *testing.F) {
	const rows, vecLen, pageBytes = 300, 16, 512
	// Seeds: a valid int8 page, the same page with one scale header
	// flipped, all-zero and all-0xFF pages — at the int8 layout they were
	// built for and misread as fp32's.
	valid := make([]byte, pageBytes)
	src := &testSource{id: 1, rows: rows, vecLen: vecLen}
	row := make([]float32, vecLen)
	rowBytes := kernels.INT8.RowBytes(vecLen)
	for k := 0; k < pageBytes/rowBytes; k++ {
		kernels.EncodeRow(kernels.INT8, valid[k*rowBytes:], src.Row(int64(k), row))
	}
	flipped := append([]byte(nil), valid...)
	flipped[2*rowBytes+3] ^= 0x80 // row 2's scale: sign/exponent bit
	ones := bytes.Repeat([]byte{0xff}, pageBytes)
	f.Add(valid, uint8(1), uint16(2))
	f.Add(flipped, uint8(1), uint16(2))
	f.Add(make([]byte, pageBytes), uint8(0), uint16(40))
	f.Add(ones, uint8(1), uint16(7))
	f.Add(ones, uint8(0), uint16(299))
	f.Add(valid, uint8(0), uint16(2))
	f.Add(valid, uint8(1), uint16(3))
	f.Add(flipped, uint8(0), uint16(3))
	f.Add(make([]byte, pageBytes), uint8(1), uint16(0))
	f.Add(ones, uint8(0), uint16(150))

	f.Fuzz(func(t *testing.T, data []byte, precSel uint8, rowSel uint16) {
		prec := []kernels.Precision{kernels.FP32, kernels.INT8}[precSel%2]
		idx := int64(rowSel) % rows
		s, src, hd := openQuantStore(t, prec, rows, vecLen, Config{PageBytes: pageBytes})
		hd.setRead(func(page int64, dst []byte) error {
			err := hd.inner.ReadPage(page, dst)
			copy(dst, data)
			return err
		})
		got := make([]float32, vecLen)
		served := s.ReadRow(0, idx, got)
		if !served {
			return
		}
		want := make([]float32, vecLen)
		canonicalRow(prec, src, idx, want)
		if d := stats.MaxULPDistance(got, want); d != 0 {
			t.Fatalf("%v row %d: served row is %d ULP off the reference — fuzzed bytes reached an answer", prec, idx, d)
		}
		if st := s.Stats(); st.ChecksumFailures != st.Repairs {
			t.Fatalf("%d checksum failures but %d repairs", st.ChecksumFailures, st.Repairs)
		}
	})
}
