package embedding

import (
	"fmt"
	"sync/atomic"

	"recross/internal/kernels"
)

// quantSlabRows is the materialization granularity of a QuantTable: rows
// quantize lazily in slabs of this many rows, so only the touched part of
// a huge procedural table ever becomes resident (mirroring the cold
// store's lazy page population).
const quantSlabRows = 4096

// qslab is one materialized slab of int8 rows: the codes, with each row's
// affine parameters beside them.
type qslab struct {
	q8    []uint8
	scale []float32
	zero  []int32
}

// QuantTable wraps a source table with int8 backing storage: rows are
// encoded lazily, slab by slab, and every read serves the dequantized
// code — so the canonical value of row i is Decode(Encode(src.Row(i))),
// identical on every path that touches it.
// The fused reduce path in Layer.ReduceInto accumulates straight from the
// quantized codes; Row decodes with the same single-rounded per-lane
// expression, so the two agree bit-for-bit (see internal/kernels).
//
// Reads are safe for concurrent use: slabs publish by compare-and-swap
// and their content is deterministic, so racing builders agree.
type QuantTable struct {
	src    Table
	rows   int64
	vecLen int
	slabs  []atomic.Pointer[qslab]
}

// NewQuantTable builds quantized backing for src at prec, which must be
// INT8.
func NewQuantTable(src Table, prec kernels.Precision) (*QuantTable, error) {
	if prec != kernels.INT8 {
		return nil, fmt.Errorf("embedding: quantized table precision must be int8, got %v", prec)
	}
	rows := src.Rows()
	nSlabs := (rows + quantSlabRows - 1) / quantSlabRows
	return &QuantTable{
		src:    src,
		rows:   rows,
		vecLen: src.VecLen(),
		slabs:  make([]atomic.Pointer[qslab], nSlabs),
	}, nil
}

// Source returns the wrapped full-precision table.
func (t *QuantTable) Source() Table { return t.src }

func (t *QuantTable) Rows() int64 { return t.rows }

func (t *QuantTable) VecLen() int { return t.vecLen }

// Row writes the canonical (quantize-then-dequantize) value of row i into
// dst. Bounds panics match the source table's.
func (t *QuantTable) Row(i int64, dst []float32) []float32 {
	if i < 0 || i >= t.rows {
		panic(fmt.Sprintf("embedding: row %d out of [0,%d)", i, t.rows))
	}
	if len(dst) != t.vecLen {
		panic(fmt.Sprintf("embedding: dst length %d != %d", len(dst), t.vecLen))
	}
	q, scale, zero := t.rowI8(i)
	kernels.DecodeI8(dst, q, scale, zero)
	return dst
}

// rowI8 returns row i's int8 codes and affine parameters.
func (t *QuantTable) rowI8(i int64) ([]uint8, float32, int32) {
	s := t.slab(i / quantSlabRows)
	r := int(i % quantSlabRows)
	off := r * t.vecLen
	return s.q8[off : off+t.vecLen : off+t.vecLen], s.scale[r], s.zero[r]
}

func (t *QuantTable) slab(si int64) *qslab {
	if s := t.slabs[si].Load(); s != nil {
		return s
	}
	return t.buildSlab(si)
}

func (t *QuantTable) buildSlab(si int64) *qslab {
	lo := si * quantSlabRows
	hi := lo + quantSlabRows
	if hi > t.rows {
		hi = t.rows
	}
	n := int(hi - lo)
	s := &qslab{
		q8:    make([]uint8, n*t.vecLen),
		scale: make([]float32, n),
		zero:  make([]int32, n),
	}
	tmp := make([]float32, t.vecLen)
	for r := 0; r < n; r++ {
		t.src.Row(lo+int64(r), tmp)
		off := r * t.vecLen
		s.scale[r], s.zero[r] = kernels.QuantizeI8(s.q8[off:off+t.vecLen], tmp)
	}
	// Deterministic content: the first publisher wins, racing builders
	// discard identical work.
	if t.slabs[si].CompareAndSwap(nil, s) {
		return s
	}
	return t.slabs[si].Load()
}
