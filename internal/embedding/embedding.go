// Package embedding provides the functional model of the DLRM embedding
// layer (paper §2.1): embedding tables, gather (table lookup) and pooling
// (weighted-sum reduction) operations. It is the ground truth the NMP
// architectures' reduced results are validated against bit-for-bit.
//
// Production tables reach billions of parameters, so the default Table is
// procedural: row values are derived deterministically from (table, row,
// element) with a splitmix-style hash, giving reproducible "stored" data
// with zero resident memory; QuantTable re-backs one at INT8.
package embedding

import (
	"fmt"
	"math"
	"sync/atomic"

	"recross/internal/kernels"
	"recross/internal/trace"
)

// Table is a read-only embedding table.
type Table interface {
	// Rows returns the number of embedding rows.
	Rows() int64
	// VecLen returns the embedding dimension.
	VecLen() int
	// Row writes row i's vector into dst (len == VecLen) and returns dst.
	Row(i int64, dst []float32) []float32
}

// Procedural is a deterministic, zero-memory table: element (i, j) of table
// `id` is a pseudorandom value in [-1, 1) derived by hashing.
type Procedural struct {
	id     uint64
	rows   int64
	vecLen int
}

// NewProcedural builds a procedural table.
func NewProcedural(id uint64, rows int64, vecLen int) (*Procedural, error) {
	if rows <= 0 || vecLen <= 0 {
		return nil, fmt.Errorf("embedding: invalid table shape %dx%d", rows, vecLen)
	}
	return &Procedural{id: id, rows: rows, vecLen: vecLen}, nil
}

func (t *Procedural) Rows() int64 { return t.rows }

func (t *Procedural) VecLen() int { return t.vecLen }

func (t *Procedural) Row(i int64, dst []float32) []float32 {
	if i < 0 || i >= t.rows {
		panic(fmt.Sprintf("embedding: row %d out of [0,%d)", i, t.rows))
	}
	if len(dst) != t.vecLen {
		panic(fmt.Sprintf("embedding: dst length %d != %d", len(dst), t.vecLen))
	}
	seed := splitmix(t.id*0x9E3779B97F4A7C15 + uint64(i) + 1)
	for j := range dst {
		seed = splitmix(seed)
		// Map the top 24 bits to [-1, 1).
		dst[j] = float32(float32(seed>>40)/float32(1<<23)) - 1
	}
	return dst
}

// splitmix is the SplitMix64 finalizer — a high-quality 64-bit mixer.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ColdReader serves rows placed on the flash cold tier (implemented by
// coldstore.Store via a thin adapter in the facade). A reader must return
// bits identical to the table's own Row for every row it holds — unless it
// is also a ColdCodec.
type ColdReader interface {
	// ReadColdRow fills dst with row idx of table ti, reporting whether
	// the cold tier holds (and served) the row.
	ReadColdRow(ti int, idx int64, dst []float32) bool
}

// ColdCodec is implemented by a ColdReader whose tier keeps rows in a row
// format of its own (a cold store at a precision other than the layer's),
// so the value it serves is its codec's, not the table's.
type ColdCodec interface {
	// CanonicalColdRow fills dst with the bits a served ReadColdRow
	// returns for the row, computed from the source without the device —
	// what the layer serves when the reader declines, so a cold row's
	// value never depends on device health or on which path filled the
	// row cache.
	CanonicalColdRow(ti int, idx int64, dst []float32)
}

// coldRoute pairs a cold-placement predicate with the reader serving those
// rows.
type coldRoute struct {
	isCold func(ti int, idx int64) bool
	reader ColdReader
	codec  ColdCodec // reader's own row format, nil when it serves table bits
}

// Layer is the embedding layer of one model: one table per sparse feature.
type Layer struct {
	tables []Table
	// prec is the backing-store precision: FP32 serves tables as-is,
	// INT8 wraps them in QuantTables (SetPrecision). The RowCache
	// always holds dequantized fp32 rows regardless.
	prec kernels.Precision
	// cache, when attached, memoizes materialized rows so hot rows are
	// hashed (or dequantized) once instead of per lookup.
	cache *RowCache
	// cold, when set, routes cold-placed rows through the flash store
	// (RowCache still probes first). Atomic: SetColdRoute may swap the
	// route while serving goroutines read it.
	cold atomic.Pointer[coldRoute]
	// coldFallbacks counts cold-placed rows the reader declined (device
	// degraded) that were materialized without it instead — the
	// degraded-but-correct slow path.
	coldFallbacks atomic.Int64
}

// NewLayer builds a layer of procedural tables matching spec.
func NewLayer(spec trace.ModelSpec) (*Layer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	l := &Layer{tables: make([]Table, len(spec.Tables))}
	for i, ts := range spec.Tables {
		t, err := NewProcedural(uint64(i)+1, ts.Rows, ts.VecLen)
		if err != nil {
			return nil, err
		}
		l.tables[i] = t
	}
	return l, nil
}

// SetPrecision re-backs every table at prec: INT8 wraps the tables
// in quantized backing (QuantTable), FP32 unwraps back to the originals.
// After this, every read path serves the canonical quantize-dequantize
// value, and ReduceInto accumulates misses straight from the quantized
// codes (fused dequantize — no materialize-then-reduce round trip).
// Call before AttachRowCache and before serving begins; the cached hot
// rows stay fp32 in the cache while the backing tables hold codes.
func (l *Layer) SetPrecision(prec kernels.Precision) error {
	if l.cache != nil {
		return fmt.Errorf("embedding: set precision before attaching a row cache")
	}
	if prec == l.prec {
		return nil
	}
	for i, t := range l.tables {
		if qt, ok := t.(*QuantTable); ok {
			t = qt.Source() // re-quantize from the full-precision source
		}
		if prec == kernels.FP32 {
			l.tables[i] = t
			continue
		}
		qt, err := NewQuantTable(t, prec)
		if err != nil {
			return err
		}
		l.tables[i] = qt
	}
	l.prec = prec
	return nil
}

// Tables returns the number of tables.
func (l *Layer) Tables() int { return len(l.tables) }

// Table returns table ti.
func (l *Layer) Table(ti int) Table { return l.tables[ti] }

// SourceTable returns table ti's full-precision source: the table itself
// for fp32 layers, or the table a QuantTable encodes. The cold tier's
// backing store reads rows through this so its codec applies exactly once
// to fp32 data — encoding an already-decoded quantized row would re-derive
// the quantization grid from grid points and drift from the canonical
// value the warm path serves.
func (l *Layer) SourceTable(ti int) Table {
	if qt, ok := l.tables[ti].(*QuantTable); ok {
		return qt.Source()
	}
	return l.tables[ti]
}

// AttachRowCache memoizes materialized rows of the layer's tables in c:
// hot rows are generated (or dequantized) once and then served by fp32
// copy instead of being re-hashed or re-decoded on every lookup. c's
// vector length must match the layer's tables. Attach before serving
// begins; afterwards the layer (cache included) is safe for concurrent
// reads.
func (l *Layer) AttachRowCache(c *RowCache) error {
	if c == nil {
		l.cache = nil
		return nil
	}
	for i, t := range l.tables {
		if t.VecLen() != c.VecLen() {
			return fmt.Errorf("embedding: row cache vecLen %d != table %d vecLen %d",
				c.VecLen(), i, t.VecLen())
		}
	}
	// Resident rows are always fp32; the logical (backing-precision) size
	// feeds the cache's compression accounting.
	c.SetLogicalRowBytes(int64(l.prec.RowBytes(c.VecLen())))
	l.cache = c
	return nil
}

// RowCache returns the attached cache, or nil.
func (l *Layer) RowCache() *RowCache { return l.cache }

// SetColdRoute installs (or, with nil arguments, removes) the cold-tier
// route: rows for which isCold reports true materialize through reader
// instead of the table. The reader must be bit-identical to the tables, or
// be a ColdCodec (coldstore.Store at the layer's precision is the former
// by construction — its file holds the exact bits the tables serve — and
// the facade's adapter is the latter, for mixed tier precisions). Safe to
// call while serving; readers see either the old route or the new one.
func (l *Layer) SetColdRoute(isCold func(ti int, idx int64) bool, reader ColdReader) {
	if isCold == nil || reader == nil {
		l.cold.Store(nil)
		return
	}
	codec, _ := reader.(ColdCodec)
	l.cold.Store(&coldRoute{isCold: isCold, reader: reader, codec: codec})
}

// MaterializeRow writes row idx of table ti into dst (len == the table's
// VecLen): hot-row cache first (a copy), then the cold tier for rows the
// placement put on flash, table regeneration otherwise — every path
// bit-identical. A cold or regenerated row fills the cache for the next
// lookup. Bounds are the caller's job — ReduceInto and the core
// functional path validate before gathering, and Table.Row panics on
// violation exactly like the uncached path.
func (l *Layer) MaterializeRow(ti int, idx int64, dst []float32) {
	if l.cache != nil && l.cache.Get(ti, idx, dst) {
		return
	}
	if cr := l.cold.Load(); cr != nil && cr.isCold(ti, idx) && l.readCold(cr, ti, idx, dst) {
		if l.cache != nil {
			l.cache.Put(ti, idx, dst)
		}
		return
	}
	l.tables[ti].Row(idx, dst)
	if l.cache != nil {
		l.cache.Put(ti, idx, dst)
	}
}

// readCold fills dst with cold-placed row idx of table ti: through the
// reader, or — when it declines (breaker open, device failing) — by the
// slower device-free path that yields the same bits. It reports false only
// when that path is the caller's own table (the reader serves table bits,
// having no codec of its own).
func (l *Layer) readCold(cr *coldRoute, ti int, idx int64, dst []float32) bool {
	if cr.reader.ReadColdRow(ti, idx, dst) {
		return true
	}
	l.coldFallbacks.Add(1)
	if cr.codec == nil {
		return false
	}
	cr.codec.CanonicalColdRow(ti, idx, dst)
	return true
}

// ColdFallbacks reports how many cold-placed rows were materialized
// without the cold tier because it declined the read.
func (l *Layer) ColdFallbacks() int64 { return l.coldFallbacks.Load() }

// Scratch is a per-caller arena for the zero-allocation reduce path: the
// row gather buffer and the sample-output arena that ReduceSampleInto carves per-op result vectors from. One Scratch
// serves one goroutine; its buffers are reused across calls, so
// steady-state serving performs zero data-plane allocations.
type Scratch struct {
	row []float32
	// sample/out back ReduceSampleInto's result vectors; they are
	// overwritten by the next ReduceSampleInto call on this Scratch.
	sample []float32
	out    [][]float32
}

// rowBuf returns the scratch gather buffer sized to n.
func (s *Scratch) rowBuf(n int) []float32 {
	if cap(s.row) < n {
		s.row = make([]float32, n)
	}
	return s.row[:n]
}

// Reduce executes one embedding operation functionally: gather op.Indices
// from the table and pool them under op.Kind. This is the reference the
// NMP results must match. It allocates the result (and a gather buffer)
// per call; the serving hot path uses ReduceInto with a reused Scratch
// instead.
func (l *Layer) Reduce(op trace.Op) ([]float32, error) {
	if op.Table < 0 || op.Table >= len(l.tables) {
		return nil, fmt.Errorf("embedding: table %d out of range", op.Table)
	}
	out := make([]float32, l.tables[op.Table].VecLen())
	var s Scratch
	if err := l.ReduceInto(out, op, &s); err != nil {
		return nil, err
	}
	return out, nil
}

// ReduceInto executes one embedding operation into dst (len == the
// table's VecLen), using s for gather scratch — the zero-allocation
// variant of Reduce. dst is fully overwritten. The fused unrolled kernels
// preserve the scalar reference's per-lane operation order exactly, so
// the result is bit-identical to Reduce on the same op (the kernel
// differential tests enforce this).
func (l *Layer) ReduceInto(dst []float32, op trace.Op, s *Scratch) error {
	if op.Table < 0 || op.Table >= len(l.tables) {
		return fmt.Errorf("embedding: table %d out of range", op.Table)
	}
	if op.Kind == trace.WeightedSum && len(op.Indices) != len(op.Weights) {
		return fmt.Errorf("embedding: %d indices but %d weights", len(op.Indices), len(op.Weights))
	}
	t := l.tables[op.Table]
	if len(dst) != t.VecLen() {
		return fmt.Errorf("embedding: dst length %d != %d", len(dst), t.VecLen())
	}
	switch op.Kind {
	case trace.Sum, trace.Max, trace.WeightedSum:
	default:
		return fmt.Errorf("embedding: unknown reduce kind %d", op.Kind)
	}
	kernels.Zero(dst)
	rows := t.Rows()
	row := s.rowBuf(t.VecLen())
	qt, _ := t.(*QuantTable)
	for k, idx := range op.Indices {
		if idx < 0 || idx >= rows {
			return fmt.Errorf("embedding: index %d out of [0,%d)", idx, rows)
		}
		if qt != nil {
			l.reduceQuantRow(dst, op, k, idx, qt, row)
			continue
		}
		l.MaterializeRow(op.Table, idx, row)
		l.accumulate(dst, row, op, k)
	}
	return nil
}

// accumulate folds one materialized fp32 row into dst under op.Kind.
func (l *Layer) accumulate(dst, row []float32, op trace.Op, k int) {
	switch op.Kind {
	case trace.Sum:
		kernels.Add(dst, row)
	case trace.Max:
		if k == 0 {
			copy(dst, row)
		} else {
			kernels.Max(dst, row)
		}
	default: // trace.WeightedSum
		kernels.Axpy(dst, row, op.Weights[k])
	}
}

// reduceQuantRow folds row idx of quantized table qt into dst: RowCache
// hit serves the resident fp32 (dequantized) row, cold-placed rows read
// through the cold tier, and everything else accumulates straight from
// the quantized codes with the fused dequantize-scale-accumulate kernels.
// The fused lane expression is the one Row/DecodeI8 use, so the
// hit, cold and fused paths agree bit-for-bit; a cold-placed row is the
// cold tier's value whether or not its device answers (readCold).
func (l *Layer) reduceQuantRow(dst []float32, op trace.Op, k int, idx int64, qt *QuantTable, row []float32) {
	ti := op.Table
	if l.cache != nil && l.cache.Get(ti, idx, row) {
		l.accumulate(dst, row, op, k)
		return
	}
	if cr := l.cold.Load(); cr != nil && cr.isCold(ti, idx) && l.readCold(cr, ti, idx, row) {
		if l.cache != nil {
			l.cache.Put(ti, idx, row)
		}
		l.accumulate(dst, row, op, k)
		return
	}
	q, scale, zero := qt.rowI8(idx)
	switch op.Kind {
	case trace.Sum:
		kernels.AddI8(dst, q, scale, zero)
	case trace.Max:
		if k == 0 {
			kernels.DecodeI8(dst, q, scale, zero)
		} else {
			kernels.MaxI8(dst, q, scale, zero)
		}
	default: // trace.WeightedSum
		kernels.AxpyI8(dst, q, op.Weights[k], scale, zero)
	}
	if l.cache != nil {
		kernels.DecodeI8(row, q, scale, zero)
		l.cache.Put(ti, idx, row)
	}
}

// ReduceSample reduces every op of a sample, returning one vector per op.
// The result is carved from a sample-private arena, so the caller owns it.
func (l *Layer) ReduceSample(s trace.Sample) ([][]float32, error) {
	var scr Scratch
	return l.reduceSample(s, &scr)
}

// ReduceSampleInto reduces every op of a sample using s for scratch —
// zero allocations per call in steady state: the per-op result vectors
// are carved from s's own reused sample arena, so they stay valid only
// until the next ReduceSampleInto (or ReduceSample-via-this-Scratch)
// call. A caller that must keep the vectors beyond that — handing them to
// another goroutine, marshalling them later — copies them out first
// (CloneVectors).
func (l *Layer) ReduceSampleInto(smp trace.Sample, s *Scratch) ([][]float32, error) {
	return l.reduceSample(smp, s)
}

func (l *Layer) reduceSample(smp trace.Sample, s *Scratch) ([][]float32, error) {
	total := 0
	for _, op := range smp {
		if op.Table < 0 || op.Table >= len(l.tables) {
			return nil, fmt.Errorf("embedding: table %d out of range", op.Table)
		}
		total += l.tables[op.Table].VecLen()
	}
	if cap(s.sample) < total {
		s.sample = make([]float32, total)
	}
	if cap(s.out) < len(smp) {
		s.out = make([][]float32, len(smp))
	}
	arena := s.sample[:total]
	out := s.out[:len(smp)]
	off := 0
	for i, op := range smp {
		n := l.tables[op.Table].VecLen()
		dst := arena[off : off+n : off+n]
		if err := l.ReduceInto(dst, op, s); err != nil {
			return nil, err
		}
		out[i] = dst
		off += n
	}
	return out, nil
}

// CloneVectors deep-copies a ReduceSampleInto result into caller-owned
// memory (one header plus one flat arena allocation), for results that
// must outlive the Scratch's next call.
func CloneVectors(v [][]float32) [][]float32 {
	total := 0
	for _, x := range v {
		total += len(x)
	}
	arena := make([]float32, total)
	out := make([][]float32, len(v))
	off := 0
	for i, x := range v {
		dst := arena[off : off+len(x) : off+len(x)]
		copy(dst, x)
		out[i] = dst
		off += len(x)
	}
	return out
}

// AlmostEqual reports whether two vectors agree within tol elementwise —
// reductions may reassociate FP32 adds across PEs.
func AlmostEqual(a, b []float32, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > tol {
			return false
		}
	}
	return true
}
