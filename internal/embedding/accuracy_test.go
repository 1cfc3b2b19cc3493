package embedding

import (
	"math"
	"math/rand"
	"testing"

	"recross/internal/kernels"
	"recross/internal/stats"
	"recross/internal/trace"
)

// The differential-accuracy harness: the fp32 path stays bit-identical to
// the scalar reference (differential_test.go), while the quantized paths
// assert bounded error against the fp32 layer, with the bound derived
// from the codec parameters — never tuned to pass.
//
// Per-row reconstruction error (see internal/kernels):
//
//	int8: |scale|*(1/2 + 2^-13) + 2^-24*absMax
//	      grid rounding + grid shift from rounding scale + one float32
//	      rounding of the dequantized product
//
// Reduction error (sum / weighted-sum, P = pooling factor):
//
//	|quant - fp32| <= sum_r |w_r|*delta_r  +  P*2^-23 * sum_r |w_r|*absMax_r
//
// the first term propagating each row's codec error through the exact
// sum, the second bounding the difference of the two float32
// accumulations themselves (each of the two sums carries at most
// (P-1)*2^-24*sum|terms| of roundoff). Max pooling compares exactly, so
// its bound is just max_r delta_r.

// quantRowErr returns (delta, absMax) for encoding row at prec: the
// derived per-element reconstruction bound and the row's magnitude.
func quantRowErr(prec kernels.Precision, row []float32, q8 []uint8) (float64, float64) {
	absMax := 0.0
	for _, v := range row {
		if a := math.Abs(float64(v)); a > absMax {
			absMax = a
		}
	}
	switch prec {
	case kernels.INT8:
		scale, _ := kernels.QuantizeI8(q8, row)
		return math.Abs(float64(scale))*(0.5+math.Pow(2, -13)) + math.Pow(2, -24)*absMax, absMax
	default:
		return 0, absMax
	}
}

func TestReduceQuantizedBoundedError(t *testing.T) {
	kinds := []trace.ReduceKind{trace.Sum, trace.Max, trace.WeightedSum}
	const prec = kernels.INT8
	for _, vecLen := range diffVecLens {
		const rows = 911
		spec := trace.ModelSpec{Name: "acc", Tables: []trace.TableSpec{
			{Name: "t0", Rows: rows, VecLen: vecLen, Pooling: 8, Prob: 1, Skew: 1.1},
		}}
		ref, err := NewLayer(spec)
		if err != nil {
			t.Fatal(err)
		}
		ql, err := NewLayer(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := ql.SetPrecision(prec); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(vecLen)*31 + 2))
		row := make([]float32, vecLen)
		q8 := make([]uint8, vecLen)
		for _, pooling := range []int{1, 4, 80} {
			for _, kind := range kinds {
				for trial := 0; trial < 5; trial++ {
					op := trace.Op{Table: 0, Kind: kind, Indices: make([]int64, pooling)}
					for i := range op.Indices {
						op.Indices[i] = rng.Int63n(rows)
					}
					if kind == trace.WeightedSum {
						op.Weights = make([]float32, pooling)
						for i := range op.Weights {
							op.Weights[i] = rng.Float32()*4 - 2
						}
					}
					want, err := ref.Reduce(op)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ql.Reduce(op)
					if err != nil {
						t.Fatal(err)
					}
					var bound float64
					if kind == trace.Max {
						for _, idx := range op.Indices {
							ref.Table(0).Row(idx, row)
							d, _ := quantRowErr(prec, row, q8)
							if d > bound {
								bound = d
							}
						}
					} else {
						var q, s float64
						for k, idx := range op.Indices {
							ref.Table(0).Row(idx, row)
							d, absMax := quantRowErr(prec, row, q8)
							w := 1.0
							if kind == trace.WeightedSum {
								w = math.Abs(float64(op.Weights[k]))
							}
							q += w * d
							s += w * absMax
						}
						bound = q + float64(pooling)*math.Pow(2, -23)*s
					}
					if e := stats.MaxAbsError(got, want); e > bound {
						t.Fatalf("%v vecLen=%d pooling=%d kind=%v trial=%d: err %g > derived bound %g",
							prec, vecLen, pooling, kind, trial, e, bound)
					}
				}
			}
		}
	}
}

// TestReduceQuantizedPathsBitIdentical pins the precision-consistency
// invariant: within one quantized layer, the fused-from-codes path, the
// scalar decode-and-accumulate reference over the QuantTable, and the
// cold- and warm-cache passes all produce identical bits — quantization
// error is purely representational, never path-dependent.
func TestReduceQuantizedPathsBitIdentical(t *testing.T) {
	kinds := []trace.ReduceKind{trace.Sum, trace.Max, trace.WeightedSum}
	const prec = kernels.INT8
	for _, vecLen := range diffVecLens {
		const rows = 701
		spec := trace.ModelSpec{Name: "cons", Tables: []trace.TableSpec{
			{Name: "t0", Rows: rows, VecLen: vecLen, Pooling: 8, Prob: 1, Skew: 1.1},
		}}
		l, err := NewLayer(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.SetPrecision(prec); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(vecLen)*17 + 2))
		var ops []trace.Op
		for _, kind := range kinds {
			op := trace.Op{Table: 0, Kind: kind, Indices: make([]int64, 40)}
			for i := range op.Indices {
				op.Indices[i] = rng.Int63n(rows)
			}
			if kind == trace.WeightedSum {
				op.Weights = make([]float32, len(op.Indices))
				for i := range op.Weights {
					op.Weights[i] = rng.Float32()
				}
			}
			ops = append(ops, op)
		}
		var scr Scratch
		base := make([][]float32, len(ops))
		for i, op := range ops {
			// Scalar reference over the QuantTable: decode each row
			// (canonical bits) and accumulate with textbook loops.
			want := scalarReduceRef(l.Table(0), op)
			got := make([]float32, vecLen)
			if err := l.ReduceInto(got, op, &scr); err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got, want) {
				t.Fatalf("%v vecLen=%d op %d: fused path != scalar decode reference", prec, vecLen, i)
			}
			base[i] = got
		}
		cache, err := NewRowCache(1<<20, vecLen)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AttachRowCache(cache); err != nil {
			t.Fatal(err)
		}
		for pass, name := range []string{"cold-cache", "warm-cache"} {
			for i, op := range ops {
				got := make([]float32, vecLen)
				if err := l.ReduceInto(got, op, &scr); err != nil {
					t.Fatal(err)
				}
				if stats.MaxULPDistance(got, base[i]) != 0 {
					t.Fatalf("%v vecLen=%d op %d: %s pass diverged from uncached", prec, vecLen, i, name)
				}
			}
			_ = pass
		}
	}
}

// TestQuantTableRowCanonical checks that QuantTable.Row serves exactly
// Decode(Encode(src.Row)) — the canonical value the whole stack (cache
// fills, cold pages, fused kernels) agrees on.
func TestQuantTableRowCanonical(t *testing.T) {
	src, err := NewProcedural(7, 10000, 48)
	if err != nil {
		t.Fatal(err)
	}
	const prec = kernels.INT8
	qt, err := NewQuantTable(src, prec)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]float32, 48)
	want := make([]float32, 48)
	got := make([]float32, 48)
	buf := make([]byte, prec.RowBytes(48))
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		i := rng.Int63n(10000)
		src.Row(i, raw)
		kernels.EncodeRow(prec, buf, raw)
		kernels.DecodeRow(prec, want, buf)
		qt.Row(i, got)
		if !bitsEqual(got, want) {
			t.Fatalf("%v row %d: QuantTable.Row != Decode(Encode(src))", prec, i)
		}
	}
	if _, err := NewQuantTable(src, kernels.FP32); err == nil {
		t.Fatal("NewQuantTable(FP32) should fail")
	}
}

// TestReduceSampleIntoZeroAlloc asserts the sample reduce path performs
// zero allocations in steady state: results are carved from the
// Scratch's reused arena, not freshly allocated per call.
func TestReduceSampleIntoZeroAlloc(t *testing.T) {
	spec := trace.ModelSpec{Name: "zeroalloc", Tables: []trace.TableSpec{
		{Name: "t0", Rows: 5000, VecLen: 32, Pooling: 16, Prob: 1, Skew: 1.1},
		{Name: "t1", Rows: 5000, VecLen: 32, Pooling: 16, Prob: 1, Skew: 1.1},
	}}
	layer, err := NewLayer(spec)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewRowCache(8<<20, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := layer.AttachRowCache(cache); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	sample := make(trace.Sample, 2)
	for ti := range sample {
		op := trace.Op{Table: ti, Kind: trace.WeightedSum,
			Indices: make([]int64, 64), Weights: make([]float32, 64)}
		for i := range op.Indices {
			op.Indices[i] = rng.Int63n(5000)
			op.Weights[i] = rng.Float32()
		}
		sample[ti] = op
	}
	var scr Scratch
	if _, err := layer.ReduceSampleInto(sample, &scr); err != nil { // warm cache+scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := layer.ReduceSampleInto(sample, &scr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReduceSampleInto allocates %v per op in steady state, want 0", allocs)
	}
}

// TestCloneVectors checks the escape hatch for results that must outlive
// the Scratch: equal values, fully independent storage.
func TestCloneVectors(t *testing.T) {
	v := [][]float32{{1, 2}, {3}, {}}
	c := CloneVectors(v)
	if len(c) != 3 || len(c[0]) != 2 || len(c[1]) != 1 || len(c[2]) != 0 {
		t.Fatalf("shape mismatch: %v", c)
	}
	v[0][0] = 99
	if c[0][0] != 1 {
		t.Fatal("clone aliases the source")
	}
}

func BenchmarkReduceSampleInto(b *testing.B) {
	spec := trace.ModelSpec{Name: "bench-sample", Tables: []trace.TableSpec{
		{Name: "t0", Rows: 100000, VecLen: 64, Pooling: 80, Prob: 1, Skew: 1.2},
	}}
	layer, err := NewLayer(spec)
	if err != nil {
		b.Fatal(err)
	}
	cache, err := NewRowCache(8<<20, 64)
	if err != nil {
		b.Fatal(err)
	}
	if err := layer.AttachRowCache(cache); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	z := rand.NewZipf(rng, 1.2, 8, 99999)
	sample := make(trace.Sample, 1)
	op := trace.Op{Table: 0, Kind: trace.WeightedSum,
		Indices: make([]int64, 80), Weights: make([]float32, 80)}
	for i := range op.Indices {
		op.Indices[i] = int64(z.Uint64())
		op.Weights[i] = rng.Float32()
	}
	sample[0] = op
	var scr Scratch
	if _, err := layer.ReduceSampleInto(sample, &scr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layer.ReduceSampleInto(sample, &scr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceQuant compares fused quantized reduction against the
// fp32 dense baseline at equal vecLen: a 4096-gather weighted sum over a
// 200k x 64 table with no row cache, so every row comes from the backing
// store — the bandwidth contrast BENCH_PR9.json records.
func benchReduceQuant(b *testing.B, prec kernels.Precision) {
	spec := trace.ModelSpec{Name: "bench-quant", Tables: []trace.TableSpec{
		{Name: "t0", Rows: 200000, VecLen: 64, Pooling: 80, Prob: 1, Skew: 1.2},
	}}
	layer, err := NewLayer(spec)
	if err != nil {
		b.Fatal(err)
	}
	if prec == kernels.FP32 {
		// Materialize the fp32 baseline so both sides read from memory,
		// not the procedural hash.
		layer = &Layer{tables: []Table{materialize(layer.Table(0))}}
	} else if err := layer.SetPrecision(prec); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	idx := make([]int64, 4096)
	w := make([]float32, len(idx))
	for i := range idx {
		idx[i] = rng.Int63n(200000)
		w[i] = rng.Float32()
	}
	op := trace.Op{Table: 0, Kind: trace.WeightedSum, Indices: idx, Weights: w}
	dst := make([]float32, 64)
	var scr Scratch
	if err := layer.ReduceInto(dst, op, &scr); err != nil { // build slabs
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := layer.ReduceInto(dst, op, &scr); err != nil {
			b.Fatal(err)
		}
	}
}

// memTable is a memory-resident fp32 table: the reduction benchmark's
// baseline backing store.
type memTable struct {
	data   []float32
	vecLen int
}

func materialize(src Table) *memTable {
	t := &memTable{data: make([]float32, src.Rows()*int64(src.VecLen())), vecLen: src.VecLen()}
	for i := int64(0); i < src.Rows(); i++ {
		src.Row(i, t.data[i*int64(t.vecLen):(i+1)*int64(t.vecLen)])
	}
	return t
}

func (t *memTable) Rows() int64 { return int64(len(t.data) / t.vecLen) }

func (t *memTable) VecLen() int { return t.vecLen }

func (t *memTable) Row(i int64, dst []float32) []float32 {
	copy(dst, t.data[i*int64(t.vecLen):(i+1)*int64(t.vecLen)])
	return dst
}

func BenchmarkReduceQuantFP32(b *testing.B) { benchReduceQuant(b, kernels.FP32) }
func BenchmarkReduceQuantINT8(b *testing.B) { benchReduceQuant(b, kernels.INT8) }
