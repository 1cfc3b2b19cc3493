package embedding

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"recross/internal/trace"
)

// scalarReduceRef is a textbook scalar reduction — no kernels, no cache,
// no scratch reuse — serving as the independent reference the fused
// unrolled data plane must match bit for bit.
func scalarReduceRef(t Table, op trace.Op) []float32 {
	out := make([]float32, t.VecLen())
	row := make([]float32, t.VecLen())
	for k, idx := range op.Indices {
		t.Row(idx, row)
		switch op.Kind {
		case trace.Sum:
			for j := range out {
				out[j] += row[j]
			}
		case trace.Max:
			if k == 0 {
				copy(out, row)
			} else {
				for j := range out {
					if row[j] > out[j] {
						out[j] = row[j]
					}
				}
			}
		default: // trace.WeightedSum
			w := op.Weights[k]
			for j := range out {
				out[j] += w * row[j]
			}
		}
	}
	return out
}

// diffVecLens sweeps every unroll boundary: shorter than one 8-lane
// block, exactly one block, one block ± 1, and multi-block ± 1.
var diffVecLens = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64, 127, 128}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestReduceBitIdenticalToScalar is the kernel differential property
// test: for every vector length across the unroll boundaries, every
// reduce kind, and randomized indices/weights, the kernelized
// Layer.Reduce must be bit-identical to the textbook scalar reference —
// both uncached and with a hot-row cache attached (a cold pass filling
// it, then a warm pass served from it).
func TestReduceBitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	kinds := []trace.ReduceKind{trace.Sum, trace.Max, trace.WeightedSum}
	for _, vecLen := range diffVecLens {
		spec := trace.ModelSpec{Name: "diff", Tables: []trace.TableSpec{
			{Name: "t0", Rows: 500, VecLen: vecLen, Pooling: 8, Prob: 1},
		}}
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("len%d_kind%d", vecLen, kind), func(t *testing.T) {
				layer, err := NewLayer(spec)
				if err != nil {
					t.Fatal(err)
				}
				cachedLayer, err := NewLayer(spec)
				if err != nil {
					t.Fatal(err)
				}
				cache, err := NewRowCache(int64(vecLen)*4*64, vecLen)
				if err != nil {
					t.Fatal(err)
				}
				if err := cachedLayer.AttachRowCache(cache); err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 20; trial++ {
					n := 1 + rng.Intn(12)
					op := trace.Op{Table: 0, Kind: kind,
						Indices: make([]int64, n), Weights: make([]float32, n)}
					for i := range op.Indices {
						op.Indices[i] = int64(rng.Intn(500))
						op.Weights[i] = rng.Float32()*4 - 2
					}
					want := scalarReduceRef(layer.Table(0), op)
					got, err := layer.Reduce(op)
					if err != nil {
						t.Fatal(err)
					}
					if !bitsEqual(got, want) {
						t.Fatalf("trial %d: kernel reduce diverges from scalar\n got %v\nwant %v",
							trial, got, want)
					}
					// Cold pass (fills the cache) and warm pass (served
					// from it) must both stay bit-identical.
					for pass := 0; pass < 2; pass++ {
						got, err := cachedLayer.Reduce(op)
						if err != nil {
							t.Fatal(err)
						}
						if !bitsEqual(got, want) {
							t.Fatalf("trial %d pass %d: cached reduce diverges\n got %v\nwant %v",
								trial, pass, got, want)
						}
					}
				}
			})
		}
	}
}

// TestReduceSampleIntoMatchesReduce checks the arena-carving sample path
// against per-op Reduce, including scratch reuse across calls.
func TestReduceSampleIntoMatchesReduce(t *testing.T) {
	spec := trace.ModelSpec{Name: "diff-sample", Tables: []trace.TableSpec{
		{Name: "a", Rows: 300, VecLen: 17, Pooling: 4, Prob: 1},
		{Name: "b", Rows: 300, VecLen: 17, Pooling: 4, Prob: 1},
	}}
	layer, err := NewLayer(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewGenerator(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	var scr Scratch
	for trial := 0; trial < 10; trial++ {
		smp := g.Sample()
		got, err := layer.ReduceSampleInto(smp, &scr)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range smp {
			want, err := layer.Reduce(op)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got[i], want) {
				t.Fatalf("trial %d op %d: sample path diverges", trial, i)
			}
		}
	}
}

// TestRowCacheBasics covers hit/miss accounting and eviction.
func TestRowCacheBasics(t *testing.T) {
	const vecLen = 8
	c, err := NewRowCache(16*rowCacheShards*vecLen*4, vecLen) // 16 slots/shard
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float32, vecLen)
	if c.Get(0, 1, row) {
		t.Fatal("hit on empty cache")
	}
	for j := range row {
		row[j] = float32(j)
	}
	c.Put(0, 1, row)
	got := make([]float32, vecLen)
	if !c.Get(0, 1, got) {
		t.Fatal("miss after Put")
	}
	if !bitsEqual(got, row) {
		t.Fatalf("cache returned %v, want %v", got, row)
	}
	// Same index in a different table is a distinct key.
	if c.Get(1, 1, got) {
		t.Fatal("cross-table key collision")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 2 misses / 1 entry", st)
	}

	// Overfill to force CLOCK evictions.
	for i := int64(0); i < 10000; i++ {
		c.Put(0, i, row)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions after overfill")
	} else if st.Bytes > st.CapBytes {
		t.Fatalf("resident bytes %d exceed capacity %d", st.Bytes, st.CapBytes)
	}

}

// TestRowCacheConcurrent hammers one cache from 8 goroutines with
// overlapping keys — run under -race this proves the sharded locking.
// Every hit must return the exact row the procedural table generates
// (a torn or misfiled copy would differ).
func TestRowCacheConcurrent(t *testing.T) {
	const vecLen = 16
	tab, err := NewProcedural(1, 512, vecLen)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRowCache(64*rowCacheShards*vecLen*4, vecLen)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			row := make([]float32, vecLen)
			want := make([]float32, vecLen)
			for i := 0; i < 5000; i++ {
				idx := int64(rng.Intn(512))
				if c.Get(0, idx, row) {
					tab.Row(idx, want)
					if !bitsEqual(row, want) {
						errs <- fmt.Errorf("goroutine %d: corrupt hit for row %d", g, idx)
						return
					}
					continue
				}
				tab.Row(idx, row)
				c.Put(0, idx, row)
				if i%1000 == 0 {
					_ = c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatal("concurrent hammer produced no hits")
	}
}

// benchReduceOp builds the 4096-gather Zipf workload the data-plane
// benchmarks share (mirrors recross-bench -perf's reduce_* entries).
func benchReduceOp(b *testing.B, kind trace.ReduceKind) (*Layer, trace.Op) {
	b.Helper()
	spec := trace.ModelSpec{Name: "bench-reduce", Tables: []trace.TableSpec{
		{Name: "t0", Rows: 100000, VecLen: 64, Pooling: 8, Prob: 1, Skew: 1.2},
	}}
	layer, err := NewLayer(spec)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	z := rand.NewZipf(rng, 1.2, 8, 99999)
	idx := make([]int64, 4096)
	w := make([]float32, len(idx))
	for i := range idx {
		idx[i] = int64(z.Uint64())
		w[i] = rng.Float32()
	}
	return layer, trace.Op{Table: 0, Kind: kind, Indices: idx, Weights: w}
}

// BenchmarkReduceWeightedSum4k is the kernelized zero-alloc path with an
// 8 MiB hot-row cache; BenchmarkReduceWeightedSum4kScalar is the
// pre-kernel baseline (per-call allocations, uncached regeneration,
// scalar loops). Their ratio is the data-plane speedup recorded in
// BENCH_PR5.json.
func BenchmarkReduceWeightedSum4k(b *testing.B) {
	layer, op := benchReduceOp(b, trace.WeightedSum)
	cache, err := NewRowCache(8<<20, 64)
	if err != nil {
		b.Fatal(err)
	}
	if err := layer.AttachRowCache(cache); err != nil {
		b.Fatal(err)
	}
	dst := make([]float32, 64)
	var scr Scratch
	if err := layer.ReduceInto(dst, op, &scr); err != nil {
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

func BenchmarkReduceWeightedSum4kScalar(b *testing.B) {
	layer, op := benchReduceOp(b, trace.WeightedSum)
	t := layer.Table(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := scalarReduceRef(t, op)
		benchSink = out[0]
	}
}

var benchSink float32

func BenchmarkReduceSum4k(b *testing.B) {
	layer, op := benchReduceOp(b, trace.Sum)
	dst := make([]float32, 64)
	var scr Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := layer.ReduceInto(dst, op, &scr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReduceMax4k(b *testing.B) {
	layer, op := benchReduceOp(b, trace.Max)
	dst := make([]float32, 64)
	var scr Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := layer.ReduceInto(dst, op, &scr); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRowCacheFixedTrace pins the cache's replacement order: hit, miss and
// eviction totals over a skewed probe-then-fill stream, recorded before
// the shards moved onto the shared cache.Clock.
func TestRowCacheFixedTrace(t *testing.T) {
	const vecLen = 4
	c, err := NewRowCache(8*rowCacheShards*vecLen*4, vecLen) // 8 slots/shard
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(rng, 1.2, 8, 2047)
	row := make([]float32, vecLen)
	for i := 0; i < 20000; i++ {
		table, idx := rng.Intn(3), int64(zipf.Uint64())
		if !c.Get(table, idx, row) {
			c.Put(table, idx, row)
		}
	}
	st := c.Stats()
	if st.Hits != 4960 || st.Misses != 15040 || st.Evictions != 14912 || st.Entries != 128 {
		t.Fatalf("hits %d misses %d evictions %d entries %d, want 4960 / 15040 / 14912 / 128", st.Hits, st.Misses, st.Evictions, st.Entries)
	}
}
