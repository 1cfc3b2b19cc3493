package embedding

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"recross/internal/coldstore"
	"recross/internal/kernels"
	"recross/internal/stats"
	"recross/internal/trace"
)

func coldTestLayer(t *testing.T, rows int64, tables int) *Layer {
	t.Helper()
	spec := trace.ModelSpec{Name: "coldroute"}
	for i := 0; i < tables; i++ {
		spec.Tables = append(spec.Tables, trace.TableSpec{
			Name: fmt.Sprintf("t%d", i), Rows: rows, VecLen: 16, Pooling: 4, Prob: 1, Skew: 1.1,
		})
	}
	l, err := NewLayer(spec)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// countingReader serves reference bits while counting backing-store reads,
// so the cache-in-front contract (miss -> fill -> hit) is observable.
type countingReader struct {
	l     *Layer
	reads atomic.Int64
}

func (r *countingReader) ReadColdRow(ti int, idx int64, dst []float32) bool {
	r.reads.Add(1)
	r.l.Table(ti).Row(idx, dst)
	return true
}

// TestColdRouteMissFillHit pins the MaterializeRow funnel with a backing
// store behind the row cache: the first read of a cold row misses the
// cache and hits the store, the second is served from the cache without
// touching the store, and both are bit-identical to the table.
func TestColdRouteMissFillHit(t *testing.T) {
	l := coldTestLayer(t, 1000, 1)
	cache, err := NewRowCache(64<<10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AttachRowCache(cache); err != nil {
		t.Fatal(err)
	}
	rd := &countingReader{l: l}
	const coldFrom = 500
	l.SetColdRoute(func(ti int, idx int64) bool { return idx >= coldFrom }, rd)

	want := make([]float32, 16)
	got := make([]float32, 16)
	l.Table(0).Row(700, want)

	l.MaterializeRow(0, 700, got)
	if !AlmostEqual(got, want, 0) {
		t.Fatal("cold read differs from table bits")
	}
	if n := rd.reads.Load(); n != 1 {
		t.Fatalf("first cold read hit the store %d times, want 1", n)
	}

	for i := range got {
		got[i] = 0
	}
	l.MaterializeRow(0, 700, got)
	if !AlmostEqual(got, want, 0) {
		t.Fatal("cached cold read differs from table bits")
	}
	if n := rd.reads.Load(); n != 1 {
		t.Fatalf("cached re-read hit the store (reads %d, want 1)", n)
	}

	// A DRAM-side row never consults the store.
	l.MaterializeRow(0, 10, got)
	l.Table(0).Row(10, want)
	if !AlmostEqual(got, want, 0) {
		t.Fatal("hot read differs from table bits")
	}
	if n := rd.reads.Load(); n != 1 {
		t.Fatalf("hot read hit the store (reads %d, want 1)", n)
	}

	// Removing the route restores plain materialization.
	l.SetColdRoute(nil, nil)
	l.MaterializeRow(0, 701, got)
	if n := rd.reads.Load(); n != 1 {
		t.Fatalf("removed route still hit the store (reads %d, want 1)", n)
	}
}

// TestColdRouteStoreBitIdentical drives the funnel against the real
// flash-backed store: every row, cold- or DRAM-routed, cached or not,
// returns the exact table bits.
func TestColdRouteStoreBitIdentical(t *testing.T) {
	l := coldTestLayer(t, 600, 2)
	srcs := make([]coldstore.RowSource, l.Tables())
	for i := range srcs {
		srcs[i] = l.Table(i)
	}
	store, err := coldstore.Open(coldstore.Config{Dir: t.TempDir(), PageBytes: 1 << 10}, srcs)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cache, err := NewRowCache(8<<10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AttachRowCache(cache); err != nil {
		t.Fatal(err)
	}
	l.SetColdRoute(func(ti int, idx int64) bool { return idx >= 200 },
		readerFunc(func(ti int, idx int64, dst []float32) bool { return store.ReadRow(ti, idx, dst) }))

	want := make([]float32, 16)
	got := make([]float32, 16)
	for ti := 0; ti < l.Tables(); ti++ {
		for idx := int64(0); idx < 600; idx += 7 {
			l.Table(ti).Row(idx, want)
			for pass := 0; pass < 2; pass++ { // cold/fill pass, then cache pass
				l.MaterializeRow(ti, idx, got)
				if !AlmostEqual(got, want, 0) {
					t.Fatalf("table %d row %d pass %d: bits differ", ti, idx, pass)
				}
			}
		}
	}
}

// readerFunc adapts a function to ColdReader.
type readerFunc func(ti int, idx int64, dst []float32) bool

func (f readerFunc) ReadColdRow(ti int, idx int64, dst []float32) bool { return f(ti, idx, dst) }

// TestColdRouteConcurrentHammer pounds MaterializeRow from many goroutines
// through a deliberately tiny cache (constant CLOCK eviction of concurrent
// fills) with the real store behind it, while the route is swapped
// mid-flight — the -race acceptance for the cold data plane. Every result
// must be bit-identical to the table.
func TestColdRouteConcurrentHammer(t *testing.T) {
	const rows, vecLen = 400, 16
	l := coldTestLayer(t, rows, 1)
	srcs := []coldstore.RowSource{l.Table(0)}
	store, err := coldstore.Open(coldstore.Config{Dir: t.TempDir(), PageBytes: 1 << 10}, srcs)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// ~24 rows of cache for 400 rows: fills race with evictions constantly.
	cache, err := NewRowCache(24*vecLen*4, vecLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AttachRowCache(cache); err != nil {
		t.Fatal(err)
	}
	route := func(ti int, idx int64) bool { return idx >= 100 }
	l.SetColdRoute(route, readerFunc(func(ti int, idx int64, dst []float32) bool {
		return store.ReadRow(ti, idx, dst)
	}))

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			want := make([]float32, vecLen)
			got := make([]float32, vecLen)
			for i := 0; i < 4000; i++ {
				idx := int64((i*7 + w*13) % rows)
				l.MaterializeRow(0, idx, got)
				l.Table(0).Row(idx, want)
				if !AlmostEqual(got, want, 0) {
					select {
					case errs <- fmt.Errorf("worker %d row %d: bits differ", w, idx):
					default:
					}
					return
				}
			}
		}(w)
	}
	// Swap the route mid-flight: readers must see either route, never torn
	// state, and both return reference bits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			l.SetColdRoute(nil, nil)
			l.SetColdRoute(route, readerFunc(func(ti int, idx int64, dst []float32) bool {
				return store.ReadRow(ti, idx, dst)
			}))
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatal("hammer produced no CLOCK evictions; cache not under pressure")
	}
}

// decliningStore is the facade's store adapter with a switch: while
// decline is set every read is refused, as an open breaker would.
type decliningStore struct {
	s       *coldstore.Store
	decline atomic.Bool
}

func (r *decliningStore) ReadColdRow(ti int, idx int64, dst []float32) bool {
	return !r.decline.Load() && r.s.ReadRow(ti, idx, dst)
}

func (r *decliningStore) CanonicalColdRow(ti int, idx int64, dst []float32) {
	r.s.CanonicalRow(ti, idx, dst)
}

// TestColdFallbackMatchesHealthyRead: a cold-placed row has one value,
// whatever the layer's and the store's precisions are and whether or not
// the store answers. Each {layer} x {store} precision pair reads the same
// ops through a healthy store and through one that declines every read —
// via ReduceInto (the fused quantized path) and MaterializeRow, with and
// without a row cache, and across a health flip so the cache is filled by
// one path and read back under the other.
func TestColdFallbackMatchesHealthyRead(t *testing.T) {
	const rows, vecLen, coldFrom = 400, 16, 100
	precs := []kernels.Precision{kernels.FP32, kernels.FP16, kernels.INT8}
	op := trace.Op{Table: 0, Kind: trace.WeightedSum}
	for i := int64(0); i < 24; i++ {
		op.Indices = append(op.Indices, (i*37+5)%rows) // both sides of coldFrom
		op.Weights = append(op.Weights, 0.25+float32(i)/16)
	}
	// read returns the reduce result followed by every gathered row.
	read := func(l *Layer) []float32 {
		out := make([]float32, vecLen, vecLen*(1+len(op.Indices)))
		var scr Scratch
		if err := l.ReduceInto(out, op, &scr); err != nil {
			t.Fatal(err)
		}
		row := make([]float32, vecLen)
		for _, idx := range op.Indices {
			l.MaterializeRow(0, idx, row)
			out = append(out, row...)
		}
		return out
	}
	for _, lp := range precs {
		for _, cp := range precs {
			for _, withCache := range []bool{false, true} {
				l := coldTestLayer(t, rows, 1)
				if err := l.SetPrecision(lp); err != nil {
					t.Fatal(err)
				}
				store, err := coldstore.Open(coldstore.Config{Dir: t.TempDir(), PageBytes: 1 << 10, Precision: cp},
					[]coldstore.RowSource{l.SourceTable(0)})
				if err != nil {
					t.Fatal(err)
				}
				rd := &decliningStore{s: store}
				l.SetColdRoute(func(ti int, idx int64) bool { return idx >= coldFrom }, rd)
				attach := func() {
					if !withCache {
						return
					}
					c, err := NewRowCache(64<<10, vecLen) // holds every row read
					if err != nil {
						t.Fatal(err)
					}
					if err := l.AttachRowCache(c); err != nil {
						t.Fatal(err)
					}
				}
				name := fmt.Sprintf("layer %v over %v store, row cache %v", lp, cp, withCache)

				attach()
				healthy := read(l)
				if l.ColdFallbacks() != 0 {
					t.Fatalf("%s: healthy store counted %d fallbacks", name, l.ColdFallbacks())
				}
				if withCache { // filled healthy, read back degraded
					rd.decline.Store(true)
					if d := stats.MaxULPDistance(read(l), healthy); d != 0 {
						t.Errorf("%s: cache filled healthy reads back %d ULP off once degraded", name, d)
					}
				}

				attach() // a fresh, empty cache
				rd.decline.Store(true)
				degraded := read(l)
				if l.ColdFallbacks() == 0 {
					t.Fatalf("%s: declined reads counted no fallback", name)
				}
				if d := stats.MaxULPDistance(degraded, healthy); d != 0 {
					t.Errorf("%s: degraded answer is %d ULP off the healthy one", name, d)
				}
				rd.decline.Store(false) // filled degraded, read back healthy
				if d := stats.MaxULPDistance(read(l), healthy); d != 0 {
					t.Errorf("%s: answer moved %d ULP when the store came back", name, d)
				}
				store.Close()
			}
		}
	}
}
