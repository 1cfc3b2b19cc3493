package serve

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"recross/internal/arch"
	"recross/internal/embedding"
	"recross/internal/trace"
)

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

// TestParallelReduceBitIdentical proves the differential contract of the
// parallel data plane: vectors produced by the server — reductions fanned
// out across the persistent worker pool, with a row cache attached — are
// bit-identical to a fresh single-goroutine Layer.Reduce of the same ops.
// Each op's reduction is an independent task, so parallelism never
// reassociates a single op's accumulation order.
func TestParallelReduceBitIdentical(t *testing.T) {
	s := newTestServer(t, Options{
		Systems:       []arch.System{&fakeSys{}, &fakeSys{}},
		MaxBatch:      8,
		MaxDelay:      200 * time.Microsecond,
		ReduceWorkers: 4,
		RowCacheBytes: 1 << 20,
	})
	defer s.Close()
	ref := testLayer(t) // fresh uncached layer, sequential reference

	samples := testSamples(t, 64)
	var wg sync.WaitGroup
	errs := make(chan error, len(samples))
	results := make([]*Result, len(samples))
	for i, smp := range samples {
		wg.Add(1)
		go func(i int, smp trace.Sample) {
			defer wg.Done()
			res, err := s.Lookup(context.Background(), smp)
			if err != nil {
				errs <- err
				return
			}
			results[i] = res
		}(i, smp)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, smp := range samples {
		for oi, op := range smp {
			want, err := ref.Reduce(op)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(results[i].Vectors[oi], want) {
				t.Fatalf("sample %d op %d: parallel data plane diverges from sequential reference", i, oi)
			}
		}
	}
}

// TestRowCacheOption checks the RowCacheBytes wiring: the cache is built
// and attached, serves repeat traffic from residency, and a zero budget
// disables it entirely.
func TestRowCacheOption(t *testing.T) {
	s := newTestServer(t, Options{
		Systems:       []arch.System{&fakeSys{}},
		MaxBatch:      4,
		MaxDelay:      100 * time.Microsecond,
		RowCacheBytes: 1 << 20,
	})
	defer s.Close()
	if s.RowCache() == nil {
		t.Fatal("RowCacheBytes > 0 but no cache attached")
	}
	smp := testSamples(t, 1)[0]
	for i := 0; i < 3; i++ {
		if _, err := s.Lookup(context.Background(), smp); err != nil {
			t.Fatal(err)
		}
	}
	st := s.RowCache().Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("repeat traffic should mix misses then hits, got %+v", st)
	}

	off := newTestServer(t, Options{
		Systems:  []arch.System{&fakeSys{}},
		MaxBatch: 4,
	})
	defer off.Close()
	if off.RowCache() != nil {
		t.Fatal("RowCacheBytes 0 should disable the cache")
	}
	if _, err := off.Lookup(context.Background(), smp); err != nil {
		t.Fatal(err)
	}
}

// TestRowCacheRespectsPreattached checks that a caller-attached cache is
// kept (the adaptive path attaches before serve.New sees the layer).
func TestRowCacheRespectsPreattached(t *testing.T) {
	layer := testLayer(t)
	cache, err := embedding.NewRowCache(1<<20, testSpec().Tables[0].VecLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := layer.AttachRowCache(cache); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{
		Systems:       []arch.System{&fakeSys{}},
		Layer:         layer,
		MaxBatch:      4,
		RowCacheBytes: 1 << 30, // would build a different cache if not pre-attached
	})
	defer s.Close()
	if s.RowCache() != cache {
		t.Fatal("server replaced the caller's pre-attached cache")
	}
}

// TestHTTPDataplaneMetrics asserts the recross_dataplane_row_cache_*
// series ride /metrics and move with traffic.
func TestHTTPDataplaneMetrics(t *testing.T) {
	s := newTestServer(t, Options{
		Systems:       []arch.System{&fakeSys{}},
		MaxBatch:      4,
		MaxDelay:      100 * time.Microsecond,
		RowCacheBytes: 1 << 20,
	})
	defer s.Close()

	smp := testSamples(t, 1)[0]
	for i := 0; i < 2; i++ {
		if _, err := s.Lookup(context.Background(), smp); err != nil {
			t.Fatal(err)
		}
	}
	body := scrape(t, s)
	st := s.RowCache().Stats()
	for _, want := range []string{
		fmt.Sprintf("recross_dataplane_row_cache_hits_total %d\n", st.Hits),
		fmt.Sprintf("recross_dataplane_row_cache_misses_total %d\n", st.Misses),
		fmt.Sprintf("recross_dataplane_row_cache_bytes %d\n", st.Bytes),
		"recross_dataplane_row_cache_capacity_bytes 1048576\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics lack %q:\n%s", want, body)
		}
	}
	if st.Hits == 0 {
		t.Fatal("second lookup of the same sample should hit the cache")
	}
}

// TestDataplaneOptionValidation rejects negative budgets and pool sizes.
func TestDataplaneOptionValidation(t *testing.T) {
	layer := testLayer(t)
	if _, err := New(Options{Systems: []arch.System{&fakeSys{}}, Layer: layer, RowCacheBytes: -1}); err == nil {
		t.Fatal("negative RowCacheBytes accepted")
	}
	if _, err := New(Options{Systems: []arch.System{&fakeSys{}}, Layer: layer, ReduceWorkers: -1}); err == nil {
		t.Fatal("negative ReduceWorkers accepted")
	}
}
