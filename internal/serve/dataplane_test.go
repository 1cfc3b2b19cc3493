package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
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
// parallel data plane: vectors produced by the server — each reduced on
// its own concurrent caller's goroutine from a pooled Scratch, with a row
// cache attached — are bit-identical to a fresh single-goroutine
// Layer.Reduce of the same ops. Each op's reduction is an independent
// task, so parallelism never reassociates a single op's accumulation
// order.
func TestParallelReduceBitIdentical(t *testing.T) {
	s := newTestServer(t, Options{
		Systems:       []arch.System{&fakeSys{}, &fakeSys{}},
		MaxBatch:      8,
		MaxDelay:      200 * time.Microsecond,
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
// kept.
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

// TestDataplaneOptionValidation rejects a negative row-cache budget.
func TestDataplaneOptionValidation(t *testing.T) {
	layer := testLayer(t)
	if _, err := New(Options{Systems: []arch.System{&fakeSys{}}, Layer: layer, RowCacheBytes: -1}); err == nil {
		t.Fatal("negative RowCacheBytes accepted")
	}
}

// blockingCold is a ColdReader that holds every read until release is
// closed, signalling each entry on entered. It declines every row, so
// the layer materializes it directly and answers stay exact.
type blockingCold struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingCold) ReadColdRow(int, int64, []float32) bool {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return false
}

// coldGatedLayer returns a layer whose every row is cold behind a
// blockingCold reader, and a release func (safe to call more than once).
func coldGatedLayer(t *testing.T) (*embedding.Layer, *blockingCold, func()) {
	t.Helper()
	layer := testLayer(t)
	reader := &blockingCold{entered: make(chan struct{}, 256), release: make(chan struct{})}
	layer.SetColdRoute(func(int, int64) bool { return true }, reader)
	return layer, reader, sync.OnceFunc(func() { close(reader.release) })
}

// awaitEntries waits for n reads to enter the cold reader.
func awaitEntries(t *testing.T, reader *blockingCold, n int) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-reader.entered:
		case <-timeout:
			t.Fatalf("%d of %d reductions reached the cold reader", i, n)
		}
	}
}

// TestDegradedReduceConcurrent: below quorum every lookup is answered
// degraded, and each caller reduces its own answer — so one reduction
// stalled in the cold tier holds up neither the dispatcher nor the next
// degraded lookup.
func TestDegradedReduceConcurrent(t *testing.T) {
	layer, reader, release := coldGatedLayer(t)
	s := newTestServer(t, Options{
		Systems: []arch.System{&fakeSys{}, &fakeSys{}},
		Layer:   layer,
		Quorum:  2,
	})
	t.Cleanup(func() {
		release()
		s.Close()
	})
	s.replicas[1].setState(Dead) // 1 available < quorum 2

	var answers []<-chan answer
	for _, sample := range testSamples(t, 2) {
		answers = append(answers, lookupAsync(s, sample))
	}
	// Each lookup's first row read blocks, so two entries mean both
	// reductions are in flight at once.
	awaitEntries(t, reader, 2)
	release()
	for i, ch := range answers {
		a := <-ch
		if a.err != nil {
			t.Fatalf("lookup %d: %v", i, a.err)
		}
		if !a.res.Degraded {
			t.Errorf("lookup %d: below quorum but not degraded", i)
		}
	}
	if n := s.Metrics().Degraded.Load(); n != 2 {
		t.Errorf("degraded = %d, want 2", n)
	}
}

// TestCancelWhileBatchRuns: a caller that gives up while its batch runs
// gets ctx.Err(), and the request is counted once, as Canceled — never
// also as Completed when the batch later finishes.
func TestCancelWhileBatchRuns(t *testing.T) {
	gate := make(chan struct{})
	fake := &fakeSys{gate: gate, started: make(chan struct{}, 1)}
	s := newTestServer(t, Options{Systems: []arch.System{fake}})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Lookup(ctx, testSamples(t, 1)[0])
		done <- err
	}()
	select {
	case <-fake.started:
	case <-time.After(5 * time.Second):
		t.Fatal("batch never reached the replica")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(gate)
	s.Close()

	snap := s.Metrics().Snapshot()
	if snap.Canceled != 1 || snap.Completed != 0 {
		t.Errorf("canceled = %d, completed = %d; want 1 and 0", snap.Canceled, snap.Completed)
	}
	if snap.Admitted != snap.Completed+snap.Failed+snap.Canceled {
		t.Errorf("admitted %d != completed %d + failed %d + canceled %d",
			snap.Admitted, snap.Completed, snap.Failed, snap.Canceled)
	}
}

// TestCloseWaitsForCallerReduction: Close runs OnClose — which closes the
// cold store in a real stack — only after every admitted Lookup has
// returned, including one still reducing its answer through the cold
// reader.
func TestCloseWaitsForCallerReduction(t *testing.T) {
	layer, reader, release := coldGatedLayer(t)
	var onClose atomic.Bool
	s := newTestServer(t, Options{
		Systems: []arch.System{&fakeSys{}},
		Layer:   layer,
		OnClose: func() { onClose.Store(true) },
	})
	t.Cleanup(release)

	a := lookupAsync(s, testSamples(t, 1)[0])
	awaitEntries(t, reader, 1)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitUntil(t, s.Draining)
	select {
	case <-closed:
		t.Fatal("Close returned while a caller was still reducing")
	case <-time.After(50 * time.Millisecond):
	}
	if onClose.Load() {
		t.Fatal("OnClose ran while a caller was still reducing")
	}

	release()
	if r := <-a; r.err != nil {
		t.Fatalf("lookup: %v", r.err)
	}
	<-closed
	if !onClose.Load() {
		t.Fatal("OnClose never ran")
	}
}
