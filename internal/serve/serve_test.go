package serve

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recross/internal/arch"
	"recross/internal/baseline"
	"recross/internal/embedding"
	"recross/internal/sim"
	"recross/internal/trace"
)

// fakeSys is a controllable replica: Run optionally blocks on gate, then
// records the batch sizes it served.
type fakeSys struct {
	gate    chan struct{} // when non-nil, Run waits until it is closed
	started chan struct{} // receives one token per Run entry, if non-nil

	mu      sync.Mutex
	sizes   []int
	lookups int64
}

func (f *fakeSys) Name() string { return "fake" }

func (f *fakeSys) Run(b trace.Batch) (*arch.RunStats, error) {
	if f.started != nil {
		f.started <- struct{}{}
	}
	if f.gate != nil {
		<-f.gate
	}
	lookups, _ := arch.CountBatch(b)
	f.mu.Lock()
	f.sizes = append(f.sizes, len(b))
	f.lookups += lookups
	f.mu.Unlock()
	return &arch.RunStats{Cycles: sim.Cycle(100 + len(b)), Lookups: lookups, Imbalance: 1}, nil
}

func (f *fakeSys) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.sizes...)
}

func testSpec() trace.ModelSpec { return trace.Uniform(3, 2000, 8, 2) }

func testLayer(t *testing.T) *embedding.Layer {
	t.Helper()
	l, err := embedding.NewLayer(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Layer == nil {
		opts.Layer = testLayer(t)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testSamples(t *testing.T, n int) []trace.Sample {
	t.Helper()
	g, err := trace.NewGenerator(testSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]trace.Sample, n)
	for i := range out {
		out[i] = g.Sample()
	}
	return out
}

func TestNewValidation(t *testing.T) {
	layer := testLayer(t)
	if _, err := New(Options{Layer: layer}); err == nil {
		t.Error("no systems should error")
	}
	if _, err := New(Options{Systems: []arch.System{&fakeSys{}}}); err == nil {
		t.Error("no layer should error")
	}
	if _, err := New(Options{Systems: []arch.System{&fakeSys{}}, Layer: layer, Policy: OverloadPolicy(7)}); err == nil {
		t.Error("bogus policy should error")
	}
	for name, opts := range map[string]Options{
		"negative WedgeTimeout":   {WedgeTimeout: -time.Second},
		"negative RestartBackoff": {RestartBackoff: -time.Millisecond},
		"negative RestartCap":     {RestartCap: -1},
	} {
		opts.Systems, opts.Layer = []arch.System{&fakeSys{}}, layer
		if _, err := New(opts); err == nil {
			t.Errorf("%s should error", name)
		}
	}
}

// TestLookupRejectsMalformedSample: a sample violating the trace.Op shape
// contract (no indices, or weights not parallel to indices) must be
// rejected at admission — if it reached a worker it would panic the
// replica goroutine and kill the process.
func TestLookupRejectsMalformedSample(t *testing.T) {
	s := newTestServer(t, Options{Systems: []arch.System{&fakeSys{}}})
	defer s.Close()

	for name, sample := range map[string]trace.Sample{
		"empty":           {},
		"no indices":      {{Table: 0, Kind: trace.WeightedSum}},
		"missing weights": {{Table: 0, Kind: trace.Max, Indices: []int64{1, 2}}},
		"short weights":   {{Table: 0, Kind: trace.WeightedSum, Indices: []int64{1, 2}, Weights: []float32{1}}},
	} {
		if _, err := s.Lookup(context.Background(), sample); err == nil {
			t.Errorf("%s: Lookup accepted a malformed sample", name)
		}
	}
}

// TestLookupRejectsOutOfRange: a table or row outside the layer is caller
// input, refused at admission like a shape violation. A real system would
// index past its tables and panic its replica, costing a fault, a retry
// and a restart per lookup before the caller saw the error.
func TestLookupRejectsOutOfRange(t *testing.T) {
	var systems []arch.System
	for i := 0; i < 2; i++ {
		sys, err := baseline.NewCPU(baseline.Config{Spec: testSpec(), Ranks: 2})
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	s := newTestServer(t, Options{Systems: systems})
	defer s.Close()

	rows := testSpec().Tables[0].Rows
	for name, op := range map[string]trace.Op{
		"table":        {Table: 3, Indices: []int64{1}, Weights: []float32{1}},
		"negative row": {Table: 0, Indices: []int64{1, -1}, Weights: []float32{1, 1}},
		"row":          {Table: 0, Indices: []int64{rows}, Weights: []float32{1}},
	} {
		_, err := s.Lookup(context.Background(), trace.Sample{op})
		if err == nil || !strings.Contains(err.Error(), "out of [0,") {
			t.Errorf("%s out of range: err = %v, want a range error", name, err)
		}
	}
	m := s.Metrics()
	if p, r, rs := m.FaultPanics.Load(), m.Retries.Load(), m.Restarts.Load(); p != 0 || r != 0 || rs != 0 {
		t.Fatalf("out-of-range lookups reached a replica: %d panics, %d retries, %d restarts", p, r, rs)
	}
}

// TestFlushOnSize: while every replica is busy and MaxDelay is long, the
// batcher must wait for exactly MaxBatch samples before flushing.
func TestFlushOnSize(t *testing.T) {
	s, fake, release, opener := busyServer(t, Options{MaxBatch: 4, MaxDelay: time.Hour})

	var answers []<-chan answer
	for _, sample := range testSamples(t, 8) {
		answers = append(answers, lookupAsync(s, sample))
	}
	// Both size-4 batches form behind the opener before it is released.
	waitUntil(t, func() bool { return s.Metrics().BatchForm.Snapshot().Count == 3 })
	release()

	if err := <-opener; err != nil {
		t.Fatalf("opener: %v", err)
	}
	for i, ch := range answers {
		a := <-ch
		if a.err != nil {
			t.Fatalf("request %d: %v", i, a.err)
		}
		if a.res.BatchSize != 4 {
			t.Errorf("request %d rode batch of %d, want 4 (size-triggered flush)", i, a.res.BatchSize)
		}
	}
	for _, sz := range fake.batchSizes()[1:] {
		if sz != 4 {
			t.Errorf("executed batch size %d after the opener, want 4", sz)
		}
	}
}

// TestFlushOnDeadline: while every replica is busy and MaxBatch is huge, a
// lone request must still flush once MaxDelay elapses — and no sooner.
func TestFlushOnDeadline(t *testing.T) {
	const delay = 20 * time.Millisecond
	s, _, release, opener := busyServer(t, Options{MaxBatch: 1024, MaxDelay: delay})

	start := time.Now()
	lone := lookupAsync(s, testSamples(t, 1)[0])
	waitUntil(t, func() bool { return s.Metrics().BatchForm.Snapshot().Count == 2 })
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("flushed after %v, before the %v flush deadline", elapsed, delay)
	}
	release()

	if err := <-opener; err != nil {
		t.Fatalf("opener: %v", err)
	}
	a := <-lone
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.res.BatchSize != 1 {
		t.Errorf("batch size %d, want 1 (deadline-triggered flush)", a.res.BatchSize)
	}
	snap := s.Metrics().Snapshot()
	if snap.BatchForm.Count != 2 {
		t.Errorf("batch-formation samples = %d, want 2 (opener and lone request)", snap.BatchForm.Count)
	}
	if snap.DeadlineFlushes != 1 {
		t.Errorf("deadline flushes = %d, want 1", snap.DeadlineFlushes)
	}
}

// gatedServer builds a 1-replica server whose worker is blocked on a gate,
// then saturates every downstream stage so the admission queue is the only
// place left: 1 batch running + replicaWorkDepth queued + 1 held by the
// blocked dispatcher. Returns the server, the gate, and the in-flight
// Lookup error channel.
func gatedServer(t *testing.T, policy OverloadPolicy, queueDepth int) (*Server, *fakeSys, chan struct{}, chan error) {
	t.Helper()
	gate := make(chan struct{})
	fake := &fakeSys{gate: gate, started: make(chan struct{}, 16)}
	s := newTestServer(t, Options{
		Systems:    []arch.System{fake},
		MaxBatch:   1,
		MaxDelay:   time.Hour,
		QueueDepth: queueDepth,
		Policy:     policy,
	})

	samples := testSamples(t, 3+replicaWorkDepth)
	errs := make(chan error, len(samples)+8)
	lookup := func(sample trace.Sample) {
		_, err := s.Lookup(context.Background(), sample)
		errs <- err
	}

	// First request: occupies the worker (blocked in Run on the gate).
	go lookup(samples[0])
	<-fake.started

	// Next replicaWorkDepth requests: fill the replica's work channel.
	for i := 0; i < replicaWorkDepth; i++ {
		go lookup(samples[1+i])
	}
	waitUntil(t, func() bool { return len(s.replicas[0].work) == replicaWorkDepth })

	// One more: the dispatcher dequeues it and blocks handing it over.
	go lookup(samples[1+replicaWorkDepth])
	waitUntil(t, func() bool {
		return len(s.in) == 0 && s.metrics.QueueWait.Snapshot().Count == int64(2+replicaWorkDepth)
	})

	return s, fake, gate, errs
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedPolicy: once every stage and the queue are full, admission must
// fail fast with ErrOverloaded.
func TestShedPolicy(t *testing.T) {
	s, _, gate, errs := gatedServer(t, Shed, 1)
	defer s.Close()

	samples := testSamples(t, 2)
	// Fill the queue's single slot (dispatcher is blocked, so it stays).
	go func() {
		_, err := s.Lookup(context.Background(), samples[0])
		errs <- err
	}()
	waitUntil(t, func() bool { return len(s.in) == 1 })

	// The next request has nowhere to go: shed, synchronously.
	if _, err := s.Lookup(context.Background(), samples[1]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := s.Metrics().Shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	close(gate)
	for i := 0; i < 3+replicaWorkDepth; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted request %d failed: %v", i, err)
		}
	}
}

// TestBlockPolicy: with the queue full, admission must wait for space
// instead of shedding, and a canceled context must abort the wait.
func TestBlockPolicy(t *testing.T) {
	s, _, gate, errs := gatedServer(t, Block, 1)
	defer s.Close()

	samples := testSamples(t, 2)
	go func() {
		_, err := s.Lookup(context.Background(), samples[0])
		errs <- err
	}()
	waitUntil(t, func() bool { return len(s.in) == 1 })

	// A blocking admission: must not return while the queue is full.
	blockedDone := make(chan error, 1)
	go func() {
		_, err := s.Lookup(context.Background(), samples[1])
		blockedDone <- err
	}()
	select {
	case err := <-blockedDone:
		t.Fatalf("blocked admission returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// A second blocked admission with a cancelable context: cancellation
	// must release it with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	canceledDone := make(chan error, 1)
	go func() {
		_, err := s.Lookup(ctx, testSamples(t, 1)[0])
		canceledDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-canceledDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled admission err = %v, want context.Canceled", err)
	}

	close(gate)
	if err := <-blockedDone; err != nil {
		t.Errorf("blocked request failed after space freed: %v", err)
	}
	for i := 0; i < 3+replicaWorkDepth; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted request %d failed: %v", i, err)
		}
	}
	if got := s.Metrics().Shed.Load(); got != 0 {
		t.Errorf("shed counter = %d under Block policy", got)
	}
}

// TestCancelWhileQueued: a request whose context dies while it waits in
// the admission queue must be dropped at dequeue time with its error, not
// simulated.
func TestCancelWhileQueued(t *testing.T) {
	s, fake, gate, errs := gatedServer(t, Block, 8)
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	canceledDone := make(chan error, 1)
	go func() {
		_, err := s.Lookup(ctx, testSamples(t, 1)[0])
		canceledDone <- err
	}()
	// The dispatcher is blocked on the gated worker, so the request stays
	// queued until we cancel it.
	waitUntil(t, func() bool { return len(s.in) == 1 })
	cancel()
	if err := <-canceledDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	close(gate)
	for i := 0; i < 2+replicaWorkDepth; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted request %d failed: %v", i, err)
		}
	}
	waitUntil(t, func() bool { return s.Metrics().Canceled.Load() == 1 })
	// The canceled sample must never have reached a replica: the other
	// requests were 1-sample batches.
	for _, sz := range fake.batchSizes() {
		if sz != 1 {
			t.Errorf("batch of %d executed; canceled request leaked into a batch", sz)
		}
	}
	if got, want := s.Metrics().Completed.Load(), int64(2+replicaWorkDepth); got != want {
		t.Errorf("completed = %d, want %d", got, want)
	}
}

// TestGracefulDrain: Close must reject new work immediately but answer
// every already-admitted request before returning.
func TestGracefulDrain(t *testing.T) {
	s, _, gate, errs := gatedServer(t, Block, 8)

	admitted := 2 + replicaWorkDepth

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitUntil(t, s.Draining)

	if _, err := s.Lookup(context.Background(), testSamples(t, 1)[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Lookup err = %v, want ErrClosed", err)
	}

	select {
	case <-closed:
		t.Fatal("Close returned while admitted requests still pending")
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	<-closed
	for i := 0; i < admitted; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted request %d not answered cleanly: %v", i, err)
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.Completed != int64(admitted) {
		t.Errorf("completed = %d, want all %d admitted", snap.Completed, admitted)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestStressBitIdentical runs >= 8 concurrent clients against a 2-replica
// pool of real (CPU baseline) systems and checks every batched result
// bit-for-bit against the functional embedding layer. Run with -race.
func TestStressBitIdentical(t *testing.T) {
	spec := testSpec()
	layer := testLayer(t)
	var systems []arch.System
	for i := 0; i < 2; i++ {
		sys, err := baseline.NewCPU(baseline.Config{Spec: spec, Ranks: 2})
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	s := newTestServer(t, Options{
		Systems:  systems,
		Layer:    layer,
		MaxBatch: 8,
		MaxDelay: 200 * time.Microsecond,
	})

	const clients = 10
	const perClient = 20
	var issued, mismatches atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g, err := trace.NewGenerator(spec, int64(1000+c))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perClient; i++ {
				sample := g.Sample()
				res, err := s.Lookup(context.Background(), sample)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				issued.Add(1)
				want, err := layer.ReduceSample(sample)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res.Vectors, want) {
					mismatches.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if got := issued.Load(); got != clients*perClient {
		t.Fatalf("completed %d of %d requests", got, clients*perClient)
	}
	if m := mismatches.Load(); m != 0 {
		t.Fatalf("%d results differ from the functional layer", m)
	}
	snap := s.Metrics().Snapshot()
	if snap.Completed != clients*perClient {
		t.Errorf("metrics completed = %d, want %d", snap.Completed, clients*perClient)
	}
	if snap.Batches == 0 || snap.MeanBatch() < 1 {
		t.Errorf("batches = %d mean %f: coalescing never happened", snap.Batches, snap.MeanBatch())
	}
	batches, samples := s.ReplicaLoad()
	var totalB, totalS int64
	for i := range batches {
		totalB += batches[i]
		totalS += samples[i]
	}
	if totalB != snap.Batches || totalS != int64(clients*perClient) {
		t.Errorf("replica load %d batches/%d samples, want %d/%d",
			totalB, totalS, snap.Batches, clients*perClient)
	}
}

// TestLoadgen exercises the closed-loop generator end to end on a fake
// (fast) pool.
func TestLoadgen(t *testing.T) {
	s := newTestServer(t, Options{
		Systems:  []arch.System{&fakeSys{}, &fakeSys{}},
		MaxBatch: 8,
		MaxDelay: 100 * time.Microsecond,
	})
	defer s.Close()

	rep, err := Loadgen(s, LoadgenOptions{
		Spec:     testSpec(),
		Clients:  8,
		Duration: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Thru <= 0 {
		t.Fatalf("no throughput: %+v", rep)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Errorf("implausible percentiles p50=%v p99=%v", rep.P50, rep.P99)
	}
	if rep.String() == "" {
		t.Error("empty report")
	}
}
