package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recross/internal/arch"
	"recross/internal/trace"
)

// TestCanceledRequestNeverOpensBatch: a request that is already dead at
// dequeue must be dropped before it opens a batch or arms the MaxDelay
// timer — no empty flush, no batch, just the Canceled count.
func TestCanceledRequestNeverOpensBatch(t *testing.T) {
	fake := &fakeSys{}
	const delay = 20 * time.Millisecond
	s := newTestServer(t, Options{
		Systems:  []arch.System{fake},
		MaxBatch: 8,
		MaxDelay: delay,
		Policy:   Shed, // empty queue: enqueue succeeds even with a dead ctx
	})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Lookup(ctx, testSamples(t, 1)[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitUntil(t, func() bool { return s.Metrics().Canceled.Load() == 1 })

	// Outwait the flush deadline: had the dead request opened a batch, the
	// timer would fire an (empty) flush in delay.
	time.Sleep(3 * delay)
	snap := s.Metrics().Snapshot()
	if snap.Batches != 0 || snap.BatchForm.Count != 0 {
		t.Errorf("dead request produced batches=%d formations=%d, want 0/0",
			snap.Batches, snap.BatchForm.Count)
	}
	if sizes := fake.batchSizes(); len(sizes) != 0 {
		t.Errorf("replica ran batches %v for a canceled request", sizes)
	}

	// The batcher must still be live for real work.
	if _, err := s.Lookup(context.Background(), testSamples(t, 1)[0]); err != nil {
		t.Fatalf("lookup after dropped request: %v", err)
	}
}

// TestDeadlineFlushRacesAdmissions hammers a tiny MaxDelay with
// concurrent admissions so deadline flushes race size flushes and the
// timer is constantly re-armed, stopped and drained. Run with -race; the
// assertions are just that nothing is lost.
func TestDeadlineFlushRacesAdmissions(t *testing.T) {
	s := newTestServer(t, Options{
		Systems:  []arch.System{&fakeSys{}},
		MaxBatch: 64,
		MaxDelay: 100 * time.Microsecond,
	})
	defer s.Close()

	const clients, perClient = 8, 40
	var completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g, err := trace.NewGenerator(testSpec(), int64(100+c))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perClient; i++ {
				if _, err := s.Lookup(context.Background(), g.Sample()); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				completed.Add(1)
			}
		}(c)
	}
	wg.Wait()

	if got := completed.Load(); got != clients*perClient {
		t.Fatalf("completed %d of %d", got, clients*perClient)
	}
	snap := s.Metrics().Snapshot()
	if snap.Batches == 0 || snap.BatchForm.Count != snap.Batches {
		t.Errorf("batches=%d formations=%d: flush accounting drifted",
			snap.Batches, snap.BatchForm.Count)
	}
}

// TestFlushRacesClose races graceful drain against in-flight admissions
// and half-formed batches: every Lookup must resolve — a normal result,
// a degraded result, or ErrClosed — and Close must not strand anything.
// Run with -race.
func TestFlushRacesClose(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		s := newTestServer(t, Options{
			Systems:  []arch.System{&fakeSys{}, &fakeSys{}},
			MaxBatch: 4,
			MaxDelay: 50 * time.Microsecond,
		})
		samples := testSamples(t, 16)
		var answered, closed atomic.Int64
		var wg sync.WaitGroup
		for i := range samples {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := s.Lookup(context.Background(), samples[i])
				switch {
				case err == nil && res != nil:
					answered.Add(1)
				case errors.Is(err, ErrClosed):
					closed.Add(1)
				default:
					t.Errorf("iter %d: lookup err = %v", iter, err)
				}
			}(i)
		}
		s.Close()
		wg.Wait()
		if got := answered.Load() + closed.Load(); got != int64(len(samples)) {
			t.Fatalf("iter %d: %d answered + %d rejected != %d issued",
				iter, answered.Load(), closed.Load(), len(samples))
		}
		// Drain contract: everyone the server admitted, it answered.
		snap := s.Metrics().Snapshot()
		if snap.Completed+snap.Failed != snap.Admitted {
			t.Fatalf("iter %d: admitted %d but completed %d + failed %d",
				iter, snap.Admitted, snap.Completed, snap.Failed)
		}
	}
}

// TestTimerReuseAfterStop interleaves size-triggered flushes (which stop
// a live timer) with deadline-triggered flushes (which re-arm it) while
// every replica is busy: the timer must stay reusable across Stop/Reset
// cycles.
func TestTimerReuseAfterStop(t *testing.T) {
	const delay = 100 * time.Millisecond
	s, fake, release, opener := busyServer(t, Options{MaxBatch: 2, MaxDelay: delay})

	samples := testSamples(t, 5)
	formed := func(n int64) {
		waitUntil(t, func() bool { return s.Metrics().BatchForm.Snapshot().Count == n })
	}
	// Size flush: arms the timer on the first request, stops it on the second.
	answers := []<-chan answer{lookupAsync(s, samples[0]), lookupAsync(s, samples[1])}
	formed(2)
	// Deadline flush: the timer is reused.
	start := time.Now()
	answers = append(answers, lookupAsync(s, samples[2]))
	formed(3)
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("lone request flushed after %v, want a deadline flush after %v", elapsed, delay)
	}
	// And the timer must re-arm cleanly again.
	answers = append(answers, lookupAsync(s, samples[3]), lookupAsync(s, samples[4]))
	formed(4)
	release()

	if err := <-opener; err != nil {
		t.Fatalf("opener: %v", err)
	}
	for i, ch := range answers {
		if a := <-ch; a.err != nil {
			t.Fatalf("request %d: %v", i, a.err)
		}
	}
	if got, want := fake.batchSizes(), []int{1, 2, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("batch sizes %v, want %v (opener, then size, deadline, size)", got, want)
	}
	if snap := s.Metrics().Snapshot(); snap.Batches != 4 || snap.DeadlineFlushes != 1 {
		t.Errorf("batches = %d, deadline flushes = %d; want 4 (opener, then size, deadline, size) and 1",
			snap.Batches, snap.DeadlineFlushes)
	}
}

// answer is one Lookup's outcome, delivered by lookupAsync.
type answer struct {
	res *Result
	err error
}

// lookupAsync issues one Lookup on its own goroutine. The 5s deadline
// turns a batcher that wrongly waits out a long MaxDelay into a failed
// answer instead of a hung test.
func lookupAsync(s *Server, sample trace.Sample) <-chan answer {
	ch := make(chan answer, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		res, err := s.Lookup(ctx, sample)
		ch <- answer{res, err}
	}()
	return ch
}

// busyServer builds a 1-replica server and parks an opening request in the
// replica's Run on a gate, so every replica is busy — the one state in
// which the batcher waits for co-riders. release opens the gate (once);
// the opener's Lookup error arrives on the returned channel. Cleanup
// releases the gate and closes the server.
func busyServer(t *testing.T, opts Options) (*Server, *fakeSys, func(), <-chan error) {
	t.Helper()
	gate := make(chan struct{})
	// started has room for every Run one of these tests makes.
	fake := &fakeSys{gate: gate, started: make(chan struct{}, 64)}
	opts.Systems = []arch.System{fake}
	s := newTestServer(t, opts)
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(func() {
		release()
		s.Close()
	})

	a := lookupAsync(s, testSamples(t, 1)[0])
	select {
	case <-fake.started:
	case <-time.After(5 * time.Second):
		t.Fatal("opener never reached the idle replica")
	}
	opener := make(chan error, 1)
	go func() { opener <- (<-a).err }()
	return s, fake, release, opener
}

// TestIdleFlushImmediate: on an idle pool a lone lookup flushes at once as
// a batch of 1 — MaxDelay bounds waiting only while every replica is busy,
// so the hour-long timer is never armed, let alone waited out.
func TestIdleFlushImmediate(t *testing.T) {
	fake := &fakeSys{}
	s := newTestServer(t, Options{Systems: []arch.System{fake}, MaxDelay: time.Hour})
	defer s.Close()

	a := <-lookupAsync(s, testSamples(t, 1)[0])
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.res.BatchSize != 1 {
		t.Errorf("batch size %d, want 1", a.res.BatchSize)
	}
	if snap := s.Metrics().Snapshot(); snap.DeadlineFlushes != 0 || snap.Batches != 1 {
		t.Errorf("deadline flushes = %d, batches = %d; want 0 and 1", snap.DeadlineFlushes, snap.Batches)
	}
}

// TestIdleWakeFlushes: with the only replica busy, the batcher holds
// requests; the moment the replica frees up it flushes them as one batch,
// long before MaxDelay.
func TestIdleWakeFlushes(t *testing.T) {
	s, fake, release, opener := busyServer(t, Options{MaxDelay: time.Hour})

	var answers []<-chan answer
	for _, sample := range testSamples(t, 3) {
		answers = append(answers, lookupAsync(s, sample))
	}
	// All three are dequeued into the open batch, which stays unflushed.
	waitUntil(t, func() bool { return s.Metrics().QueueWait.Snapshot().Count == 4 })
	if n := s.Metrics().BatchForm.Snapshot().Count; n != 1 {
		t.Fatalf("%d batches formed while the replica was busy, want only the opener", n)
	}
	release()

	if err := <-opener; err != nil {
		t.Fatalf("opener: %v", err)
	}
	for i, ch := range answers {
		a := <-ch
		if a.err != nil {
			t.Fatalf("request %d: %v", i, a.err)
		}
		if a.res.BatchSize != 3 {
			t.Errorf("request %d rode batch of %d, want 3", i, a.res.BatchSize)
		}
	}
	if got, want := fake.batchSizes(), []int{1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("batch sizes %v, want %v", got, want)
	}
	if n := s.Metrics().DeadlineFlushes.Load(); n != 0 {
		t.Errorf("deadline flushes = %d, want 0", n)
	}
}

// TestFlushBelowQuorum: below quorum a batch is answered degraded one
// request at a time, so waiting buys nothing — a lookup is answered at
// once even though the one available replica is busy.
func TestFlushBelowQuorum(t *testing.T) {
	gate := make(chan struct{})
	busy := &fakeSys{gate: gate, started: make(chan struct{}, 1)}
	s := newTestServer(t, Options{
		Systems:  []arch.System{busy, &fakeSys{}},
		Quorum:   2,
		MaxDelay: time.Hour,
	})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(func() {
		release()
		s.Close()
	})

	samples := testSamples(t, 2)
	opener := lookupAsync(s, samples[0]) // least-loaded tie: replica 0
	select {
	case <-busy.started:
	case <-time.After(5 * time.Second):
		t.Fatal("opener never reached replica 0")
	}
	s.replicas[1].setState(Dead) // 1 available < quorum 2, and it is busy

	a := <-lookupAsync(s, samples[1])
	if a.err != nil {
		t.Fatal(a.err)
	}
	if !a.res.Degraded {
		t.Errorf("below quorum: answer not degraded: %+v", a.res)
	}
	if n := s.Metrics().DeadlineFlushes.Load(); n != 0 {
		t.Errorf("deadline flushes = %d, want 0", n)
	}
	release()
	if o := <-opener; o.err != nil || o.res.Degraded {
		t.Errorf("opener: err %v degraded %v, want a normal answer", o.err, o.res != nil && o.res.Degraded)
	}
}

// TestFlushQueuedRideOneBatch: requests already queued when the
// dispatcher comes free are drained into one batch, up to MaxBatch,
// rather than flushed one by one.
func TestFlushQueuedRideOneBatch(t *testing.T) {
	s, fake, release, opener := busyServer(t, Options{MaxBatch: 4, MaxDelay: time.Hour})

	samples := testSamples(t, 18)
	var answers []<-chan answer
	// Three size-4 batches: two fill the replica's work channel, the third
	// holds the dispatcher in its hand-off.
	for _, sample := range samples[:12] {
		answers = append(answers, lookupAsync(s, sample))
	}
	waitUntil(t, func() bool {
		return s.Metrics().BatchForm.Snapshot().Count == 4 && len(s.replicas[0].work) == replicaWorkDepth
	})
	// Six more wait in the admission queue.
	for _, sample := range samples[12:] {
		answers = append(answers, lookupAsync(s, sample))
	}
	waitUntil(t, func() bool { return len(s.in) == 6 })
	release()

	if err := <-opener; err != nil {
		t.Fatalf("opener: %v", err)
	}
	for i, ch := range answers {
		if a := <-ch; a.err != nil {
			t.Fatalf("request %d: %v", i, a.err)
		}
	}
	if got, want := fake.batchSizes(), []int{1, 4, 4, 4, 4, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("batch sizes %v, want %v", got, want)
	}
	if n := s.Metrics().DeadlineFlushes.Load(); n != 0 {
		t.Errorf("deadline flushes = %d, want 0", n)
	}
}
