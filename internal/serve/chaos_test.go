package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recross/internal/arch"
	"recross/internal/chaos"
	"recross/internal/trace"
)

// freshFake returns a Rebuild factory producing clean (fault-free,
// chaos-wrapped so counters stay shared) replicas.
func freshFake(inj *chaos.Injector) func(id int) (arch.System, error) {
	return func(id int) (arch.System, error) {
		return chaos.Wrap(&fakeSys{}, chaos.Config{}, id, inj), nil
	}
}

// goidSys is a fakeSys that records the goroutine every Run executes on.
type goidSys struct {
	fakeSys
	ids sync.Map // goroutine id -> struct{}
}

func (g *goidSys) Run(b trace.Batch) (*arch.RunStats, error) {
	buf := make([]byte, 64)
	g.ids.Store(strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1], struct{}{}) // "goroutine N [running]:"
	return g.fakeSys.Run(b)
}

// TestRunOnWorkerGoroutine: the timing model runs inline on the replica's
// worker, so sequential batches on one replica share one goroutine — no
// goroutine is started per batch.
func TestRunOnWorkerGoroutine(t *testing.T) {
	sys := &goidSys{}
	s := newTestServer(t, Options{Systems: []arch.System{sys}, MaxBatch: 1, MaxDelay: time.Hour})
	defer s.Close()
	for _, sample := range testSamples(t, 50) {
		if _, err := s.Lookup(context.Background(), sample); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	sys.ids.Range(func(_, _ any) bool { n++; return true })
	if n != 1 {
		t.Errorf("50 batches ran on %d goroutines, want 1 (the replica's worker)", n)
	}
}

// TestRestartsIndependent: each replica restarts on its own worker, so a
// hung Rebuild of one replica does not hold back another's restart.
func TestRestartsIndependent(t *testing.T) {
	inj := chaos.NewInjector()
	cfg := chaos.Config{Schedule: []chaos.Rule{
		{Replica: 0, Batch: 1, Kind: chaos.Panic},
		{Replica: 1, Batch: 1, Kind: chaos.Panic},
	}}
	gate := make(chan struct{})
	s := newTestServer(t, Options{
		Systems: []arch.System{
			chaos.Wrap(&fakeSys{}, cfg, 0, inj),
			chaos.Wrap(&fakeSys{}, cfg, 1, inj),
		},
		MaxBatch: 1,
		MaxDelay: time.Hour,
		Rebuild: func(id int) (arch.System, error) {
			if id == 0 {
				<-gate
			}
			return chaos.Wrap(&fakeSys{}, chaos.Config{}, id, inj), nil
		},
		RestartBackoff: time.Millisecond,
	})
	defer s.Close()
	defer close(gate) // before Close: a hung Rebuild would hang it

	// One request breaks both replicas: replica 0 panics, the retry lands
	// on replica 1, which panics too, and the answer is degraded.
	res, err := s.Lookup(context.Background(), testSamples(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Retries != 1 {
		t.Errorf("result degraded=%v retries=%d, want a degraded answer after 1 retry", res.Degraded, res.Retries)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !s.replicas[1].available() {
		if time.Now().After(deadline) {
			t.Fatalf("replica 1 still %v after 2s while replica 0's Rebuild hangs", s.replicas[1].State())
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.replicas[0].State(); st != Restarting {
		t.Errorf("replica 0 %v, want restarting (its Rebuild is blocked)", st)
	}
}

// TestCloseDuringWedge: Close issued while a batch is wedged still
// returns promptly — the watchdog keeps running until every worker has
// exited, claims the batch, and answers it degraded.
func TestCloseDuringWedge(t *testing.T) {
	inj := chaos.NewInjector()
	defer inj.ReleaseWedges()
	cfg := chaos.Config{Schedule: []chaos.Rule{{Replica: 0, Batch: 1, Kind: chaos.Wedge}}}
	s := newTestServer(t, Options{
		Systems:        []arch.System{chaos.Wrap(&fakeSys{}, cfg, 0, inj)},
		MaxBatch:       1,
		MaxDelay:       time.Hour,
		Rebuild:        freshFake(inj),
		WedgeTimeout:   50 * time.Millisecond,
		RestartBackoff: time.Millisecond,
	})
	type answer struct {
		res *Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := s.Lookup(context.Background(), testSamples(t, 1)[0])
		done <- answer{res, err}
	}()
	waitUntil(t, func() bool { return inj.Count(chaos.Wedge) == 1 })

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v with a batch wedged, want < 1s", d)
	}
	if a := <-done; a.err != nil || !a.res.Degraded {
		t.Errorf("wedged request: err=%v result=%+v, want a degraded answer", a.err, a.res)
	}
	if got := s.Metrics().FaultWedges.Load(); got != 1 {
		t.Errorf("wedge faults = %d, want 1", got)
	}
}

// TestPanicFailover: a scheduled replica panic must be recovered, the
// request retried on the sibling, and the replica restarted — the caller
// never sees an error.
func TestPanicFailover(t *testing.T) {
	inj := chaos.NewInjector()
	cfg := chaos.Config{Schedule: []chaos.Rule{{Replica: 0, Batch: 1, Kind: chaos.Panic}}}
	s := newTestServer(t, Options{
		Systems: []arch.System{
			chaos.Wrap(&fakeSys{}, cfg, 0, inj),
			chaos.Wrap(&fakeSys{}, cfg, 1, inj),
		},
		MaxBatch:       1,
		MaxDelay:       time.Hour,
		Rebuild:        freshFake(inj),
		RestartBackoff: time.Millisecond,
	})
	defer s.Close()

	res, err := s.Lookup(context.Background(), testSamples(t, 1)[0])
	if err != nil {
		t.Fatalf("lookup across a replica panic: %v", err)
	}
	if res.Replica != 1 || res.Retries != 1 || res.Degraded {
		t.Errorf("result replica=%d retries=%d degraded=%v, want 1/1/false",
			res.Replica, res.Retries, res.Degraded)
	}
	if got := s.Metrics().FaultPanics.Load(); got != 1 {
		t.Errorf("panic faults = %d, want 1", got)
	}
	if got := s.Metrics().Retries.Load(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	waitUntil(t, func() bool {
		return s.Metrics().Restarts.Load() >= 1 && s.AvailableReplicas() == 2
	})
}

// TestCorruptRetry: corrupted run stats must be detected and discarded,
// never served; the request retries on the sibling.
func TestCorruptRetry(t *testing.T) {
	inj := chaos.NewInjector()
	cfg := chaos.Config{Schedule: []chaos.Rule{{Replica: 0, Batch: 1, Kind: chaos.Corrupt}}}
	s := newTestServer(t, Options{
		Systems: []arch.System{
			chaos.Wrap(&fakeSys{}, cfg, 0, inj),
			chaos.Wrap(&fakeSys{}, cfg, 1, inj),
		},
		MaxBatch:       1,
		MaxDelay:       time.Hour,
		Rebuild:        freshFake(inj),
		RestartBackoff: time.Millisecond,
	})
	defer s.Close()

	res, err := s.Lookup(context.Background(), testSamples(t, 1)[0])
	if err != nil {
		t.Fatalf("lookup across a corrupt result: %v", err)
	}
	if res.Replica != 1 || res.Retries != 1 || res.ServiceCycles < 0 {
		t.Errorf("result replica=%d retries=%d cycles=%d; corrupt stats leaked",
			res.Replica, res.Retries, res.ServiceCycles)
	}
	if got := s.Metrics().FaultCorrupt.Load(); got != 1 {
		t.Errorf("corrupt faults = %d, want 1", got)
	}
	waitUntil(t, func() bool { return s.Metrics().Restarts.Load() >= 1 })
}

// TestWedgeDegraded: with a single replica, a wedged batch must be
// abandoned at WedgeTimeout and the request answered degraded (no other
// replica to retry on); the replica is then rebuilt and serves again.
func TestWedgeDegraded(t *testing.T) {
	inj := chaos.NewInjector()
	defer inj.ReleaseWedges()
	cfg := chaos.Config{Schedule: []chaos.Rule{{Replica: 0, Batch: 1, Kind: chaos.Wedge}}}
	s := newTestServer(t, Options{
		Systems:        []arch.System{chaos.Wrap(&fakeSys{}, cfg, 0, inj)},
		MaxBatch:       1,
		MaxDelay:       time.Hour,
		Rebuild:        freshFake(inj),
		WedgeTimeout:   10 * time.Millisecond,
		RestartBackoff: time.Millisecond,
	})
	defer s.Close()

	res, err := s.Lookup(context.Background(), testSamples(t, 1)[0])
	if err != nil {
		t.Fatalf("lookup across a wedged replica: %v", err)
	}
	if !res.Degraded || res.Replica != -1 {
		t.Errorf("result degraded=%v replica=%d, want degraded functional answer",
			res.Degraded, res.Replica)
	}
	if got := s.Metrics().FaultWedges.Load(); got != 1 {
		t.Errorf("wedge faults = %d, want 1", got)
	}

	// A successor worker swaps in a rebuilt System; the next request is served
	// by the timing model again.
	waitUntil(t, func() bool { return s.AvailableReplicas() == 1 })
	res, err = s.Lookup(context.Background(), testSamples(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.Replica != 0 {
		t.Errorf("post-restart result degraded=%v replica=%d, want normal service",
			res.Degraded, res.Replica)
	}
	if got := s.Metrics().Restarts.Load(); got != 1 {
		t.Errorf("restarts = %d, want 1", got)
	}
}

// TestRestartCapDeadQuorum: a replica that fails every restart must be
// declared dead after RestartCap attempts; with Quorum above the
// survivor count the server enters degraded mode — visible in /healthz
// semantics and the Prometheus rendering — while still answering.
func TestRestartCapDeadQuorum(t *testing.T) {
	inj := chaos.NewInjector()
	broken := chaos.Config{Rates: chaos.Rates{Panic: 1}}
	s := newTestServer(t, Options{
		Systems: []arch.System{
			chaos.Wrap(&fakeSys{}, broken, 0, inj),
			chaos.Wrap(&fakeSys{}, chaos.Config{}, 1, inj),
		},
		MaxBatch: 1,
		MaxDelay: time.Hour,
		Rebuild: func(id int) (arch.System, error) {
			if id == 0 {
				return chaos.Wrap(&fakeSys{}, broken, 0, inj), nil // still broken
			}
			return chaos.Wrap(&fakeSys{}, chaos.Config{}, id, inj), nil
		},
		RestartBackoff: time.Millisecond,
		RestartCap:     2,
		MaxRetries:     1,
		Quorum:         2,
	})
	defer s.Close()

	// Drive load until replica 0 exhausts its restart budget. Every
	// request must still be answered (retried on replica 1 or degraded).
	sample := testSamples(t, 1)[0]
	deadline := time.Now().Add(10 * time.Second)
	for s.replicas[0].State() != Dead {
		if time.Now().After(deadline) {
			t.Fatalf("replica 0 not dead after 10s; health %+v", s.Health())
		}
		if _, err := s.Lookup(context.Background(), sample); err != nil {
			t.Fatalf("lookup during replica death spiral: %v", err)
		}
	}

	if !s.Degraded() {
		t.Error("server not degraded with 1 of 2 replicas below quorum 2")
	}
	res, err := s.Lookup(context.Background(), sample)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("below-quorum lookup not flagged Degraded")
	}

	h := s.Health()
	if h.Status != "degraded" || h.Available != 1 {
		t.Errorf("health status=%q available=%d, want degraded/1", h.Status, h.Available)
	}
	if st := h.Replicas[0].State; st != "dead" {
		t.Errorf("replica 0 state %q, want dead", st)
	}
	expo := scrape(t, s)
	for _, want := range []string{
		`recross_replica_state{replica="0"} 3`,
		"recross_replicas_available 1",
		"recross_degraded_mode 1",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("health exposition missing %q:\n%s", want, expo)
		}
	}
}

// TestDefaultTimeout: a request arriving without a deadline must be
// bounded by Options.DefaultTimeout so a stuck pool cannot hold the
// caller forever (satellite of the -request-timeout flag).
func TestDefaultTimeout(t *testing.T) {
	gate := make(chan struct{})
	fake := &fakeSys{gate: gate}
	s := newTestServer(t, Options{
		Systems:        []arch.System{fake},
		MaxBatch:       1,
		MaxDelay:       time.Hour,
		DefaultTimeout: 30 * time.Millisecond,
	})

	start := time.Now()
	_, err := s.Lookup(context.Background(), testSamples(t, 1)[0])
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from the server-side default", err)
	}
	if elapsed < 30*time.Millisecond {
		t.Errorf("returned after %v, before the 30ms default deadline", elapsed)
	}
	close(gate)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosAcceptance is the acceptance scenario: a 4-replica server
// under concurrent load while panics, wedges, corruptions and latency
// spikes are injected (scripted faults guarantee every kind fires; rates
// add noise on top). The server must never crash, answer every request
// normally or with Result.Degraded set, restart the failed replicas, and
// return to full health once injection stops — with the recovery visible
// in the metrics. Run with -race.
func TestChaosAcceptance(t *testing.T) {
	const replicas = 4
	inj := chaos.NewInjector()
	defer inj.ReleaseWedges()
	cfg := chaos.Config{
		Rates: chaos.Rates{Panic: 0.03, Wedge: 0.01, Corrupt: 0.03, Latency: 0.08},
		Stall: 100 * time.Microsecond,
		Schedule: []chaos.Rule{
			{Replica: 0, Batch: 2, Kind: chaos.Panic},
			{Replica: 1, Batch: 2, Kind: chaos.Wedge},
			{Replica: 2, Batch: 2, Kind: chaos.Corrupt},
		},
		Seed: 7,
	}
	var systems []arch.System
	for i := 0; i < replicas; i++ {
		systems = append(systems, chaos.Wrap(&fakeSys{}, cfg, i, inj))
	}
	var gens [replicas]atomic.Int64 // incarnations per replica id
	layer := testLayer(t)
	s := newTestServer(t, Options{
		Systems:  systems,
		Layer:    layer,
		MaxBatch: 4,
		MaxDelay: 200 * time.Microsecond,
		// Rebuilt replicas keep probabilistic injection (same shared
		// injector) but drop the scripted rules, which would otherwise
		// re-fire on every rebuilt wrapper and keep the pool from healing,
		// and advance the seed per incarnation of each replica so one never
		// replays its predecessor's fault sequence (a stream that faults on
		// batch 1 would otherwise fault on batch 1 forever and bury the
		// replica) nor depends on the order other replicas restart in.
		Rebuild: func(id int) (arch.System, error) {
			rates := chaos.Config{Rates: cfg.Rates, Stall: cfg.Stall,
				Seed: cfg.Seed + replicas*gens[id].Add(1)}
			return chaos.Wrap(&fakeSys{}, rates, id, inj), nil
		},
		WedgeTimeout:   15 * time.Millisecond,
		RestartBackoff: time.Millisecond,
		RestartCap:     50,
		MaxRetries:     2,
	})

	var issued, degraded atomic.Int64
	lookup := func(sample trace.Sample) {
		res, err := s.Lookup(context.Background(), sample)
		if err != nil {
			t.Errorf("lookup under chaos: %v", err)
			return
		}
		issued.Add(1)
		if res.Degraded {
			degraded.Add(1)
		}
		want, err := layer.ReduceSample(sample)
		if err != nil {
			t.Error(err)
			return
		}
		if !reflect.DeepEqual(res.Vectors, want) {
			t.Errorf("result vectors differ from the functional layer (degraded=%v replica=%d)",
				res.Degraded, res.Replica)
		}
	}

	// Phase 1: concurrent load under active injection. Least-outstanding
	// dispatch breaks ties toward the first replica, so on a host with few
	// cores one round may never hand replica 2 the second batch its
	// scripted fault waits for: repeat rounds until all three have fired.
	const clients, perClient = 6, 30
	var snap Snapshot
	for round, deadline := 0, time.Now().Add(10*time.Second); ; round++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				g, err := trace.NewGenerator(testSpec(), int64(500+clients*round+c))
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < perClient; i++ {
					lookup(g.Sample())
				}
			}(c)
		}
		wg.Wait()
		snap = s.Metrics().Snapshot()
		if (snap.FaultPanics >= 1 && snap.FaultWedges >= 1 && snap.FaultCorrupt >= 1) || time.Now().After(deadline) {
			break
		}
	}

	if snap.FaultPanics < 1 || snap.FaultWedges < 1 || snap.FaultCorrupt < 1 {
		t.Errorf("scripted faults did not all fire: panics=%d wedges=%d corrupt=%d",
			snap.FaultPanics, snap.FaultWedges, snap.FaultCorrupt)
	}
	if snap.Restarts < 1 {
		t.Errorf("restarts = %d, want > 0 (self-healing never ran)", snap.Restarts)
	}

	// Phase 2: stop injection and drive light traffic until every replica
	// is healthy again (restarting replicas need a rebuild, suspect ones a
	// served batch to clear probation).
	inj.SetEnabled(false)
	inj.ReleaseWedges()
	g, err := trace.NewGenerator(testSpec(), 999)
	if err != nil {
		t.Fatal(err)
	}
	healed := func() bool {
		if s.AvailableReplicas() != replicas {
			return false
		}
		for _, r := range s.Health().Replicas {
			if r.State != "healthy" {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(10 * time.Second)
	for !healed() {
		if time.Now().After(deadline) {
			t.Fatalf("pool did not heal in 10s; health %+v", s.Health())
		}
		// Bursts, not single probes: an idle suspect replica only clears
		// probation by serving a batch, and least-outstanding dispatch
		// breaks zero-load ties toward the first replica.
		var hwg sync.WaitGroup
		for i := 0; i < 2*replicas*s.opts.MaxBatch; i++ {
			sample := g.Sample()
			hwg.Add(1)
			go func() {
				defer hwg.Done()
				lookup(sample)
			}()
		}
		hwg.Wait()
	}

	// Recovery must be visible in the exported metrics.
	snap = s.Metrics().Snapshot()
	if got := issued.Load(); snap.Completed != got {
		t.Errorf("metrics completed = %d, want %d (every request answered)", snap.Completed, got)
	}
	if snap.Degraded != degraded.Load() {
		t.Errorf("metrics degraded = %d, want %d", snap.Degraded, degraded.Load())
	}
	expo := scrape(t, s)
	if want := fmt.Sprintf("recross_replica_restarts_total %d\n", snap.Restarts); snap.Restarts == 0 || !strings.Contains(expo, want) {
		t.Errorf("exposition lacks %q", want)
	}
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, "recross_replica_state{") && !strings.HasSuffix(line, " 0") {
			t.Errorf("replica not healthy after injection stopped: %s", line)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Metrics().Completed.Load(), issued.Load(); got != want {
		t.Errorf("after close: completed = %d, want %d", got, want)
	}
}
