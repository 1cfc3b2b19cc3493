package recross

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"recross/internal/partition"
)

// stackCase builds the config of one composition: any subset of the
// optional stages at one storage precision, over the oversubscribed
// cold-tier spec. The cold pages use the DRAM tiers' codec so every path
// serves the same canonical decoded values as the reference layer.
func stackCase(t *testing.T, cold, chaosOn bool, prec Precision) (Config, ServeOptions) {
	cfg := Config{Spec: coldSpec(), ProfileSamples: 800, Batch: 16, Precision: prec}
	if cold {
		cfg.Cold = coldTierConfig()
		cfg.Cold.Dir = t.TempDir()
		cfg.Cold.Precision = prec
	}
	if chaosOn {
		cfg.Chaos = &FaultConfig{
			Rates: FaultRates{Latency: 0.05, Corrupt: 0.03, Panic: 0.02, Wedge: 0.005},
			Stall: 100 * time.Microsecond,
			Seed:  7,
		}
	}
	return cfg, ServeOptions{
		MaxBatch: 16, MaxDelay: time.Millisecond,
		WedgeTimeout: 250 * time.Millisecond, RestartBackoff: time.Millisecond,
	}
}

// referenceLayer is the functional ground truth at a storage precision.
func referenceLayer(t *testing.T, spec ModelSpec, prec Precision) *Layer {
	t.Helper()
	ref, err := Config{Spec: spec, Precision: prec}.newLayer()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// serveWave submits n samples concurrently (so both replicas see batches)
// and checks every answered vector bit-identical to ref.
func serveWave(t *testing.T, lookup func(context.Context, Sample) ([][]float32, error), gen *Generator, ref *Layer, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		sample := gen.Sample()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := lookup(context.Background(), sample)
			if err != nil {
				errs <- err
				return
			}
			want, err := ref.ReduceSample(sample)
			if err != nil {
				errs <- err
				return
			}
			for k := range want {
				if !AlmostEqual(got[k], want[k], 0) {
					errs <- fmt.Errorf("op %d (table %d): vector differs from the reference layer", k, sample[k].Table)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func stackLookup(st *Stack) func(context.Context, Sample) ([][]float32, error) {
	return func(ctx context.Context, s Sample) ([][]float32, error) {
		res, err := st.Lookup(ctx, s)
		if err != nil {
			return nil, err
		}
		return res.Vectors, nil
	}
}

// settleGoroutines waits for the goroutine count to fall back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d after Close, %d before construction\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func assertDirEmpty(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("cold backing file survived Close: %v", left)
	}
}

// TestStackComposition: the optional stages of NewStack are independent —
// every subset of {cold, chaos} at fp32 and int8 serves answers
// bit-identical to the functional layer — and they compose: with both on,
// every replica inside its chaos wrapper runs the stack's one placement,
// rebuilt replicas come back wrapped on that placement, both stages'
// metrics ride /metrics, and Close releases every stage's resources.
func TestStackComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 8 stacks")
	}
	for _, prec := range []Precision{FP32, INT8} {
		for mask := 0; mask < 4; mask++ {
			cold, chaosOn := mask&1 != 0, mask&2 != 0
			name := fmt.Sprintf("%v/cold=%v,chaos=%v", prec, cold, chaosOn)
			t.Run(name, func(t *testing.T) {
				cfg, opts := stackCase(t, cold, chaosOn, prec)
				st, err := NewStack(ReCross, cfg, 2, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if (st.Cold != nil) != cold || (st.Faults != nil) != chaosOn {
					t.Fatalf("handles: Cold %v, Faults %v", st.Cold != nil, st.Faults != nil)
				}
				gen, err := NewGenerator(cfg.Spec, 42)
				if err != nil {
					t.Fatal(err)
				}
				ref := referenceLayer(t, cfg.Spec, prec)
				for w := 0; w < 6; w++ {
					serveWave(t, stackLookup(st), gen, ref, 32)
				}
				if chaosOn && st.Faults.Total() == 0 {
					t.Error("chaos stage injected nothing")
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if cold {
					assertDirEmpty(t, cfg.Cold.Dir)
				}
			})
		}
	}
	t.Run("all-stages", testStackAllStages)
	t.Run("fleet-cold-chaos", testFleetColdChaos)
}

// replicaView is what a probe sees of one replica's System.
type replicaView struct {
	wrapped bool
	pl      *partition.Placement // the inner ReCross's deployed placement
}

// probeReplicas stages a no-op update that records every replica's System
// and drives traffic until each worker has applied it.
func probeReplicas(t *testing.T, srv *Server, drive func()) map[int]replicaView {
	t.Helper()
	var mu sync.Mutex
	views := map[int]replicaView{}
	srv.StageUpdate(func(id int, sys System) (System, error) {
		v := replicaView{}
		inner := sys
		if fs, ok := sys.(*FaultySystem); ok {
			v.wrapped, inner = true, fs.Inner()
		}
		if rc, ok := inner.(*ReCrossSystem); ok {
			v.pl = rc.Placement()
		}
		mu.Lock()
		views[id] = v
		mu.Unlock()
		return sys, nil
	})
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		n := len(views)
		mu.Unlock()
		if n == srv.Replicas() {
			return views
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d replicas applied the probe", n, srv.Replicas())
		}
		drive()
	}
}

func testStackAllStages(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg, opts := stackCase(t, true, true, INT8)
	st, err := NewStack(ReCross, cfg, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	gen, err := NewGenerator(cfg.Spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceLayer(t, cfg.Spec, INT8)
	drive := func() { serveWave(t, stackLookup(st), gen, ref, 32) }

	// One plan per stack: every replica runs the stack's placement itself,
	// not a copy solved or built per replica.
	for id, v := range probeReplicas(t, st.Server, drive) {
		if !v.wrapped || v.pl != st.plan {
			t.Fatalf("replica %d: wrapped %v, inner placement %p, stack's %p", id, v.wrapped, v.pl, st.plan)
		}
	}

	// A rebuilt replica comes back wrapped and on the stack's placement.
	restarts := st.Metrics().Restarts.Load()
	for deadline := time.Now().Add(30 * time.Second); st.Metrics().Restarts.Load() == restarts; {
		if time.Now().After(deadline) {
			t.Fatal("chaos never forced a replica rebuild")
		}
		drive()
	}
	for id, v := range probeReplicas(t, st.Server, drive) {
		if !v.wrapped || v.pl != st.plan {
			t.Fatalf("replica %d after a rebuild: wrapped %v, inner placement %p, stack's %p", id, v.wrapped, v.pl, st.plan)
		}
	}

	rec := httptest.NewRecorder()
	st.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, series := range []string{"recross_coldstore_page_reads_total", "recross_replica_faults_"} {
		if !strings.Contains(rec.Body.String(), series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	assertDirEmpty(t, cfg.Cold.Dir)
	settleGoroutines(t, base)
}

// testFleetColdChaos: in-binary cluster nodes come from the same
// pipeline, so each gets its own cold store and chaos-wrapped replicas.
func testFleetColdChaos(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg, opts := stackCase(t, true, true, FP32)
	cs, err := NewClusterServer(ReCross, cfg, ClusterConfig{Nodes: 2, Serve: opts, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	gen, err := NewGenerator(cfg.Spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceLayer(t, cfg.Spec, FP32)
	drive := func() {
		serveWave(t, func(ctx context.Context, s Sample) ([][]float32, error) {
			res, err := cs.Lookup(ctx, s)
			if err != nil {
				return nil, err
			}
			return res.Vectors, nil
		}, gen, ref, 32)
	}
	for w := 0; w < 8; w++ {
		drive()
	}
	// Node 0's first replica planned for the whole cluster.
	var plan *partition.Placement
	for i, st := range cs.Stacks {
		for id, v := range probeReplicas(t, st.Server, drive) {
			if plan == nil {
				plan = v.pl
			}
			if v.pl == nil || v.pl != plan {
				t.Fatalf("node %d replica %d: placement %p, node 0's %p", i, id, v.pl, plan)
			}
		}
	}
	if files, _ := os.ReadDir(cfg.Cold.Dir); len(files) != 2 {
		t.Errorf("%d cold backing files for 2 nodes", len(files))
	}
	var faults int64
	for i, srv := range cs.Stacks {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if !strings.Contains(rec.Body.String(), "recross_coldstore_page_reads_total") {
			t.Errorf("node %d /metrics lacks the cold store's series", i)
		}
		snap := srv.Metrics().Snapshot()
		faults += snap.FaultPanics + snap.FaultWedges + snap.FaultCorrupt + snap.FaultErrors
	}
	if faults == 0 {
		t.Error("no node's replica observed an injected fault")
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	assertDirEmpty(t, cfg.Cold.Dir)
	settleGoroutines(t, base)
}

// TestRebuildSeedPerReplica: a rebuilt replica's chaos stream depends only
// on its own incarnation count, not on the order in which other replicas
// restarted — replicas restart concurrently, so a stack-wide count would
// make the fault campaign depend on scheduling.
func TestRebuildSeedPerReplica(t *testing.T) {
	cfg := Config{Spec: miniSpec(), Chaos: &FaultConfig{Rates: FaultRates{Corrupt: 0.5}, Seed: 7}}
	gen, err := NewGenerator(cfg.Spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch := gen.Batch(2)
	// faults rebuilds replicas in order and returns which of 24 batches
	// replica 0's first rebuild (its second incarnation) corrupts.
	faults := func(order ...int) []bool {
		st := &Stack{Faults: NewFaultInjector()}
		rebuild := st.rebuilder(CPU, cfg, 2)
		var sys System
		for _, id := range order {
			s, err := rebuild(id)
			if err != nil {
				t.Fatal(err)
			}
			if id == 0 && sys == nil {
				sys = s
			}
		}
		var got []bool
		for i := 0; i < 24; i++ {
			rs, err := sys.Run(batch)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rs.Cycles < 0)
		}
		return got
	}
	if a, b := faults(0, 1, 0), faults(1, 0, 0); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("replica 0's second incarnation depends on restart order:\n%v\n%v", a, b)
	}
}
