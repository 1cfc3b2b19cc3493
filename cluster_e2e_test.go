package recross

import (
	"context"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func clusterSpec() ModelSpec {
	return ModelSpec{Name: "cluster-e2e", Tables: []TableSpec{
		{Name: "t0", Rows: 5000, VecLen: 32, Pooling: 8, Prob: 1, Skew: 1.1},
		{Name: "t1", Rows: 5000, VecLen: 32, Pooling: 8, Prob: 1, Skew: 1.1},
		{Name: "t2", Rows: 5000, VecLen: 32, Pooling: 8, Prob: 1, Skew: 1.1},
		{Name: "t3", Rows: 5000, VecLen: 32, Pooling: 8, Prob: 1, Skew: 1.1},
		{Name: "t4", Rows: 5000, VecLen: 32, Pooling: 8, Prob: 1, Skew: 1.1},
		{Name: "t5", Rows: 5000, VecLen: 32, Pooling: 8, Prob: 1, Skew: 1.1},
	}}
}

// listenBin serves srv's binary wire on a loopback port until the test
// ends and returns the listener's address.
func listenBin(t *testing.T, srv *Server) string {
	t.Helper()
	bs, err := NewBinServer(srv)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		bs.Serve(lis)
	}()
	t.Cleanup(func() {
		bs.Close()
		<-served
	})
	return lis.Addr().String()
}

// TestClusterE2E is the full cluster story through the public facade: a
// 4-node goroutine fleet serves bit-identical scatter-gathered answers
// under concurrent load; a mid-run node kill degrades only the tables
// uniquely placed on that node (never an error, never a wrong bit); and
// a restart is re-admitted by the prober, after which the victim's
// tables serve normally again.
func TestClusterE2E(t *testing.T) {
	spec := clusterSpec()
	cfg := Config{Spec: spec, ProfileSamples: 500, Batch: 16}
	cs, err := NewClusterServer(ReCross, cfg, ClusterConfig{
		Nodes:         4,
		ProbeInterval: 20 * time.Millisecond,
		HedgeDelay:    -1, // keep dispatch deterministic for the phase asserts
		Serve:         ServeOptions{MaxBatch: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	layer, err := NewLayer(spec)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(spec, 7)
	if err != nil {
		t.Fatal(err)
	}

	// Pick a victim that owns at least one table exclusively; with 6
	// tables on 4 nodes one must exist.
	pl := cs.Router.Placement()
	victim := -1
	for i := 0; i < 4; i++ {
		if len(pl.UniqueTables(i)) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatalf("no node owns a unique table; replicas %v", pl.Replicas)
	}
	uniq := map[int]bool{}
	for _, tb := range pl.UniqueTables(victim) {
		uniq[tb] = true
	}
	touchesUniq := func(s Sample) bool {
		for _, op := range s {
			if uniq[op.Table] {
				return true
			}
		}
		return false
	}

	// Phase 1: healthy cluster, concurrent load, every answer
	// bit-identical and none degraded.
	var wg sync.WaitGroup
	var phase1Errs, phase1Bad atomic.Int64
	for c := 0; c < 4; c++ {
		g, err := NewGenerator(spec, 100+int64(c))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g *Generator) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				sample := g.Sample()
				res, err := cs.Lookup(context.Background(), sample)
				if err != nil {
					phase1Errs.Add(1)
					return
				}
				want, err := layer.ReduceSample(sample)
				if err != nil || !reflect.DeepEqual(res.Vectors, want) || res.Degraded {
					phase1Bad.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if phase1Errs.Load() > 0 || phase1Bad.Load() > 0 {
		t.Fatalf("healthy phase: %d errors, %d bad answers", phase1Errs.Load(), phase1Bad.Load())
	}

	// Phase 2: kill the victim under load. Nothing may error; answers
	// stay bit-identical; degradation appears, and only on samples that
	// touch the victim's unique tables.
	var killWG sync.WaitGroup
	var p2Errs, p2Bad, p2Degraded, p2WrongDegrade atomic.Int64
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		g, err := NewGenerator(spec, 200+int64(c))
		if err != nil {
			t.Fatal(err)
		}
		killWG.Add(1)
		go func(g *Generator) {
			defer killWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sample := g.Sample()
				res, err := cs.Lookup(context.Background(), sample)
				if err != nil {
					p2Errs.Add(1)
					continue
				}
				want, rerr := layer.ReduceSample(sample)
				if rerr != nil || !reflect.DeepEqual(res.Vectors, want) {
					p2Bad.Add(1)
				}
				if res.Degraded {
					p2Degraded.Add(1)
					if !touchesUniq(sample) {
						p2WrongDegrade.Add(1)
					}
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	if err := cs.Fleet.Kill(victim); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	killWG.Wait()
	if p2Errs.Load() > 0 {
		t.Errorf("node kill surfaced %d errors; loss must degrade, not fail", p2Errs.Load())
	}
	if p2Bad.Load() > 0 {
		t.Errorf("%d answers lost bit-identity during the kill", p2Bad.Load())
	}
	if p2WrongDegrade.Load() > 0 {
		t.Errorf("%d answers degraded without touching the victim's unique tables", p2WrongDegrade.Load())
	}

	// A direct probe of a unique table degrades while the victim is down.
	for i := 0; i < 8; i++ {
		var sample Sample
		for len(sample) == 0 || !touchesUniq(sample) {
			sample = gen.Sample()
		}
		res, err := cs.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded {
			t.Fatalf("unique-table sample served undegraded with its only owner down (attempt %d)", i)
		}
		want, err := layer.ReduceSample(sample)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Vectors, want) {
			t.Fatal("degraded answer not bit-identical")
		}
		break
	}
	if h := cs.Router.Health(); h.Status != "degraded" || h.Available != 3 {
		t.Errorf("health after kill = %q/%d available, want degraded/3", h.Status, h.Available)
	}

	// Phase 3: restart; the prober re-admits the node, after which
	// unique tables serve undegraded again.
	if err := cs.Fleet.Restart(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cs.Router.Health().Available != 4 {
		if time.Now().After(deadline) {
			t.Fatal("restarted node never re-admitted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		var sample Sample
		for len(sample) == 0 || !touchesUniq(sample) {
			sample = gen.Sample()
		}
		res, err := cs.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded {
			t.Fatalf("lookup %d still degraded after re-admission", i)
		}
		want, err := layer.ReduceSample(sample)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Vectors, want) {
			t.Fatal("post-restart answer not bit-identical")
		}
	}

	st := cs.Router.Stats()
	if st.Degraded == 0 || st.Revivals == 0 {
		t.Errorf("stats degraded=%d revivals=%d, want both > 0", st.Degraded, st.Revivals)
	}
}

// TestClusterLoadgenSmoke: the cluster load generator completes against
// a small fleet and reports sane numbers.
func TestClusterLoadgenSmoke(t *testing.T) {
	spec := clusterSpec()
	cs, err := NewClusterServer(ReCross, Config{Spec: spec, ProfileSamples: 500, Batch: 16}, ClusterConfig{
		Nodes: 2,
		Serve: ServeOptions{MaxBatch: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	rep, err := ClusterLoadgen(cs.Router, LoadgenOptions{
		Spec:     spec,
		Clients:  4,
		Duration: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Thru <= 0 {
		t.Errorf("loadgen served nothing: %+v", rep)
	}
	if rep.Errors > 0 || rep.Degraded > 0 {
		t.Errorf("healthy loadgen saw errors=%d degraded=%d", rep.Errors, rep.Degraded)
	}
}

// TestPeersAreBinary: a router's peers are binary-wire listeners. Any
// other scheme is rejected at construction with an error naming the
// address to give instead (-bin-addr); "bin://host:port" and a bare
// "host:port" both reach a node's BinServer and serve bit-identically.
func TestPeersAreBinary(t *testing.T) {
	spec := clusterSpec()
	cfg := Config{Spec: spec, ProfileSamples: 500, Batch: 16}
	if cs, err := NewClusterServer(ReCross, cfg, ClusterConfig{Peers: []string{"http://h:1"}}); err == nil {
		cs.Close()
		t.Fatal("an http:// peer was accepted")
	} else if !strings.Contains(err.Error(), "-bin-addr") {
		t.Errorf("rejection %q does not name -bin-addr", err)
	}

	var peers []string
	for _, scheme := range []string{"bin://", ""} {
		srv, err := NewServer(ReCross, cfg, 1, ServeOptions{MaxBatch: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		peers = append(peers, scheme+listenBin(t, srv))
	}
	cs, err := NewClusterServer(ReCross, cfg, ClusterConfig{Peers: peers, HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	layer, err := NewLayer(spec)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sample := range gen.Batch(8) {
		res, err := cs.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatal(err)
		}
		want, err := layer.ReduceSample(sample)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded || !reflect.DeepEqual(res.Vectors, want) {
			t.Fatalf("lookup over binary peers: degraded=%v, vectors identical=%v", res.Degraded, reflect.DeepEqual(res.Vectors, want))
		}
	}
}

// TestClusterClosePeers: in Peers mode the ClusterServer owns its
// binary-wire clients, so Close tears down their connections — and
// with them the peer's per-conn goroutines — not only the router.
func TestClusterClosePeers(t *testing.T) {
	spec := clusterSpec()
	cfg := Config{Spec: spec, ProfileSamples: 500, Batch: 16}
	srv, err := NewServer(ReCross, cfg, 1, ServeOptions{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	peer := listenBin(t, srv)
	gen, err := NewGenerator(spec, 3)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	cs, err := NewClusterServer(ReCross, cfg, ClusterConfig{Peers: []string{peer}, HedgeDelay: -1, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Lookup(context.Background(), gen.Sample()); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutine(s) outlive ClusterServer.Close in Peers mode", after-before)
	}
}
