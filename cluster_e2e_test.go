package recross

import (
	"context"
	"net"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
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
	addr, closeLis, err := serveLoopback(srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeLis() })
	return addr
}

// TestClusterE2E is the full cluster story through the public facade: 4
// in-binary nodes behind the binary wire serve bit-identical
// scatter-gathered answers under concurrent load; a mid-run node kill
// degrades only the tables uniquely placed on that node (never an
// error, never a wrong bit); and a revived node is re-admitted by the
// prober, after which the victim's tables serve normally again.
func TestClusterE2E(t *testing.T) {
	spec := clusterSpec()
	cfg := Config{Spec: spec, ProfileSamples: 500, Batch: 16}
	faulty := make([]*FaultyNode, 4)
	cs, err := NewClusterServer(ReCross, cfg, ClusterConfig{
		Nodes:         4,
		ProbeInterval: 20 * time.Millisecond,
		Serve:         ServeOptions{MaxBatch: 8},
		WrapNode: func(i int, n ClusterNode) ClusterNode {
			faulty[i] = WrapFaultyNode(n, NodeFaultConfig{}, i, nil) // no rates: Kill/Revive only
			return faulty[i]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if len(cs.Stacks) != 4 {
		t.Fatalf("%d in-binary stacks, want 4", len(cs.Stacks))
	}

	layer, err := NewLayer(spec)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(spec, 7)
	if err != nil {
		t.Fatal(err)
	}

	// Placement hashes node IDs, so the IDs are part of its contract.
	pl := cs.Router.Placement()
	if want := []string{"node0", "node1", "node2", "node3"}; !reflect.DeepEqual(pl.Nodes, want) {
		t.Fatalf("node IDs %v, want %v", pl.Nodes, want)
	}
	// Pick a victim that owns at least one table exclusively; with 6
	// tables on 4 nodes one must exist.
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
	faulty[victim].Kill()
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

	// Phase 3: revive; the prober re-admits the node, after which
	// unique tables serve undegraded again.
	faulty[victim].Revive()
	deadline := time.Now().Add(5 * time.Second)
	for cs.Router.Health().Available != 4 {
		if time.Now().After(deadline) {
			t.Fatal("revived node never re-admitted")
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
			t.Fatal("post-revival answer not bit-identical")
		}
	}

	st := cs.Router.Stats()
	if st.Degraded == 0 || st.Revivals == 0 {
		t.Errorf("stats degraded=%d revivals=%d, want both > 0", st.Degraded, st.Revivals)
	}
}

// TestClusterLoadgenSmoke: the cluster load generator completes against
// a small in-binary cluster and reports sane numbers.
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

// TestPeersAreBinary: "bin://host:port" and a bare "host:port" peer
// both reach a node's BinServer and serve bit-identically (any other
// scheme is a TestClusterConfigValidation case).
func TestPeersAreBinary(t *testing.T) {
	spec := clusterSpec()
	cfg := Config{Spec: spec, ProfileSamples: 500, Batch: 16}
	var peers []string
	for _, scheme := range []string{"bin://", ""} {
		srv, err := NewServer(ReCross, cfg, 1, ServeOptions{MaxBatch: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		peers = append(peers, scheme+listenBin(t, srv))
	}
	cs, err := NewClusterServer(ReCross, cfg, ClusterConfig{Peers: peers})
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
	cs, err := NewClusterServer(ReCross, cfg, ClusterConfig{Peers: []string{peer}, ProbeInterval: -1})
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

// TestClusterConfigValidation: a bad ClusterConfig value fails before
// any node is built (WrapNode never runs), with an error naming the
// field — or, for a peer given in another scheme, the -bin-addr
// listener to give instead.
func TestClusterConfigValidation(t *testing.T) {
	cfg := Config{Spec: clusterSpec(), ProfileSamples: 500, Batch: 16}
	for _, c := range []struct {
		cc   ClusterConfig
		want string
	}{
		{ClusterConfig{Nodes: -1}, "Nodes"},
		{ClusterConfig{Nodes: 1, WireConns: -1}, "WireConns"},
		{ClusterConfig{Nodes: 1, WirePrecision: "fp8"}, "WirePrecision"},
		{ClusterConfig{Peers: []string{"127.0.0.1:1"}, WirePrecision: "fp8"}, "WirePrecision"},
		{ClusterConfig{Peers: []string{"http://h:1"}}, "-bin-addr"},
	} {
		built := false
		c.cc.WrapNode = func(_ int, n ClusterNode) ClusterNode { built = true; return n }
		cs, err := NewClusterServer(ReCross, cfg, c.cc)
		if err == nil {
			cs.Close()
			t.Errorf("want: %s rejected; got a cluster", c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || built {
			t.Errorf("want: %s rejected before any node is built; got %q (nodes built: %v)", c.want, err, built)
		}
	}
}

// TestClusterConnChaos: in-binary nodes are reached over the same wire
// as peers, so WrapDial sees every node's dials, and a conn-level chaos
// campaign installed there tears real connections — the router's
// client-side conn-failure counter moves — while every answer stays
// bit-identical.
func TestClusterConnChaos(t *testing.T) {
	spec := clusterSpec()
	cfg := Config{Spec: spec, ProfileSamples: 500, Batch: 16}
	inj := NewFaultInjector()
	fc := NodeFaultConfig{Seed: 3, Conn: ConnFaultRates{Torn: 0.1, Reset: 0.1}}
	var dials [2]atomic.Int64
	cs, err := NewClusterServer(ReCross, cfg, ClusterConfig{
		Nodes: 2, ProbeInterval: 20 * time.Millisecond,
		Serve: ServeOptions{MaxBatch: 8},
		WrapDial: func(i int, d BinDial) BinDial {
			faulty := WrapFaultyBinDial(d, fc, i, inj)
			return func(ctx context.Context, addr string) (net.Conn, error) {
				dials[i].Add(1)
				return faulty(ctx, addr)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	layer, err := NewLayer(spec)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i, sample := range gen.Batch(100) {
		res, err := cs.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatalf("lookup %d under conn chaos: %v", i, err)
		}
		want, err := layer.ReduceSample(sample)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Vectors, want) {
			t.Fatalf("lookup %d: answer not bit-identical under conn chaos", i)
		}
	}
	for i := range dials {
		if dials[i].Load() == 0 {
			t.Errorf("node%d: WrapDial saw no dial", i)
		}
	}
	var exp strings.Builder
	if _, err := cs.Router.MetricSet().WriteTo(&exp); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^recross_cluster_wire_conn_failures_total\{[^}]*role="client"[^}]*\} (\d+)$`)
	var failures int
	for _, m := range re.FindAllStringSubmatch(exp.String(), -1) {
		n, _ := strconv.Atoi(m[1])
		failures += n
	}
	if failures == 0 {
		t.Errorf("conn chaos on in-binary nodes moved no recross_cluster_wire_conn_failures_total:\n%s", exp.String())
	}
}
