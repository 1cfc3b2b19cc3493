package cluster

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"recross/internal/chaos"
	"recross/internal/trace"
)

func faultSample() trace.Sample {
	return trace.Sample{{Table: 0, Kind: trace.Sum, Indices: []int64{1, 2}, Weights: []float32{1, 1}}}
}

// TestFaultyNodeScriptedKill: a scheduled NodeKill fires on the exact
// call, sticks until Revive, and is counted on the shared injector.
func TestFaultyNodeScriptedKill(t *testing.T) {
	inner := newFakeNode("n0", clusterLayer(t))
	cfg := chaos.NodeConfig{Schedule: []chaos.NodeRule{{Node: 0, Call: 2, Kind: chaos.NodeKill}}}
	fn := WrapFaultyNode(inner, cfg, 0, nil)
	ctx := context.Background()

	if _, err := fn.Lookup(ctx, faultSample()); err != nil {
		t.Fatalf("call 1: %v", err)
	}
	if _, err := fn.Lookup(ctx, faultSample()); !errors.Is(err, chaos.ErrNodeKilled) {
		t.Fatalf("call 2: %v, want ErrNodeKilled", err)
	}
	if _, err := fn.Lookup(ctx, faultSample()); !errors.Is(err, chaos.ErrNodeKilled) {
		t.Fatal("kill not sticky")
	}
	if _, err := fn.Health(ctx); !errors.Is(err, chaos.ErrNodeKilled) {
		t.Error("health not gated by the kill")
	}
	fn.Revive()
	if _, err := fn.Lookup(ctx, faultSample()); err != nil {
		t.Fatalf("after revive: %v", err)
	}
	if fn.Calls() != 4 {
		t.Errorf("calls %d, want 4", fn.Calls())
	}
}

// TestFaultyNodeDowntime: with Downtime set, a kill heals itself once
// the window elapses — no Revive needed — so probabilistic-kill soaks
// exercise the prober's re-admission path instead of decaying.
func TestFaultyNodeDowntime(t *testing.T) {
	inner := newFakeNode("n0", clusterLayer(t))
	cfg := chaos.NodeConfig{
		Downtime: 30 * time.Millisecond,
		Schedule: []chaos.NodeRule{{Node: 0, Call: 1, Kind: chaos.NodeKill}},
	}
	fn := WrapFaultyNode(inner, cfg, 0, nil)
	ctx := context.Background()
	if _, err := fn.Lookup(ctx, faultSample()); !errors.Is(err, chaos.ErrNodeKilled) {
		t.Fatalf("scripted kill: %v", err)
	}
	if _, err := fn.Health(ctx); !errors.Is(err, chaos.ErrNodeKilled) {
		t.Fatal("health up inside the downtime window")
	}
	time.Sleep(40 * time.Millisecond)
	if _, err := fn.Health(ctx); err != nil {
		t.Fatalf("health after downtime: %v", err)
	}
	if _, err := fn.Lookup(ctx, faultSample()); err != nil {
		t.Fatalf("lookup after downtime: %v", err)
	}
}

// TestFaultyNodePartition: a partitioned node swallows calls until the
// caller's deadline; healing restores service.
func TestFaultyNodePartition(t *testing.T) {
	inner := newFakeNode("n0", clusterLayer(t))
	fn := WrapFaultyNode(inner, chaos.NodeConfig{}, 0, nil)
	fn.Partition(true)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := fn.Lookup(ctx, faultSample())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("partitioned lookup: %v, want deadline exceeded", err)
	}
	if took := time.Since(t0); took < 15*time.Millisecond {
		t.Errorf("partitioned call returned after %v, should block to the deadline", took)
	}
	fn.Partition(false)
	if _, err := fn.Lookup(context.Background(), faultSample()); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

// TestFaultyNodeScriptedSlow: a scheduled NodeSlow stalls the call for
// the configured duration, then serves normally.
func TestFaultyNodeScriptedSlow(t *testing.T) {
	inner := newFakeNode("n0", clusterLayer(t))
	cfg := chaos.NodeConfig{
		Stall:    30 * time.Millisecond,
		Schedule: []chaos.NodeRule{{Node: 0, Call: 1, Kind: chaos.NodeSlow}},
	}
	fn := WrapFaultyNode(inner, cfg, 0, nil)
	t0 := time.Now()
	if _, err := fn.Lookup(context.Background(), faultSample()); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took < 25*time.Millisecond {
		t.Errorf("slow call took %v, want >= ~30ms", took)
	}
	t1 := time.Now()
	if _, err := fn.Lookup(context.Background(), faultSample()); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t1); took > 20*time.Millisecond {
		t.Errorf("unscripted call took %v, stall leaked", took)
	}
}

// TestFaultyNodeDeterminism: with the same seed, the call on which a
// probabilistic kill first fires is identical run to run.
func TestFaultyNodeDeterminism(t *testing.T) {
	firstKill := func() int {
		inner := newFakeNode("n0", clusterLayer(t))
		fn := WrapFaultyNode(inner, chaos.NodeConfig{Rates: chaos.NodeRates{Kill: 0.15}, Seed: 9}, 0, nil)
		for c := 1; c <= 200; c++ {
			if _, err := fn.Lookup(context.Background(), faultSample()); err != nil {
				return c
			}
		}
		return -1
	}
	a, b := firstKill(), firstKill()
	if a != b {
		t.Fatalf("same seed killed on call %d then %d", a, b)
	}
	if a < 0 {
		t.Fatal("kill rate 0.15 never fired in 200 calls")
	}
}

// TestFaultyNodeRates: the injector switch gates probabilistic faults
// without perturbing the RNG, and counters attribute by kind.
func TestFaultyNodeRates(t *testing.T) {
	layer := clusterLayer(t)
	nodes := []Node{newFakeNode("n0", layer), newFakeNode("n1", layer)}
	cfg := chaos.NodeConfig{Rates: chaos.NodeRates{Slow: 0.5}, Stall: time.Microsecond}
	inj := chaos.NewInjector()
	wrapped := []Node{WrapFaultyNode(nodes[0], cfg, 0, inj), WrapFaultyNode(nodes[1], cfg, 1, inj)}
	if len(wrapped) != 2 {
		t.Fatal("wrap count")
	}
	inj.SetEnabled(false)
	for i := 0; i < 50; i++ {
		if _, err := wrapped[0].Lookup(context.Background(), faultSample()); err != nil {
			t.Fatal(err)
		}
	}
	if got := inj.Count(chaos.NodeSlow); got != 0 {
		t.Fatalf("disabled injector recorded %d slows", got)
	}
	inj.SetEnabled(true)
	for i := 0; i < 50; i++ {
		if _, err := wrapped[0].Lookup(context.Background(), faultSample()); err != nil {
			t.Fatal(err)
		}
	}
	got := inj.Count(chaos.NodeSlow)
	if got < 10 || got > 40 {
		t.Errorf("slow rate 0.5 fired %d/50 times", got)
	}
	if inj.Count(chaos.NodeKill) != 0 || inj.Count(chaos.NodePartition) != 0 {
		t.Error("unconfigured kinds counted")
	}
}

// TestFaultyNodeUnderRouter: the router rides out a killed node — the
// chaos wrapper and the health/fallback machinery compose.
func TestFaultyNodeUnderRouter(t *testing.T) {
	layer := clusterLayer(t)
	owners := make([][]int, 8)
	for i := range owners {
		owners[i] = []int{0, 1}
	}
	inner := []Node{newFakeNode("node0", layer), newFakeNode("node1", layer)}
	cfg := chaos.NodeConfig{Schedule: []chaos.NodeRule{{Node: 0, Call: 1, Kind: chaos.NodeKill}}}
	inj := chaos.NewInjector()
	wrapped := []Node{WrapFaultyNode(inner[0], cfg, 0, inj), WrapFaultyNode(inner[1], cfg, 1, inj)}
	r, err := NewRouter(Options{
		Nodes:         wrapped,
		Placement:     manualPlacement([]string{"node0", "node1"}, owners),
		Layer:         layer,
		ProbeInterval: -1,
		HedgeDelay:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 0; i < 5; i++ {
		sample := wideSample()
		res, err := r.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if res.Degraded {
			t.Fatalf("lookup %d degraded despite a full replica", i)
		}
		checkIdentical(t, layer, sample, res.Vectors)
	}
	if inj.Count(chaos.NodeKill) != 1 {
		t.Errorf("injected kills %d, want 1", inj.Count(chaos.NodeKill))
	}
}

// TestWrappedNodesKeepWireMetrics: node chaos exists to exercise the
// binary wire, so wrapping the peers in FaultyNodes must not hide their
// recross_cluster_wire_*{role="client"} series from the router's
// /metrics — the router looks through the wrapper for them.
func TestWrappedNodesKeepWireMetrics(t *testing.T) {
	layer := clusterLayer(t)
	ids := []string{"n0", "n1"}
	pl, err := RingPlacement(layer.Tables(), ids, PlacementOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wireLines := func(wrap bool) int {
		nodes := make([]Node, len(ids))
		for i, id := range ids {
			// Never dialed: the series register at construction.
			nodes[i] = NewBinNode(id, "127.0.0.1:1", BinNodeOptions{})
			if wrap {
				nodes[i] = WrapFaultyNode(nodes[i], chaos.NodeConfig{}, i, nil)
			}
		}
		r, err := NewRouter(Options{Nodes: nodes, Placement: pl, Layer: layer, ProbeInterval: -1, HedgeDelay: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var buf bytes.Buffer
		if _, err := r.MetricSet().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "recross_cluster_wire_") && strings.Contains(line, `role="client"`) {
				n++
			}
		}
		return n
	}
	bare, wrapped := wireLines(false), wireLines(true)
	if bare == 0 || wrapped != bare {
		t.Errorf("router exposes %d client wire series over wrapped nodes, %d over bare ones", wrapped, bare)
	}
}
