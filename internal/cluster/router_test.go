package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recross/internal/embedding"
	"recross/internal/serve"
	"recross/internal/trace"
)

// fakeNode is a controllable in-memory transport driver: it answers
// from a functional layer (so bit-identity is checkable), can be taken
// down (fail fast with ErrNodeDown) and slowed (stall before
// answering), honoring ctx while stalled.
type fakeNode struct {
	id    string
	layer *embedding.Layer

	delayNs atomic.Int64
	down    atomic.Bool

	lookups atomic.Int64
}

func newFakeNode(id string, layer *embedding.Layer) *fakeNode {
	return &fakeNode{id: id, layer: layer}
}

func (n *fakeNode) ID() string { return n.id }

func (n *fakeNode) Lookup(ctx context.Context, sample trace.Sample) (*serve.Result, error) {
	if n.down.Load() {
		return nil, ErrNodeDown
	}
	if d := time.Duration(n.delayNs.Load()); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	vecs, err := n.layer.ReduceSample(sample)
	if err != nil {
		return nil, err
	}
	n.lookups.Add(1)
	return &serve.Result{Vectors: vecs, BatchSize: 1, ServiceCycles: 100}, nil
}

func (n *fakeNode) Health(ctx context.Context) (serve.HealthReport, error) {
	if n.down.Load() {
		return serve.HealthReport{}, ErrNodeDown
	}
	return serve.HealthReport{Status: "ok"}, nil
}

func (n *fakeNode) Close() error { return nil }

func clusterSpec() trace.ModelSpec { return trace.Uniform(8, 2000, 8, 2) }

func clusterLayer(t *testing.T) *embedding.Layer {
	t.Helper()
	l, err := embedding.NewLayer(clusterSpec())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// manualPlacement hand-routes tables for tests that need to know
// exactly which node owns what.
func manualPlacement(nodes []string, owners [][]int) *Placement {
	p := &Placement{Nodes: nodes, Replicas: owners}
	p.finalize()
	return p
}

// newTestCluster builds n fakeNodes over one shared layer plus a router
// on the given placement. mod may tweak the options before NewRouter.
func newTestCluster(t *testing.T, n int, pl *Placement, mod func(*Options)) (*Router, []*fakeNode) {
	t.Helper()
	layer := clusterLayer(t)
	fakes := make([]*fakeNode, n)
	nodes := make([]Node, n)
	for i := range fakes {
		fakes[i] = newFakeNode(fmt.Sprintf("node%d", i), layer)
		nodes[i] = fakes[i]
	}
	opts := Options{
		Nodes:         nodes,
		Placement:     pl,
		Layer:         layer,
		ProbeInterval: -1, // no background prober unless a test wants it
		HedgeDelay:    -1, // no hedging unless a test wants it
	}
	if mod != nil {
		mod(&opts)
	}
	r, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, fakes
}

func clusterSamples(t *testing.T, n int) []trace.Sample {
	t.Helper()
	g, err := trace.NewGenerator(clusterSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]trace.Sample, n)
	for i := range out {
		out[i] = g.Sample()
	}
	return out
}

// wideSample touches every table once — it must scatter.
func wideSample() trace.Sample {
	s := make(trace.Sample, 8)
	for i := range s {
		s[i] = trace.Op{Table: i, Kind: trace.Sum, Indices: []int64{1, 2, 3}, Weights: []float32{1, 1, 1}}
	}
	return s
}

func checkIdentical(t *testing.T, layer *embedding.Layer, sample trace.Sample, got [][]float32) {
	t.Helper()
	want, err := layer.ReduceSample(sample)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cluster vectors differ from functional layer")
	}
}

func TestRouterValidation(t *testing.T) {
	layer := clusterLayer(t)
	node := newFakeNode("n0", layer)
	pl := manualPlacement([]string{"n0"}, [][]int{{0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}})
	if _, err := NewRouter(Options{Placement: pl, Layer: layer}); err == nil {
		t.Error("no nodes accepted")
	}
	if _, err := NewRouter(Options{Nodes: []Node{node}, Placement: pl}); err == nil {
		t.Error("no layer accepted")
	}
	if _, err := NewRouter(Options{Nodes: []Node{node}, Layer: layer}); err == nil {
		t.Error("no placement accepted")
	}
	short := manualPlacement([]string{"n0"}, [][]int{{0}})
	if _, err := NewRouter(Options{Nodes: []Node{node}, Placement: short, Layer: layer}); err == nil {
		t.Error("table-count mismatch accepted")
	}
	bad := manualPlacement([]string{"n0"}, [][]int{{3}, {0}, {0}, {0}, {0}, {0}, {0}, {0}})
	if _, err := NewRouter(Options{Nodes: []Node{node}, Placement: bad, Layer: layer}); err == nil {
		t.Error("out-of-range owner accepted")
	}
}

func TestRouterLookupErrors(t *testing.T) {
	pl, err := RingPlacement(8, []string{"node0", "node1"}, PlacementOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := newTestCluster(t, 2, pl, nil)
	ctx := context.Background()
	// Every case is caller input: the router rejects it before the
	// scatter, so no node sees it and none is counted as failing.
	for name, sample := range map[string]trace.Sample{
		"empty sample":  nil,
		"table":         {{Table: 99, Kind: trace.Sum, Indices: []int64{1}, Weights: []float32{1}}},
		"row":           {{Table: 0, Kind: trace.Sum, Indices: []int64{1, 1 << 40}, Weights: []float32{1, 1}}},
		"no indices":    {{Table: 0, Kind: trace.Sum}},
		"short weights": {{Table: 0, Kind: trace.WeightedSum, Indices: []int64{1, 2, 3}, Weights: []float32{1}}},
	} {
		for range 2 {
			if _, err := r.Lookup(ctx, sample); err == nil {
				t.Errorf("%s: malformed sample accepted", name)
			}
		}
	}
	if st := r.Stats(); st.Subrequests != 0 || st.SubFailures != 0 || st.Retries != 0 || st.Failed != 0 {
		t.Errorf("rejected lookups reached the nodes: %+v", st)
	}
	for i := range 2 {
		if s := r.NodeState(i); s != NodeHealthy {
			t.Errorf("node %d is %v after malformed lookups, want healthy", i, s)
		}
	}
	r.Close()
	if _, err := r.Lookup(ctx, wideSample()); err != ErrRouterClosed {
		t.Errorf("closed router returned %v, want ErrRouterClosed", err)
	}
}

// TestRouterBitIdentity: scatter-gathered vectors are bit-identical to
// a single functional layer's, in request order, across many samples.
func TestRouterBitIdentity(t *testing.T) {
	pl, err := RingPlacement(8, []string{"node0", "node1", "node2", "node3"}, PlacementOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, fakes := newTestCluster(t, 4, pl, nil)
	layer := fakes[0].layer
	for _, sample := range clusterSamples(t, 50) {
		res, err := r.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded {
			t.Fatal("healthy cluster answered degraded")
		}
		checkIdentical(t, layer, sample, res.Vectors)
	}

	// A sample touching every table scatters across nodes.
	res, err := r.Lookup(context.Background(), wideSample())
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes < 2 {
		t.Errorf("wide sample used %d nodes, want >=2", res.Nodes)
	}
	checkIdentical(t, layer, wideSample(), res.Vectors)
}

// TestRouterFallbackDegraded: losing the sole owner of a table degrades
// those ops to the router's functional fallback — same bits, no error —
// while replicated tables fail over to the surviving owner.
func TestRouterFallbackDegraded(t *testing.T) {
	// Table 0 only on node0; the rest replicated on both.
	owners := [][]int{{0}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}}
	pl := manualPlacement([]string{"node0", "node1"}, owners)
	r, fakes := newTestCluster(t, 2, pl, nil)
	fakes[0].down.Store(true)

	sample := wideSample()
	res, err := r.Lookup(context.Background(), sample)
	if err != nil {
		t.Fatalf("node loss surfaced as an error: %v", err)
	}
	if !res.Degraded || res.DegradedOps != 1 {
		t.Errorf("Degraded=%v DegradedOps=%d, want true/1 (only table 0 is orphaned)", res.Degraded, res.DegradedOps)
	}
	checkIdentical(t, fakes[0].layer, sample, res.Vectors)
	if fakes[1].lookups.Load() == 0 {
		t.Error("surviving replica served nothing")
	}
	s := r.Stats()
	if s.Degraded != 1 || s.FallbackOps != 1 {
		t.Errorf("stats Degraded=%d FallbackOps=%d, want 1/1", s.Degraded, s.FallbackOps)
	}
}

// TestRouterDeadExclusion: once failures cross the threshold the node
// is excluded from planning — later lookups go straight to fallback or
// replicas without burning sub-requests on it.
func TestRouterDeadExclusion(t *testing.T) {
	owners := [][]int{{0}, {1}, {1}, {1}, {1}, {1}, {1}, {1}}
	pl := manualPlacement([]string{"node0", "node1"}, owners)
	r, fakes := newTestCluster(t, 2, pl, func(o *Options) { o.FailThreshold = 1 })
	fakes[0].down.Store(true)

	if _, err := r.Lookup(context.Background(), wideSample()); err != nil {
		t.Fatal(err)
	}
	if got := r.NodeState(0); got != NodeDead {
		t.Fatalf("after threshold failures node0 is %v, want dead", got)
	}
	subFails := r.Stats().SubFailures
	res, err := r.Lookup(context.Background(), wideSample())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("orphaned table not degraded")
	}
	if got := r.Stats().SubFailures; got != subFails {
		t.Errorf("dead node still dispatched to: sub-failures %d -> %d", subFails, got)
	}
	if r.Health().Status != "degraded" {
		t.Errorf("health %q, want degraded", r.Health().Status)
	}
}

// TestRouterCanceledFallbackCountsFailed: with every node dead, a lookup
// whose ctx has already ended returns ctx.Err() instead of falling back,
// and counts as Failed.
func TestRouterCanceledFallbackCountsFailed(t *testing.T) {
	owners := [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}}
	pl := manualPlacement([]string{"node0", "node1"}, owners)
	r, _ := newTestCluster(t, 2, pl, nil)
	for _, ns := range r.nodes {
		ns.state.Store(int32(NodeDead))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Lookup(ctx, wideSample()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := r.Stats(); s.Failed != 1 || s.Degraded != 0 {
		t.Errorf("stats Failed=%d Degraded=%d, want 1/0", s.Failed, s.Degraded)
	}
}

// shortNode answers every lookup one vector short.
type shortNode struct{ *fakeNode }

func (n shortNode) Lookup(ctx context.Context, sample trace.Sample) (*serve.Result, error) {
	res, err := n.fakeNode.Lookup(ctx, sample)
	if err == nil {
		res.Vectors = res.Vectors[:len(res.Vectors)-1]
	}
	return res, err
}

// TestRouterShortReplyMarksNodeDead: a reply with the wrong vector count
// is a failure and only a failure — it neither resets the failure streak
// nor counts as a served lookup — so a node that always answers short is
// declared dead after FailThreshold lookups, and every answer is still
// bit-identical through the fallback.
func TestRouterShortReplyMarksNodeDead(t *testing.T) {
	owners := [][]int{{0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}}
	layer := clusterLayer(t)
	r, err := NewRouter(Options{
		Nodes:         []Node{shortNode{newFakeNode("node0", layer)}},
		Placement:     manualPlacement([]string{"node0"}, owners),
		Layer:         layer,
		ProbeInterval: -1,
		HedgeDelay:    -1,
		FailThreshold: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 10; i++ {
		res, err := r.Lookup(context.Background(), wideSample())
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, layer, wideSample(), res.Vectors)
	}
	h := r.Health().NodeHealth[0]
	if r.NodeState(0) != NodeDead || h.Lookups != 0 || h.Failures != 3 {
		t.Fatalf("node0 %s after 10 short replies: lookups %d, failures %d; want dead, 0, 3",
			r.NodeState(0), h.Lookups, h.Failures)
	}
}

// TestRouterRetryFailover: a failed primary sub-request is retried on a
// replica within the same lookup — no degradation, same bits.
func TestRouterRetryFailover(t *testing.T) {
	owners := [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}}
	pl := manualPlacement([]string{"node0", "node1"}, owners)
	r, fakes := newTestCluster(t, 2, pl, nil)
	fakes[0].down.Store(true)

	sample := wideSample()
	res, err := r.Lookup(context.Background(), sample)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("failover degraded despite a live replica")
	}
	if res.Retries == 0 {
		t.Error("no retries recorded for a failed primary")
	}
	checkIdentical(t, fakes[0].layer, sample, res.Vectors)
	if r.Stats().Retries == 0 {
		t.Error("router retry counter still zero")
	}
}

// TestRouterHedge: a slow primary is hedged on a replica after the
// fixed delay; the fast hedge wins and the caller never waits out the
// stall.
func TestRouterHedge(t *testing.T) {
	owners := [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}}
	pl := manualPlacement([]string{"node0", "node1"}, owners)
	r, fakes := newTestCluster(t, 2, pl, func(o *Options) { o.HedgeDelay = time.Millisecond })
	fakes[0].delayNs.Store(int64(300 * time.Millisecond))

	sample := trace.Sample{{Table: 0, Kind: trace.Sum, Indices: []int64{4, 5}, Weights: []float32{1, 1}}}
	// The first dispatch tie-breaks to node0 (the slow one); hedge onto
	// node1 must answer long before the stall expires.
	t0 := time.Now()
	res, err := r.Lookup(context.Background(), sample)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 150*time.Millisecond {
		t.Errorf("hedged lookup took %v, should beat the 300ms stall", took)
	}
	if !res.Hedged {
		t.Error("result not marked hedged")
	}
	s := r.Stats()
	if s.HedgesFired == 0 || s.HedgesWon == 0 {
		t.Errorf("hedge counters fired=%d won=%d, want both > 0", s.HedgesFired, s.HedgesWon)
	}
	checkIdentical(t, fakes[0].layer, sample, res.Vectors)
}

// TestRouterHedgeDisabled: HedgeDelay < 0 never hedges, however slow
// the primary.
func TestRouterHedgeDisabled(t *testing.T) {
	owners := [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}}
	pl := manualPlacement([]string{"node0", "node1"}, owners)
	r, fakes := newTestCluster(t, 2, pl, nil) // HedgeDelay -1 by default here
	fakes[0].delayNs.Store(int64(5 * time.Millisecond))

	res, err := r.Lookup(context.Background(), trace.Sample{{Table: 0, Kind: trace.Sum, Indices: []int64{1}, Weights: []float32{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hedged || r.Stats().HedgesFired != 0 {
		t.Error("hedge fired despite HedgeDelay=-1")
	}
}

// TestRouterHedgeRace hammers the hedge path concurrently under -race:
// slow primaries, aggressive hedging, canceled losers — every answer
// must still be bit-identical and error-free.
func TestRouterHedgeRace(t *testing.T) {
	owners := make([][]int, 8)
	for i := range owners {
		owners[i] = []int{0, 1}
	}
	pl := manualPlacement([]string{"node0", "node1"}, owners)
	r, fakes := newTestCluster(t, 2, pl, func(o *Options) { o.HedgeDelay = 200 * time.Microsecond })
	fakes[0].delayNs.Store(int64(2 * time.Millisecond))

	samples := clusterSamples(t, 16)
	want := make([][][]float32, len(samples))
	for i, s := range samples {
		w, err := fakes[0].layer.ReduceSample(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}

	var wg sync.WaitGroup
	var mismatches, errs atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 30; it++ {
				i := it % len(samples)
				res, err := r.Lookup(context.Background(), samples[i])
				if err != nil {
					errs.Add(1)
					continue
				}
				if !reflect.DeepEqual(res.Vectors, want[i]) {
					mismatches.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if errs.Load() > 0 || mismatches.Load() > 0 {
		t.Fatalf("%d errors, %d mismatched answers under hedge pressure", errs.Load(), mismatches.Load())
	}
	if r.Stats().HedgesFired == 0 {
		t.Error("hammer never hedged; the race path went untested")
	}
}

// TestRouterProbeReadmission: a dead node whose health probe succeeds
// again is re-admitted and serves traffic.
func TestRouterProbeReadmission(t *testing.T) {
	owners := [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}}
	pl := manualPlacement([]string{"node0", "node1"}, owners)
	r, fakes := newTestCluster(t, 2, pl, func(o *Options) {
		o.FailThreshold = 1
		o.ProbeInterval = 5 * time.Millisecond
	})
	fakes[0].down.Store(true)
	if _, err := r.Lookup(context.Background(), wideSample()); err != nil {
		t.Fatal(err)
	}
	if r.NodeState(0) != NodeDead {
		t.Fatal("node0 not dead after threshold failure")
	}

	fakes[0].down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for r.NodeState(0) == NodeDead {
		if time.Now().After(deadline) {
			t.Fatal("node0 never re-admitted by the prober")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s := r.Stats()
	if s.Probes == 0 || s.Revivals == 0 {
		t.Errorf("probes=%d revivals=%d, want both > 0", s.Probes, s.Revivals)
	}
	before := fakes[0].lookups.Load()
	for i := 0; i < 8; i++ {
		if _, err := r.Lookup(context.Background(), wideSample()); err != nil {
			t.Fatal(err)
		}
	}
	if fakes[0].lookups.Load() == before {
		t.Error("re-admitted node served nothing")
	}
}

// TestRouterSpreadsReplicas: a burst of ops on one hot table spreads
// across its replicas even from a single caller (the per-plan pending
// counts at work).
func TestRouterSpreadsReplicas(t *testing.T) {
	owners := make([][]int, 8)
	for i := range owners {
		owners[i] = []int{0, 1}
	}
	r, fakes := newTestCluster(t, 2, manualPlacement([]string{"node0", "node1"}, owners), nil)
	sample := make(trace.Sample, 10)
	for i := range sample {
		sample[i] = trace.Op{Table: 0, Kind: trace.Sum, Indices: []int64{int64(i + 1)}, Weights: []float32{1}}
	}
	res, err := r.Lookup(context.Background(), sample)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 2 {
		t.Errorf("hot-table burst used %d nodes, want 2", res.Nodes)
	}
	if fakes[0].lookups.Load() == 0 || fakes[1].lookups.Load() == 0 {
		t.Errorf("burst not spread: node0=%d node1=%d", fakes[0].lookups.Load(), fakes[1].lookups.Load())
	}
	checkIdentical(t, fakes[0].layer, sample, res.Vectors)
}

// BenchmarkClusterLookup measures one scatter-gathered lookup across a
// 4-node fleet of in-process fakes on a dealt placement — the router's
// own planning/dispatch/reassembly overhead, since the fakes answer
// straight from the functional layer. CI runs it at -benchtime=1x as a
// smoke so the harness cannot rot.
func BenchmarkClusterLookup(b *testing.B) {
	layer, err := embedding.NewLayer(clusterSpec())
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]Node, 4)
	ids := make([]string, 4)
	for i := range nodes {
		ids[i] = fmt.Sprintf("node%d", i)
		nodes[i] = newFakeNode(ids[i], layer)
	}
	pl, err := RingPlacement(8, ids, PlacementOptions{
		Hot: HotTopK([]float64{8, 7, 6, 5, 4, 3, 2, 1}, 2),
	})
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRouter(Options{Nodes: nodes, Placement: pl, Layer: layer, ProbeInterval: -1, HedgeDelay: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	g, err := trace.NewGenerator(clusterSpec(), 42)
	if err != nil {
		b.Fatal(err)
	}
	samples := make([]trace.Sample, 64)
	for i := range samples {
		samples[i] = g.Sample()
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Lookup(ctx, samples[i%len(samples)]); err != nil {
			b.Fatal(err)
		}
	}
}
