package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"recross/internal/arch"
	"recross/internal/serve"
	"recross/internal/sim"
	"recross/internal/trace"
)

// fakeArch is a minimal timing model so tests can stand up real
// serve.Servers as HTTP peers.
type fakeArch struct{}

func (fakeArch) Name() string { return "fake" }

func (fakeArch) Run(b trace.Batch) (*arch.RunStats, error) {
	lookups, _ := arch.CountBatch(b)
	return &arch.RunStats{Cycles: sim.Cycle(100 + len(b)), Lookups: lookups, Imbalance: 1}, nil
}

// postLookup is a plain HTTP client of a /v1/lookup front-end: it POSTs
// the sample in wire form and decodes the answer.
func postLookup(t *testing.T, base string, sample trace.Sample) serve.LookupResponse {
	t.Helper()
	body, err := json.Marshal(serve.WireRequest(sample))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/lookup", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup status %d", resp.StatusCode)
	}
	var lr serve.LookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return lr
}

// TestRouterHandler: the router's own HTTP front is wire-compatible
// with a single node's — same request, a LookupResponse with
// Replica=-1 — so routers can front routers.
func TestRouterHandler(t *testing.T) {
	layer := clusterLayer(t)
	node := newFakeNode("node0", layer)
	pl := manualPlacement([]string{"node0"}, [][]int{{0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}})
	r, err := NewRouter(Options{Nodes: []Node{node}, Placement: pl, Layer: layer, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	sample := wideSample()
	lr := postLookup(t, ts.URL, sample)
	if lr.Replica != -1 {
		t.Errorf("router response Replica = %d, want -1", lr.Replica)
	}
	want, err := layer.ReduceSample(sample)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lr.Vectors, want) {
		t.Error("wire vectors differ from functional layer")
	}

	// Malformed body is a 400, not a 500.
	resp2, err := http.Post(ts.URL+"/v1/lookup", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed lookup status %d, want 400", resp2.StatusCode)
	}

	// Metrics carry the cluster series.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	_, _ = mb.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{
		"recross_cluster_requests_total",
		"recross_cluster_subrequests_total",
		"recross_cluster_nodes_available",
		"recross_cluster_node_state{node=\"node0\"}",
		"recross_cluster_latency_seconds",
	} {
		if !strings.Contains(mb.String(), series) {
			t.Errorf("metrics missing %s", series)
		}
	}

	// Healthz: ok while serving, 503 draining once closed.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	_ = json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || h.Status != "ok" || h.Available != 1 {
		t.Errorf("healthz = %d %+v", hresp.StatusCode, h)
	}
	r.Close()
	hresp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(hresp2.Body).Decode(&h)
	hresp2.Body.Close()
	if hresp2.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("closed healthz = %d %q, want 503 draining", hresp2.StatusCode, h.Status)
	}
}

// TestRouterFederation: because a BinServer fronts a router exactly as
// it fronts a node (RouterBackend), a router can itself be a node of an
// upstream router — two tiers of scatter-gather, still bit-identical.
func TestRouterFederation(t *testing.T) {
	layer := clusterLayer(t)
	leaf := newFakeNode("leaf", layer)
	leafPl := manualPlacement([]string{"leaf"}, [][]int{{0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}})
	lower, err := NewRouter(Options{Nodes: []Node{leaf}, Placement: leafPl, Layer: layer, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lower.Close()
	addr, _ := newBinPeer(t, RouterBackend{lower}, layer)

	mid := NewBinNode("lower-router", addr, BinNodeOptions{})
	upPl := manualPlacement([]string{"lower-router"}, [][]int{{0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}})
	upper, err := NewRouter(Options{Nodes: []Node{mid}, Placement: upPl, Layer: layer, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer upper.Close()

	sample := wideSample()
	res, err := upper.Lookup(context.Background(), sample)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, layer, sample, res.Vectors)
	if leaf.lookups.Load() == 0 {
		t.Error("leaf never served through the federation")
	}
}

// TestRouterCarriesColdDegraded: a node answering through its storage
// tier's direct-materialization fallback says so over the binary wire,
// and the router must not drop it — Result.ColdDegraded is the OR over
// the sub-results, and both router front-ends (JSON and binary) pass it
// on. A healthy node next to it keeps its answers clean.
func TestRouterCarriesColdDegraded(t *testing.T) {
	layer := clusterLayer(t)
	newServer := func(coldDegraded bool) *serve.Server {
		srv, err := serve.New(serve.Options{
			Systems: []arch.System{fakeArch{}}, Layer: layer,
			ColdDegraded: func() bool { return coldDegraded },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	binNode := func(id string, srv *serve.Server) Node {
		addr, _ := newBinPeer(t, srv, layer)
		n := NewBinNode(id, addr, BinNodeOptions{})
		t.Cleanup(func() { n.Close() })
		return n
	}
	healthy := binNode("healthy", newServer(false))
	t.Run("binary", func(t *testing.T) {
		// Table 0 lives on the cold-degraded node, table 1 on the healthy one.
		owners := make([][]int, layer.Tables())
		for tb := range owners {
			owners[tb] = []int{1}
		}
		owners[0] = []int{0}
		r, err := NewRouter(Options{
			Nodes:     []Node{binNode("sick", newServer(true)), healthy},
			Placement: manualPlacement([]string{"sick", "healthy"}, owners),
			Layer:     layer, ProbeInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		op := func(table int) trace.Op {
			return trace.Op{Table: table, Kind: trace.WeightedSum, Indices: []int64{1, 2}, Weights: []float32{1, 0.5}}
		}
		mixed, clean := trace.Sample{op(0), op(1)}, trace.Sample{op(1)}

		res, err := r.Lookup(context.Background(), mixed)
		if err != nil {
			t.Fatal(err)
		}
		if !res.ColdDegraded || res.Degraded {
			t.Errorf("router result: ColdDegraded=%v Degraded=%v, want true/false", res.ColdDegraded, res.Degraded)
		}
		checkIdentical(t, layer, mixed, res.Vectors)
		if res, err := r.Lookup(context.Background(), clean); err != nil || res.ColdDegraded {
			t.Errorf("lookup on the healthy node only: ColdDegraded=%v, err %v", res != nil && res.ColdDegraded, err)
		}

		// Both router front-ends carry the flag to their callers: the
		// JSON one to an HTTP client, the binary one to an upstream router.
		front := httptest.NewServer(r.Handler())
		defer front.Close()
		if got := postLookup(t, front.URL, mixed); !got.ColdDegraded || got.Replica != -1 {
			t.Errorf("json front-end: ColdDegraded=%v Replica=%d, want true/-1", got.ColdDegraded, got.Replica)
		}
		if got := postLookup(t, front.URL, clean); got.ColdDegraded {
			t.Errorf("json front-end, healthy node only: %+v", got)
		}
		baddr, _ := newBinPeer(t, RouterBackend{r}, layer)
		bfront := NewBinNode("front", baddr, BinNodeOptions{})
		defer bfront.Close()
		got, err := bfront.Lookup(context.Background(), mixed)
		if err != nil {
			t.Fatalf("binary front-end: %v", err)
		}
		if !got.ColdDegraded || got.Replica != -1 {
			t.Errorf("binary front-end: ColdDegraded=%v Replica=%d, want true/-1", got.ColdDegraded, got.Replica)
		}
		if got, err := bfront.Lookup(context.Background(), clean); err != nil || got.ColdDegraded {
			t.Errorf("binary front-end, healthy node only: %+v, %v", got, err)
		}
	})
}
