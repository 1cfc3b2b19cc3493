package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"recross/internal/serve"
	"recross/internal/sim"
	"recross/internal/trace"
)

// Handler returns the router's HTTP front-end — serve.NewHandler over the
// router, so it is wire-compatible with a single node's and clients (and
// upstream routers) need not care which they talk to. /v1/lookup answers
// carry Replica=-1 and ServiceCycles set to the cluster critical path;
// /metrics is the recross_cluster_* exposition; /healthz the aggregated
// cluster health.
func (r *Router) Handler() http.Handler {
	return serve.NewHandler(r.opts.Layer, RouterBackend{r}.Lookup, r.set, func() (any, bool) {
		h := r.Health()
		return h, h.Status == "draining"
	})
}

// HTTPNode is the real-network transport driver: a cluster.Node backed
// by a TCP/HTTP peer speaking the /v1/lookup wire format — any plain
// `recross-serve -addr` process is a valid peer with no node-side
// changes. JSON encodes float32s exactly (shortest round-trip form),
// so results through an HTTPNode remain bit-identical to in-process
// ones.
type HTTPNode struct {
	id     string
	base   string
	client *http.Client
	nodeCounters
}

// defaultHTTPClient is HTTPNode's keep-alive-tuned default: a hot
// cluster pushes hundreds of concurrent sub-requests per peer, and
// http.DefaultTransport's 2-conns-per-host idle cap would discard —
// and redial — most of them. Per-call deadlines still come from the
// router's contexts, so no Client.Timeout.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	},
}

// NewHTTPNode builds a node for the peer at base (e.g.
// "http://10.0.0.7:8080"). client may be nil for a shared
// keep-alive-tuned default; per-call deadlines come from the router's
// contexts either way.
func NewHTTPNode(id, base string, client *http.Client) *HTTPNode {
	if client == nil {
		client = defaultHTTPClient
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &HTTPNode{id: id, base: base, client: client}
}

// ID names the node.
func (n *HTTPNode) ID() string { return n.id }

// Lookup POSTs the sample to the peer's /v1/lookup.
func (n *HTTPNode) Lookup(ctx context.Context, sample trace.Sample) (*serve.Result, error) {
	return n.tally(n.lookup(ctx, sample))
}

func (n *HTTPNode) lookup(ctx context.Context, sample trace.Sample) (*serve.Result, error) {
	body, err := json.Marshal(serve.WireRequest(sample))
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.base+"/v1/lookup", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNodeDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e)
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		if e.Error == "" {
			e.Error = resp.Status
		}
		return nil, fmt.Errorf("cluster: node %s: %s", n.id, e.Error)
	}
	var lr serve.LookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", n.id, err)
	}
	// Drain the trailing newline the decoder leaves behind — an
	// un-drained body forfeits keep-alive reuse and forces a fresh dial
	// on the next sub-request.
	_, _ = io.Copy(io.Discard, resp.Body)
	return &serve.Result{
		Vectors:       lr.Vectors,
		BatchSize:     lr.BatchSize,
		ServiceCycles: sim.Cycle(lr.ServiceCycles),
		Replica:       lr.Replica,
		Retries:       lr.Retries,
		Degraded:      lr.Degraded,
		ColdDegraded:  lr.ColdDegraded,
		QueueWait:     time.Duration(lr.QueueMicros * 1e3),
		Total:         time.Duration(lr.TotalMicros * 1e3),
	}, nil
}

// Health GETs the peer's /healthz. A 503 body still decodes (the peer
// reports "draining"); transport failures surface as errors.
func (n *HTTPNode) Health(ctx context.Context) (serve.HealthReport, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+"/healthz", nil)
	if err != nil {
		return serve.HealthReport{}, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return serve.HealthReport{}, fmt.Errorf("%w: %v", ErrNodeDown, err)
	}
	defer resp.Body.Close()
	var h serve.HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return serve.HealthReport{}, fmt.Errorf("cluster: node %s healthz: %w", n.id, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return h, nil
}

// Close is a no-op: the peer's lifecycle is not ours.
func (n *HTTPNode) Close() error { return nil }
