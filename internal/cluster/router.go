package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"recross/internal/embedding"
	"recross/internal/metrics"
	"recross/internal/serve"
	"recross/internal/sim"
	"recross/internal/trace"
)

// ErrRouterClosed reports a Lookup on a closed router. It unwraps to
// serve.ErrClosed, so the shared front-end maps it to 503 like a closed
// server.
var ErrRouterClosed error = routerClosedError{}

type routerClosedError struct{}

func (routerClosedError) Error() string { return "cluster: router closed" }
func (routerClosedError) Unwrap() error { return serve.ErrClosed }

// NodeState is the router's view of one node.
type NodeState int32

const (
	// NodeHealthy: serving normally.
	NodeHealthy NodeState = iota
	// NodeSuspect: recent failures (or freshly re-admitted); still
	// dispatched to, but a replica is preferred when one is healthier.
	NodeSuspect
	// NodeDead: consecutive failures crossed FailThreshold; excluded
	// from dispatch until the prober re-admits it.
	NodeDead
)

func (s NodeState) String() string {
	switch s {
	case NodeHealthy:
		return "healthy"
	case NodeSuspect:
		return "suspect"
	case NodeDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Options configures NewRouter.
type Options struct {
	// Nodes are the cluster members, indexed identically to
	// Placement.Nodes (required, at least one).
	Nodes []Node
	// Placement maps tables to nodes (required; fixed for the router's
	// lifetime).
	Placement *Placement
	// Layer is the router's own functional embedding layer, used to
	// answer ops whose owning nodes are all unavailable (required).
	// Procedural layers make the fallback bit-identical to any node.
	Layer *embedding.Layer
	// NodeTimeout bounds each sub-request (default 2s).
	NodeTimeout time.Duration
	// Deprecated: HedgeDelay has no effect; the router sends each
	// sub-request to one node. It is kept only because benchmark/serve.go
	// still sets it.
	HedgeDelay time.Duration
	// FailThreshold is how many consecutive sub-request failures mark a
	// node dead (default 3).
	FailThreshold int
	// ProbeInterval paces the background prober that re-admits dead
	// nodes (default 250ms; negative disables the prober).
	ProbeInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.NodeTimeout == 0 {
		o.NodeTimeout = 2 * time.Second
	}
	if o.FailThreshold == 0 {
		o.FailThreshold = 3
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	return o
}

// Result is one answered cluster lookup.
type Result struct {
	// Vectors holds the pooled vector of each op, in request order,
	// bit-identical to embedding.Layer.Reduce on the same ops.
	Vectors [][]float32
	// Nodes is how many distinct nodes served sub-requests.
	Nodes int
	// Degraded marks an answer where at least one op came from the
	// router's functional fallback because no owner was available.
	Degraded bool
	// DegradedOps counts those fallback ops.
	DegradedOps int
	// ColdDegraded marks a request where at least one node answered while
	// its storage tier was degraded (serve.Result.ColdDegraded): vectors
	// are still bit-exact, cold-path latency is not.
	ColdDegraded bool
	// Retries counts failed sub-requests retried on a replica.
	Retries int
	// ServiceCycles is the max simulated batch latency over the
	// sub-requests — the parallel cluster's critical-path analogue.
	ServiceCycles sim.Cycle
	// Total is end-to-end wall time in the router.
	Total time.Duration
}

// nodeState is the router's per-node bookkeeping.
type nodeState struct {
	node Node

	state       atomic.Int32
	consecFails atomic.Int32
	outstanding atomic.Int64 // in-flight sub-requests
	sent        atomic.Int64 // cumulative dispatched sub-requests (tie-break)
	lookups     atomic.Int64
	failures    atomic.Int64
}

func (ns *nodeState) available() bool {
	return NodeState(ns.state.Load()) != NodeDead
}

func (ns *nodeState) ok() {
	ns.consecFails.Store(0)
	ns.state.Store(int32(NodeHealthy))
	ns.lookups.Add(1)
}

func (ns *nodeState) fail(threshold int) {
	ns.failures.Add(1)
	if int(ns.consecFails.Add(1)) >= threshold {
		ns.state.Store(int32(NodeDead))
	} else {
		ns.state.Store(int32(NodeSuspect))
	}
}

// Router is the stateless scatter-gather front of a cluster: it splits
// each sample by the placement, dispatches per-node sub-requests
// concurrently under NodeTimeout, retries the ops of failed
// sub-requests on replicas in one failover round, answers orphaned ops
// from the functional layer, and reassembles results bit-identically in
// request order.
// "Stateless" means it holds no table data — only routing state — so
// any number of routers can front the same nodes. All methods are safe
// for concurrent use.
type Router struct {
	opts    Options
	nodes   []*nodeState
	pl      *Placement
	metrics *routerMetrics
	set     *metrics.Set // what /metrics serves
	scratch sync.Pool    // *embedding.Scratch for fallback reductions

	closed   atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewRouter builds and starts a router (plus its background prober,
// unless ProbeInterval is negative).
func NewRouter(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Nodes) == 0 {
		return nil, errors.New("cluster: router needs at least one node")
	}
	if opts.Layer == nil {
		return nil, errors.New("cluster: router needs a functional layer")
	}
	if err := checkPlacement(opts.Placement, len(opts.Nodes), opts.Layer.Tables()); err != nil {
		return nil, err
	}
	r := &Router{
		opts:    opts,
		metrics: &routerMetrics{E2E: metrics.NewHist()},
		set:     metrics.NewSet(),
		pl:      opts.Placement,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	r.scratch.New = func() any { return &embedding.Scratch{} }
	for _, n := range opts.Nodes {
		r.nodes = append(r.nodes, &nodeState{node: n})
	}
	r.registerMetrics()
	if opts.ProbeInterval > 0 {
		go r.probe()
	} else {
		close(r.done)
	}
	return r, nil
}

func checkPlacement(p *Placement, nodes, tables int) error {
	if p == nil {
		return errors.New("cluster: router needs a placement")
	}
	if len(p.Nodes) != nodes {
		return fmt.Errorf("cluster: placement covers %d nodes, router has %d", len(p.Nodes), nodes)
	}
	if p.Tables() != tables {
		return fmt.Errorf("cluster: placement covers %d tables, layer has %d", p.Tables(), tables)
	}
	for t, reps := range p.Replicas {
		if len(reps) == 0 {
			return fmt.Errorf("cluster: table %d has no owners", t)
		}
		for _, i := range reps {
			if i < 0 || i >= nodes {
				return fmt.Errorf("cluster: table %d owner %d out of [0,%d)", t, i, nodes)
			}
		}
	}
	return nil
}

// Placement returns the router's placement.
func (r *Router) Placement() *Placement { return r.pl }

// Layer returns the router's functional embedding layer (shared with
// the binary listener for request validation).
func (r *Router) Layer() *embedding.Layer { return r.opts.Layer }

// NodeState reports the router's view of node i.
func (r *Router) NodeState(i int) NodeState {
	return NodeState(r.nodes[i].state.Load())
}

// group is the per-node slice of one scattered sample.
type group struct {
	node int   // primary node index
	ops  []int // op positions within the sample
}

// Lookup serves one sample across the cluster. Errors are reserved for
// caller mistakes (bad ops) and closure; node loss never surfaces as an
// error — orphaned ops are answered from the functional layer with
// Result.Degraded set.
func (r *Router) Lookup(ctx context.Context, sample trace.Sample) (*Result, error) {
	if r.closed.Load() {
		return nil, ErrRouterClosed
	}
	if err := serve.CheckSample(r.opts.Layer, sample); err != nil {
		return nil, err
	}
	start := time.Now()
	r.metrics.Requests.Add(1)

	all := make([]int, len(sample))
	for i := range all {
		all[i] = i
	}
	groups, failedOps := r.plan(sample, all, nil)
	res := &Result{Vectors: make([][]float32, len(sample))}
	served := make(map[int]bool, len(groups)) // distinct serving nodes
	failed, from := r.scatter(ctx, sample, groups, res, served)

	// Failover round: re-plan each op of a failed group individually
	// onto any other live owner of its table (a group may mix tables
	// replicated elsewhere with tables unique to the failed node); only
	// ops with nowhere left to go degrade.
	if len(failed) > 0 {
		groups2, orphans := r.plan(sample, failed, from)
		failedOps = append(failedOps, orphans...)
		if len(groups2) > 0 {
			r.metrics.Retries.Add(int64(len(groups2)))
			res.Retries += len(groups2)
			failed2, _ := r.scatter(ctx, sample, groups2, res, served)
			failedOps = append(failedOps, failed2...)
		}
	}
	res.Nodes = len(served)
	// Functional fallback: bit-identical to any node's answer — the
	// tables are the same procedural functions.
	if len(failedOps) > 0 {
		if err := ctx.Err(); err != nil {
			r.metrics.Failed.Add(1)
			return nil, err
		}
		sc := r.scratch.Get().(*embedding.Scratch)
		defer r.scratch.Put(sc)
		for _, oi := range failedOps {
			vec := make([]float32, r.opts.Layer.Table(sample[oi].Table).VecLen())
			if err := r.opts.Layer.ReduceInto(vec, sample[oi], sc); err != nil {
				r.metrics.Failed.Add(1)
				return nil, fmt.Errorf("cluster: fallback reduce: %w", err)
			}
			res.Vectors[oi] = vec
		}
		res.Degraded = true
		res.DegradedOps = len(failedOps)
		r.metrics.Degraded.Add(1)
		r.metrics.FallbackOps.Add(int64(len(failedOps)))
	}

	res.Total = time.Since(start)
	r.metrics.E2E.Record(res.Total.Nanoseconds())
	return res, nil
}

// plan builds one scatter round over ops: each op goes to the
// least-loaded available owner of its table other than exclude[op] (the
// node that failed it; exclude is nil for the first round), and ops
// sharing a node ride one sub-request. pending tracks work assigned
// within this plan so a burst of ops on one hot table spreads across its
// replicas even at zero ambient concurrency. Ops with no eligible owner
// come back as orphans, for the functional fallback.
func (r *Router) plan(sample trace.Sample, ops []int, exclude map[int]int) (groups []group, orphans []int) {
	pending := make([]int64, len(r.nodes))
	byNode := make(map[int]int, 4) // node -> index in groups
	for _, oi := range ops {
		not := -1
		if exclude != nil {
			not = exclude[oi]
		}
		n := r.pickNode(r.pl.Replicas[sample[oi].Table], pending, not)
		if n < 0 {
			orphans = append(orphans, oi)
			continue
		}
		pending[n]++
		gi, ok := byNode[n]
		if !ok {
			gi = len(groups)
			byNode[n] = gi
			groups = append(groups, group{node: n})
		}
		groups[gi].ops = append(groups[gi].ops, oi)
	}
	return groups, orphans
}

// scatter dispatches one round of per-node sub-requests (one goroutine
// per group), merges successful answers into res and served, and
// returns the ops whose sub-requests failed along with the node each
// failed on (for the caller's per-op failover round).
func (r *Router) scatter(ctx context.Context, sample trace.Sample, groups []group, res *Result, served map[int]bool) (failed []int, from map[int]int) {
	type outcome struct {
		g    int
		sres *serve.Result
		err  error
	}
	outc := make(chan outcome, len(groups))
	for gi := range groups {
		g := groups[gi]
		sub := make(trace.Sample, len(g.ops))
		for j, oi := range g.ops {
			sub[j] = sample[oi]
		}
		go func(gi int, ns *nodeState, sub trace.Sample) {
			sres, err := r.callNode(ctx, ns, sub)
			outc <- outcome{g: gi, sres: sres, err: err}
		}(gi, r.nodes[g.node], sub)
	}
	from = make(map[int]int, 4)
	for range groups {
		o := <-outc
		g := groups[o.g]
		if o.err != nil {
			failed = append(failed, g.ops...)
			for _, oi := range g.ops {
				from[oi] = g.node
			}
			continue
		}
		served[g.node] = true
		for j, oi := range g.ops {
			res.Vectors[oi] = o.sres.Vectors[j]
		}
		if o.sres.ServiceCycles > res.ServiceCycles {
			res.ServiceCycles = o.sres.ServiceCycles
		}
		res.ColdDegraded = res.ColdDegraded || o.sres.ColdDegraded
	}
	return failed, from
}

// pickNode selects the least-outstanding available node among cands
// (ties: fewest cumulative sent, then lowest index), excluding node
// `not` (-1 excludes none). Returns -1 when no candidate is available.
func (r *Router) pickNode(cands []int, pending []int64, not int) int {
	best := -1
	var bestOut, bestSent int64
	for _, c := range cands {
		if c == not {
			continue
		}
		ns := r.nodes[c]
		if !ns.available() {
			continue
		}
		out := ns.outstanding.Load()
		if pending != nil {
			out += pending[c]
		}
		sent := ns.sent.Load()
		if best < 0 || out < bestOut || (out == bestOut && sent < bestSent) {
			best, bestOut, bestSent = c, out, sent
		}
	}
	return best
}

// callNode runs one sub-request against a node and maintains its health
// state. A failure after the caller's context has ended is the caller's,
// not the node's: it marks no node and counts no SubFailures. An expired
// NodeTimeout still marks the node.
func (r *Router) callNode(ctx context.Context, ns *nodeState, sub trace.Sample) (*serve.Result, error) {
	cctx, cancel := context.WithTimeout(ctx, r.opts.NodeTimeout)
	defer cancel()
	ns.outstanding.Add(1)
	ns.sent.Add(int64(len(sub)))
	r.metrics.Subrequests.Add(1)
	res, err := ns.node.Lookup(cctx, sub)
	ns.outstanding.Add(-1)
	if err != nil {
		if ctx.Err() == nil {
			r.metrics.SubFailures.Add(1)
			ns.fail(r.opts.FailThreshold)
		}
		return nil, err
	}
	// A malformed reply is only a failure: no streak reset or served count.
	if len(res.Vectors) != len(sub) {
		r.metrics.SubFailures.Add(1)
		ns.fail(r.opts.FailThreshold)
		return nil, fmt.Errorf("cluster: node %s returned %d vectors for %d ops", ns.node.ID(), len(res.Vectors), len(sub))
	}
	ns.ok()
	return res, nil
}

// probe is the background loop: it health-checks dead nodes,
// re-admitting them as suspect on a successful probe.
func (r *Router) probe() {
	defer close(r.done)
	ticker := time.NewTicker(r.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		for _, ns := range r.nodes {
			if NodeState(ns.state.Load()) != NodeDead {
				continue
			}
			r.metrics.Probes.Add(1)
			ctx, cancel := context.WithTimeout(context.Background(), r.opts.NodeTimeout)
			h, err := ns.node.Health(ctx)
			cancel()
			if err == nil && h.Status != "draining" {
				ns.consecFails.Store(0)
				ns.state.Store(int32(NodeSuspect))
				r.metrics.Revivals.Add(1)
			}
		}
	}
}

// Close stops the prober. It does not close the nodes — the router
// does not own them (the caller does).
func (r *Router) Close() error {
	r.closed.Store(true)
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	return nil
}
