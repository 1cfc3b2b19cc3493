package cluster

import (
	"sync/atomic"
	"time"

	"recross/internal/metrics"
)

// routerMetrics are the router's lock-cheap counters, published as
// recross_cluster_* by registerMetrics.
type routerMetrics struct {
	Requests    atomic.Int64 // lookups accepted
	Failed      atomic.Int64 // accepted lookups that returned an error (cancellation, fallback reduce error)
	Degraded    atomic.Int64 // lookups with >=1 fallback op
	FallbackOps atomic.Int64 // ops answered by the functional fallback
	Subrequests atomic.Int64 // node sub-requests dispatched
	SubFailures atomic.Int64 // node sub-requests failed
	Retries     atomic.Int64 // failovers after a primary failure
	HedgesFired atomic.Int64 // hedge requests launched
	HedgesWon   atomic.Int64 // hedges that answered first
	Probes      atomic.Int64 // dead-node health probes
	Revivals    atomic.Int64 // dead nodes re-admitted

	E2E *metrics.Hist // end-to-end router latency, ns
}

// Stats is a point-in-time copy of the router counters.
type Stats struct {
	Requests, Failed, Degraded, FallbackOps int64
	Subrequests, SubFailures, Retries       int64
	HedgesFired, HedgesWon                  int64
	Probes, Revivals                        int64
}

// Stats snapshots the router counters.
func (r *Router) Stats() Stats {
	m := r.metrics
	return Stats{
		Requests:    m.Requests.Load(),
		Failed:      m.Failed.Load(),
		Degraded:    m.Degraded.Load(),
		FallbackOps: m.FallbackOps.Load(),
		Subrequests: m.Subrequests.Load(),
		SubFailures: m.SubFailures.Load(),
		Retries:     m.Retries.Load(),
		HedgesFired: m.HedgesFired.Load(),
		HedgesWon:   m.HedgesWon.Load(),
		Probes:      m.Probes.Load(),
		Revivals:    m.Revivals.Load(),
	}
}

// NodeHealth is one node's entry in the aggregated health report.
type NodeHealth struct {
	ID          string        `json:"id"`
	State       string        `json:"state"`
	Outstanding int64         `json:"outstanding"`
	Lookups     int64         `json:"lookups"`
	Failures    int64         `json:"failures"`
	HedgeDelay  time.Duration `json:"hedge_delay_ns"`
}

// Health is the aggregated cluster health report served on /healthz.
// Status is "ok" when every node is available, "degraded" while any is
// dead (the router still answers everything — orphaned tables via the
// fallback), and "draining" once the router is closed.
type Health struct {
	Status     string       `json:"status"`
	Nodes      int          `json:"nodes"`
	Available  int          `json:"available"`
	Replicated int          `json:"replicated_tables"`
	NodeHealth []NodeHealth `json:"node_health"`
}

// Health aggregates the router's view of the cluster.
func (r *Router) Health() Health {
	h := Health{Nodes: len(r.nodes), Replicated: r.pl.Replicated()}
	for _, ns := range r.nodes {
		st := NodeState(ns.state.Load())
		if st != NodeDead {
			h.Available++
		}
		h.NodeHealth = append(h.NodeHealth, NodeHealth{
			ID:          ns.node.ID(),
			State:       st.String(),
			Outstanding: ns.outstanding.Load(),
			Lookups:     ns.lookups.Load(),
			Failures:    ns.failures.Load(),
			HedgeDelay:  time.Duration(ns.hedgeNs.Load()),
		})
	}
	switch {
	case r.closed.Load():
		h.Status = "draining"
	case h.Available < h.Nodes:
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	return h
}

// MetricSet returns the set the router's /metrics serves, so a binary
// listener fronting the router registers its series beside the router's
// own (the mirror of serve.Server.MetricSet).
func (r *Router) MetricSet() *metrics.Set { return r.set }

// wireMetricsOf finds the transport counters behind n, looking through
// wrappers that expose Unwrap (FaultyNode); nil when no layer owns any.
func wireMetricsOf(n Node) *WireMetrics {
	for {
		if src, ok := n.(interface{ WireMetrics() *WireMetrics }); ok {
			return src.WireMetrics()
		}
		w, ok := n.(interface{ Unwrap() Node })
		if !ok {
			return nil
		}
		n = w.Unwrap()
	}
}

// registerMetrics publishes the recross_cluster_* series in the router's
// set: router totals, hedge and probe counters, per-node states and
// outstanding-work gauges, the end-to-end latency summary, and the wire
// counters of every transport driver that owns some (BinNode). The node
// list is fixed for the router's life, so the label sets are too.
func (r *Router) registerMetrics() {
	set, m := r.set, r.metrics
	set.Counter("recross_cluster_requests_total", "Lookups accepted by the router.", m.Requests.Load)
	set.Counter("recross_cluster_requests_failed_total", "Accepted lookups that returned an error (cancellation, fallback reduce error).", m.Failed.Load)
	set.Counter("recross_cluster_requests_degraded_total", "Lookups with at least one functional-fallback op.", m.Degraded.Load)
	set.Counter("recross_cluster_fallback_ops_total", "Ops answered by the router's functional fallback.", m.FallbackOps.Load)
	set.Counter("recross_cluster_subrequests_total", "Per-node sub-requests dispatched.", m.Subrequests.Load)
	set.Counter("recross_cluster_subrequest_failures_total", "Per-node sub-requests failed.", m.SubFailures.Load)
	set.Counter("recross_cluster_retries_total", "Sub-request failovers onto a replica.", m.Retries.Load)
	set.Counter("recross_cluster_hedges_fired_total", "Hedge requests launched.", m.HedgesFired.Load)
	set.Counter("recross_cluster_hedges_won_total", "Hedge requests that answered first.", m.HedgesWon.Load)
	set.Counter("recross_cluster_probes_total", "Dead-node health probes sent.", m.Probes.Load)
	set.Counter("recross_cluster_revivals_total", "Dead nodes re-admitted after a probe.", m.Revivals.Load)
	set.IntGauge("recross_cluster_nodes", "Cluster size.", func() int64 { return int64(len(r.nodes)) })
	set.IntGauge("recross_cluster_nodes_available", "Nodes not marked dead.", func() int64 { return int64(r.Health().Available) })
	set.IntGauge("recross_cluster_replicated_tables", "Tables with more than one owner.", func() int64 { return int64(r.pl.Replicated()) })
	for _, ns := range r.nodes {
		id := ns.node.ID()
		set.IntGauge("recross_cluster_node_state", "Node state (0 healthy, 1 suspect, 2 dead).", func() int64 { return int64(ns.state.Load()) }, "node", id)
		set.IntGauge("recross_cluster_node_outstanding", "In-flight sub-requests per node.", ns.outstanding.Load, "node", id)
		set.Counter("recross_cluster_node_lookups_total", "Sub-requests served per node.", ns.lookups.Load, "node", id)
		set.Counter("recross_cluster_node_failures_total", "Sub-request failures per node.", ns.failures.Load, "node", id)
		set.Gauge("recross_cluster_node_hedge_delay_seconds", "Current per-node hedge delay.", func() float64 { return float64(ns.hedgeNs.Load()) / 1e9 }, "node", id)
		if wm := wireMetricsOf(ns.node); wm != nil {
			wm.register(set, "node", id, "role", "client")
		}
	}
	set.Summary("recross_cluster_latency_seconds", "Router end-to-end latency.", m.E2E, 1e-9)
}
