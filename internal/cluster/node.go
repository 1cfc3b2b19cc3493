// Package cluster scales the single-process serving layer out to N
// nodes — the cluster-level analogue of the paper's cross-level
// placement idea. Embedding tables are partitioned across nodes once,
// at start-up, dealt round the nodes in turn; the tables with the
// largest access volumes are replicated on R nodes (the
// cluster-scope version of RecNMP/TRiM-B hot-entry replication), and a
// stateless Router scatter-gathers each lookup batch across the owning
// nodes with per-node deadlines, hedged requests after a p99-derived
// delay, and least-outstanding-work dispatch among a hot table's
// replicas.
//
// Every table is procedurally defined by its global index, so holding a
// table costs a node nothing at rest — what the placement partitions is
// serving load: each node's batch stream, simulated memory-channel
// occupancy, and hot-row-cache working set cover only the tables routed
// to it. Nodes therefore stay full-spec and bit-identity holds on every
// path, including the router's functional fallback for tables whose
// owners are all down: node loss degrades (Result.Degraded), it never
// fails — PR 2's quorum semantics at cluster scope.
//
// Every node is reached one way: a BinNode speaking the binary frame
// protocol to a BinServer, whether that server runs in another process
// or on a loopback port of this one. cluster.Node is the seam the
// router holds, so a FaultyNode can wrap a BinNode to kill, partition
// or slow it (the only way a node is taken down on purpose) without
// the router — or anything above it — knowing.
package cluster

import (
	"context"
	"errors"

	"recross/internal/serve"
	"recross/internal/trace"
)

// ErrNodeDown reports a call on a node that is not serving (a closed
// BinNode, a refused connection). The router treats it like any
// other node failure: retry on a replica, then functional fallback.
var ErrNodeDown = errors.New("cluster: node down")

// Node is the transport driver interface: everything the router needs
// from a backend, regardless of where it runs. Implementations must be
// safe for concurrent use.
type Node interface {
	// ID names the node (stable across restarts).
	ID() string
	// Lookup serves one sample, honoring ctx.
	Lookup(ctx context.Context, sample trace.Sample) (*serve.Result, error)
	// Health probes the node's serving state.
	Health(ctx context.Context) (serve.HealthReport, error)
	// Close releases the node's connections, never the server behind it.
	Close() error
}
