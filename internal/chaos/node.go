package chaos

import (
	"fmt"
	"time"
)

// Cluster-tier fault injection: the kinds (NodeKill, NodePartition,
// NodeSlow in the Kind enum), rates, scripted rules and campaign
// config live here beside their replica- and storage-tier siblings;
// the wrapper applying them (FaultyNode) lives in internal/cluster,
// at the cluster.Node seam it wraps. (It cannot live here: this
// package is imported by internal/serve's tests, and the seam's types
// come from serve, so a chaos -> cluster -> serve import would cycle
// through the test binary.) Injector is shared across all three tiers
// — one campaign can span replica batches, device pages and whole
// nodes.

// ErrNodeKilled is returned by a killed node's calls until Revive.
var ErrNodeKilled = fmt.Errorf("chaos: node killed")

// NodeRates are per-Lookup injection probabilities in [0,1], checked
// in the order Kill, Slow (at most one fault per call). Kill is sticky:
// once drawn, every later call fails until Revive. Partitions are
// scripted (NodeRule) or manual (the cluster tier's FaultyNode).
type NodeRates struct {
	Kill, Slow float64
}

// NodeRule scripts one exact node fault: node Node (as passed to the
// wrapper) injects Kind on its Call'th Lookup (1-based). Like replica
// Rules, scheduled node faults fire regardless of Rates and of the
// injector switch — the deterministic backbone of a cluster chaos
// test. Kind must be NodeKill, NodePartition or NodeSlow.
type NodeRule struct {
	Node int
	Call int64
	Kind Kind
}

// ConnRates are per-frame-write injection probabilities in [0,1] for
// the binary transport, checked in the order Torn, Reset, Stall (at
// most one fault per write). They fault the shared connection under
// the multiplexer, not one call: a torn frame or reset fails every
// request in flight on that conn, which is exactly the blast radius
// the per-conn pending tables must contain.
type ConnRates struct {
	Torn, Reset, Stall float64
}

// NodeConfig configures node-level fault injection.
type NodeConfig struct {
	// Rates are the per-Lookup fault probabilities.
	Rates NodeRates
	// Conn are the per-frame-write fault probabilities applied by the
	// binary transport's FaultyConn wrapper.
	Conn ConnRates
	// Stall is the NodeSlow stall duration (default 2ms).
	Stall time.Duration
	// Schedule scripts exact per-node faults on top of Rates.
	Schedule []NodeRule
	// Downtime auto-revives a killed node once this much time has
	// passed since the kill (0 = sticky until Revive). Without it a
	// probabilistic-kill soak decays monotonically: the health gate
	// keeps failing probes, so the prober can never re-admit and the
	// whole fleet eventually dies.
	Downtime time.Duration
	// Seed seeds node i's RNG with Seed+i (default 1).
	Seed int64
}

// WithDefaults fills the zero-value defaults.
func (c NodeConfig) WithDefaults() NodeConfig {
	if c.Stall == 0 {
		c.Stall = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Record counts one injected fault of kind k — the counter hook for
// fault wrappers living outside this package (the cluster tier's
// FaultyNode).
func (inj *Injector) Record(k Kind) {
	if k >= 0 && k < numKinds {
		inj.counts[k].Add(1)
	}
}
