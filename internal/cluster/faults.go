package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"recross/internal/chaos"
	"recross/internal/serve"
	"recross/internal/trace"
)

// FaultyNode wraps a Node with deterministic fault injection at the
// transport seam — the cluster-tier sibling of chaos.FaultySystem
// (replica batches) and chaos.FaultyColdStore (device pages); its
// kinds, rates and scripted rules live in internal/chaos beside
// theirs. Faults model how real fleets lose nodes: a kill fails calls
// fast and stays down until Revive, a partition swallows calls until
// the caller's deadline, and a slow node stalls before forwarding. A
// fleet of wrapped nodes shares one chaos.Injector; each node draws
// from its own seeded RNG, and only Lookup advances it, so a run is
// deterministic per (seed, node, call sequence). Unlike arch.Systems,
// cluster nodes serve concurrent calls; the RNG and call counter are
// mutex-guarded.
type FaultyNode struct {
	inner Node
	cfg   chaos.NodeConfig
	inj   *chaos.Injector

	mu     sync.Mutex    // guards picker
	picker *chaos.Picker // op = Lookup call number

	stateMu     sync.Mutex
	killed      bool
	killedAt    time.Time
	partitioned bool
}

// WrapFaultyNode builds a FaultyNode for node id. Schedule rules for
// other nodes are ignored, so one NodeConfig describes a whole
// cluster. inj may be shared; if nil a fresh one is made.
func WrapFaultyNode(inner Node, cfg chaos.NodeConfig, id int, inj *chaos.Injector) *FaultyNode {
	cfg = cfg.WithDefaults()
	if inj == nil {
		inj = chaos.NewInjector()
	}
	rules := make(map[int64]chaos.Kind)
	for _, r := range cfg.Schedule {
		if r.Node == id {
			rules[r.Call] = r.Kind
		}
	}
	r := cfg.Rates
	return &FaultyNode{
		inner: inner,
		cfg:   cfg,
		inj:   inj,
		picker: chaos.NewPicker(rand.New(rand.NewSource(cfg.Seed+int64(id))), inj, rules,
			chaos.Rate{Kind: chaos.NodeKill, P: r.Kill},
			chaos.Rate{Kind: chaos.NodeSlow, P: r.Slow}),
	}
}

// Kill takes the node down until Revive (the manual form of NodeKill)
// or, with cfg.Downtime set, until the downtime elapses.
func (n *FaultyNode) Kill() {
	n.stateMu.Lock()
	n.killed = true
	n.killedAt = time.Now()
	n.stateMu.Unlock()
}

// Revive brings a killed node back.
func (n *FaultyNode) Revive() {
	n.stateMu.Lock()
	n.killed = false
	n.stateMu.Unlock()
}

// Partition isolates the node: calls block until the caller's context
// expires. Heal with Partition(false).
func (n *FaultyNode) Partition(on bool) {
	n.stateMu.Lock()
	n.partitioned = on
	n.stateMu.Unlock()
}

// Calls reports how many Lookup calls this wrapper has seen.
func (n *FaultyNode) Calls() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.picker.Ops()
}

// pick decides whether this Lookup injects a fault (see chaos.Picker:
// scheduled rules fire even while the injector is disabled, and rates are
// checked Kill, Partition, Slow).
func (n *FaultyNode) pick() (chaos.Kind, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.picker.Pick()
}

// gate applies the sticky kill and partition switches to any call,
// auto-reviving an expired kill when cfg.Downtime is set.
func (n *FaultyNode) gate(ctx context.Context) error {
	n.stateMu.Lock()
	if n.killed && n.cfg.Downtime > 0 && time.Since(n.killedAt) >= n.cfg.Downtime {
		n.killed = false
	}
	killed, partitioned := n.killed, n.partitioned
	n.stateMu.Unlock()
	if killed {
		return chaos.ErrNodeKilled
	}
	if partitioned {
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

// ID names the wrapped node.
func (n *FaultyNode) ID() string { return n.inner.ID() }

// Unwrap returns the wrapped node, so the router finds the transport's
// wire counters through the fault layer.
func (n *FaultyNode) Unwrap() Node { return n.inner }

// Lookup forwards the call, possibly injecting one fault first.
func (n *FaultyNode) Lookup(ctx context.Context, sample trace.Sample) (*serve.Result, error) {
	k, inject := n.pick()
	if inject {
		n.inj.Record(k)
		switch k {
		case chaos.NodeKill:
			n.Kill()
		case chaos.NodePartition:
			<-ctx.Done()
			return nil, ctx.Err()
		case chaos.NodeSlow:
			select {
			case <-time.After(n.cfg.Stall):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	if err := n.gate(ctx); err != nil {
		return nil, err
	}
	return n.inner.Lookup(ctx, sample)
}

// Health forwards the probe through the same kill/partition gates
// (without advancing the fault RNG, so probes never perturb a
// scripted Lookup sequence).
func (n *FaultyNode) Health(ctx context.Context) (serve.HealthReport, error) {
	if err := n.gate(ctx); err != nil {
		return serve.HealthReport{}, err
	}
	return n.inner.Health(ctx)
}

// Close forwards to the wrapped node.
func (n *FaultyNode) Close() error { return n.inner.Close() }
