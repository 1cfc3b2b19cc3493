// Package recross is a simulation library for near-memory-processing (NMP)
// acceleration of the embedding layers of deep-learning recommendation
// models, reproducing "Accelerating Personalized Recommendation with
// Cross-level Near-Memory Processing" (Liu et al., ISCA 2023).
//
// The library models a DDR5 memory channel at DRAM-command granularity and
// provides six architectures over it:
//
//   - CPU        — the conventional 16-core + 32 MB LLC baseline
//   - TensorDIMM — rank-level NMP with vertical vector partitioning
//   - RecNMP     — rank-level NMP with per-PE hot-entry caches
//   - TRiMG      — bank-group-level NMP
//   - TRiMB      — bank-level NMP with hot-entry replication
//   - ReCross    — the paper's cross-level NMP: rank, bank-group and
//     subarray-parallel bank-level regions fed by an LP-based
//     bandwidth-aware partitioner
//
// Quick start:
//
//	spec := recross.CriteoKaggle(64, 80)
//	sys, err := recross.NewSystem(recross.ReCross, recross.Config{Spec: spec})
//	gen, err := recross.NewGenerator(spec, 1)
//	stats, err := sys.Run(gen.Batch(32))
//	fmt.Println(stats.Cycles, stats.Energy.Total())
//
// The experiment harness reproducing every figure and table of the paper's
// evaluation is exposed through the recross-bench command; see DESIGN.md
// for the experiment index and EXPERIMENTS.md for paper-vs-measured
// results.
package recross

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"recross/internal/adapt"
	"recross/internal/arch"
	"recross/internal/chaos"
	"recross/internal/cluster"
	"recross/internal/coldstore"
	"recross/internal/core"
	"recross/internal/dram"
	"recross/internal/embedding"
	"recross/internal/experiments"
	"recross/internal/kernels"
	"recross/internal/partition"
	"recross/internal/serve"
	"recross/internal/trace"
)

// Re-exported workload types.
type (
	// ModelSpec describes one recommendation model's embedding layer.
	ModelSpec = trace.ModelSpec
	// TableSpec describes one embedding table.
	TableSpec = trace.TableSpec
	// Batch is a batch of inference samples' embedding work.
	Batch = trace.Batch
	// Op is one embedding operation (gather + weighted-sum reduction).
	Op = trace.Op
	// Sample is one inference sample's embedding work (one Op per
	// accessed table) — the unit the serving layer's Lookup accepts.
	Sample = trace.Sample
	// Generator produces deterministic synthetic traces.
	Generator = trace.Generator
	// RunStats reports one simulated batch execution.
	RunStats = arch.RunStats
	// System is one simulated architecture.
	//
	// Concurrency contract: a System is single-goroutine. Run mutates
	// internal simulator state (banks, controller queues, caches), so a
	// single instance must never see concurrent Run calls; serialization
	// is the caller's job. Independent System instances are fully
	// isolated — even when built over the same ModelSpec and sharing one
	// *Profile and one ReCross placement (both only read) — so scaling
	// out means one instance per goroutine, exactly what the serving
	// layer's replica pool does (see Server and Config.ReplicaSystems).
	System = arch.System
	// Layer is the functional embedding layer (ground truth).
	Layer = embedding.Layer
	// ReCrossSystem is the paper's architecture with its partitioning
	// internals exposed (placement, decision, regions).
	ReCrossSystem = core.ReCross
	// ReCrossConfig is the full ReCross configuration (PE population and
	// optimization toggles).
	ReCrossConfig = core.Config
	// Profile carries the offline access statistics the partitioners use.
	Profile = partition.Profile
	// Precision selects an embedding row storage format: FP32 (native),
	// FP16 (IEEE binary16) or INT8 (per-row affine quantization with an
	// 8-byte scale/zero-point header).
	Precision = kernels.Precision

	// ColdTierConfig configures the flash-backed cold tier (Config.Cold):
	// the capacity and timing model the partitioner prices the fourth
	// placement level with, the DRAM-residency budget that forces the tail
	// of an oversized table set onto flash, and the functional backing
	// store's layout, retry, breaker and scrubber knobs. Its Precision is
	// independent of Config.Precision; a cold-placed row is
	// Decode(Encode(row)) at that precision whether the device answers or
	// the breaker is open.
	ColdTierConfig = coldstore.Config
	// ColdRowCount is one row's sketch-derived access count, the input of
	// the frequency-based page mapping.
	ColdRowCount = coldstore.RowCount
	// ColdDevice is the cold store's page I/O seam; wrap it (via
	// ColdTierConfig.WrapDevice) to interpose fault injection or
	// alternative media.
	ColdDevice = coldstore.Device

	// ColdFaultConfig configures storage-tier fault injection (rates,
	// stall, schedule, seed) for FaultyColdDevice.
	ColdFaultConfig = chaos.ColdConfig
	// ColdFaultRates are the per-operation storage fault probabilities.
	ColdFaultRates = chaos.ColdRates
	// FaultyColdDevice is the deterministic fault-injecting cold device
	// wrapper (read errors, stalls, corrupt pages, torn writes, sticky
	// device failure).
	FaultyColdDevice = chaos.FaultyColdStore

	// Server is the embedding-inference serving front-end: dynamic
	// batching over a sharded, self-healing replica pool with admission
	// control and a metrics registry. Build one with NewServer (or
	// serve.New directly via ServeOptions).
	Server = serve.Server
	// ServeOptions configures the serving layer (batching, queueing,
	// overload policy, replica systems, retry/restart/quorum knobs).
	ServeOptions = serve.Options
	// ServeSnapshot is a point-in-time metrics capture with p50/p95/p99.
	ServeSnapshot = serve.Snapshot
	// LoadgenOptions configures the built-in closed-loop load generator.
	LoadgenOptions = serve.LoadgenOptions
	// LoadgenReport is the load generator's throughput/latency summary.
	LoadgenReport = serve.Report

	// AdaptController is the online workload profiler + adaptive
	// repartitioning loop: a streaming frequency sketch over the serving
	// path, a drift detector against the deployed placement's profile, a
	// replanner re-running the partitioner LP, and a hysteresis gate
	// pricing migrations before adopting them. Build one (wired into a
	// Server) by setting Config.Adapt for NewStack.
	AdaptController = adapt.Controller
	// AdaptOptions configures the adaptive loop (sketch size, control
	// interval, drift threshold, hysteresis windows, migration economics).
	AdaptOptions = adapt.Options
	// FreqTracker is the bounded-memory per-table frequency sketch.
	FreqTracker = adapt.Tracker

	// FaultConfig configures the chaos fault-injection harness: per-kind
	// rates, a stall duration, a deterministic per-replica schedule, and
	// the RNG seed.
	FaultConfig = chaos.Config
	// FaultRates are per-batch injection probabilities (latency, panic,
	// wedge, corrupt).
	FaultRates = chaos.Rates
	// FaultInjector is the shared control plane of a fault campaign:
	// enable/disable, per-kind counters, wedge release.
	FaultInjector = chaos.Injector
	// FaultySystem wraps any System with deterministic fault injection.
	FaultySystem = chaos.FaultySystem

	// ClusterNode is the cluster transport driver interface
	// (Lookup/Health/Stats/Close): a BinNode over the binary wire,
	// optionally wrapped by a FaultyNode.
	ClusterNode = cluster.Node
	// ClusterRouter is the stateless scatter-gather front of a cluster:
	// placement-driven batch splitting, per-node deadlines, one failover
	// round onto replicas, least-outstanding replica dispatch, functional
	// fallback.
	ClusterRouter = cluster.Router
	// ClusterPlacement maps tables to owning nodes (primary first).
	ClusterPlacement = cluster.Placement
	// ClusterPlacementOptions configures RingPlacement, which deals the
	// tables round the nodes (hot tables first, replicated on the next
	// Replication nodes).
	ClusterPlacementOptions = cluster.PlacementOptions
	// ClusterResult is one answered cluster lookup.
	ClusterResult = cluster.Result
	// ClusterStats is the router's counter snapshot.
	ClusterStats = cluster.Stats
	// ClusterReport is the cluster load generator's summary.
	ClusterReport = cluster.Report
	// BinNode is the binary-protocol transport driver: multiplexed
	// lookups over pooled long-lived conns to a peer's binary listener.
	BinNode = cluster.BinNode
	// BinNodeOptions tunes a BinNode (pool size, wire precision, dialer).
	BinNodeOptions = cluster.BinNodeOptions
	// BinServer is the binary-protocol listener (server half of BinNode).
	BinServer = cluster.BinServer
	// BinDial dials one binary transport connection (the chaos seam).
	BinDial = cluster.BinDial
	// ClusterWireMetrics are one wire endpoint's transport counters.
	ClusterWireMetrics = cluster.WireMetrics

	// NodeFaultConfig configures cluster-tier fault injection (kill,
	// partition, slow, plus conn-level binary-wire faults) for
	// FaultyNode and WrapFaultyBinDial.
	NodeFaultConfig = chaos.NodeConfig
	// NodeFaultRates are per-Lookup node fault probabilities.
	NodeFaultRates = chaos.NodeRates
	// ConnFaultRates are per-frame-write binary-wire fault probabilities.
	ConnFaultRates = chaos.ConnRates
	// FaultyNode is the deterministic fault-injecting ClusterNode wrapper.
	FaultyNode = cluster.FaultyNode
)

// Serving layer overload policies and errors, re-exported.
var (
	// ErrOverloaded is returned by Server.Lookup when the admission
	// queue is full under the Shed policy.
	ErrOverloaded = serve.ErrOverloaded
	// ErrServerClosed is returned once a Server is draining or closed.
	ErrServerClosed = serve.ErrClosed
)

// Admission overload policies.
const (
	// BlockOnOverload waits for queue space.
	BlockOnOverload = serve.Block
	// ShedOnOverload fails fast with ErrOverloaded.
	ShedOnOverload = serve.Shed
)

// Row storage precisions (Config.Precision, ColdTierConfig.Precision).
const (
	FP32 = kernels.FP32
	FP16 = kernels.FP16
	INT8 = kernels.INT8
)

// ParsePrecision parses "fp32", "fp16" or "int8".
func ParsePrecision(s string) (Precision, error) { return kernels.ParsePrecision(s) }

// CriteoKaggle returns the 26-table Criteo Kaggle workload spec.
func CriteoKaggle(vecLen, pooling int) ModelSpec {
	return trace.CriteoKaggle(vecLen, pooling)
}

// CriteoTerabyte returns the scaled-up Criteo Terabyte workload spec.
func CriteoTerabyte(vecLen, pooling int) ModelSpec {
	return trace.CriteoTerabyte(vecLen, pooling)
}

// NewGenerator builds a deterministic trace generator for spec.
func NewGenerator(spec ModelSpec, seed int64) (*Generator, error) {
	return trace.NewGenerator(spec, seed)
}

// NewLayer builds the functional embedding layer for spec (procedural,
// zero-memory tables).
func NewLayer(spec ModelSpec) (*Layer, error) {
	return embedding.NewLayer(spec)
}

// AlmostEqual reports whether two vectors agree within tol elementwise
// (tol 0 demands bit-identical results).
func AlmostEqual(a, b []float32, tol float64) bool {
	return embedding.AlmostEqual(a, b, tol)
}

// Arch selects an architecture.
type Arch string

// The evaluated architectures.
const (
	CPU        Arch = "cpu"
	TensorDIMM Arch = "tensordimm"
	RecNMP     Arch = "recnmp"
	TRiMG      Arch = "trim-g"
	TRiMB      Arch = "trim-b"
	ReCross    Arch = "recross"

	// Extras beyond the paper's comparison set.

	// RankNMP is cache-less rank-level NMP (the generic "rank level" of
	// Figs. 4-5).
	RankNMP Arch = "rank-nmp"
	// FAFNIR adds an in-buffer rank reduction tree (Asgari et al.,
	// HPCA'21; the paper's §6).
	FAFNIR Arch = "fafnir"
)

// Arches lists the six evaluated architectures in the paper's comparison
// order.
func Arches() []Arch {
	out := make([]Arch, len(experiments.ArchNames))
	for i, name := range experiments.ArchNames {
		out[i] = Arch(name)
	}
	return out
}

// Config configures NewSystem. Zero values take the paper's defaults
// (2 ranks, batch 32 for the partitioner, 2000 profiling samples).
type Config struct {
	// Spec is the workload (required).
	Spec ModelSpec
	// Ranks per channel (default 2).
	Ranks int
	// Channels shards the model's tables round-robin across this many
	// independent memory channels, each with its own controller and PEs
	// (default 1). Profiling runs per channel when Channels > 1.
	Channels int
	// Batch is the batch size ReCross's partitioner optimizes for
	// (default 32).
	Batch int
	// ProfileSamples is the offline profiling length used by ReCross and
	// TRiM-B's hot-entry selection (default 2000).
	ProfileSamples int
	// ProfileSeed seeds the profiling pass (default 12345).
	ProfileSeed int64
	// Profile, when non-nil, is reused instead of profiling afresh.
	Profile *Profile
	// Cold, when non-nil, enables the flash-backed cold tier: a fourth
	// placement level below the DRAM regions, priced by the cold device's
	// timing model in the partitioner LP. ReCross only — NewSystem wires
	// the timing side into every replica, and NewStack additionally opens
	// the functional backing store and routes cold-placed row reads
	// through it.
	Cold *ColdTierConfig
	// Adapt, when non-nil, makes NewStack wire the online adaptive
	// repartitioning loop through the server (ReCross only). Spec,
	// Placement (the stack's one shared plan) and (when zero) Batch are
	// filled from the stack; NewSystem ignores it.
	Adapt *AdaptOptions
	// Chaos, when non-nil, makes NewStack wrap every replica — initial
	// and rebuilt — with the fault-injection harness.
	// NewSystem ignores it.
	Chaos *FaultConfig
	// Precision is the DRAM tiers' embedding row storage format (default
	// FP32). Quantized layers hold encoded backing tables that the reduce
	// path dequantizes inline (the hot-row cache stays fp32), and the
	// ReCross timing model charges the encoded burst count per gather
	// while the partitioner sees compressed region capacity/bandwidth.
	// ReCross only on the timing side; the functional layer quantizes for
	// every architecture.
	Precision Precision

	// placement is the partitioning plan a stack's first ReCross replica
	// solved; every later replica, rebuild and fleet node is built on it
	// (read-only) instead of solving again.
	placement *partition.Placement
}

func (c Config) withDefaults() Config {
	if c.Ranks == 0 {
		c.Ranks = 2
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.ProfileSamples == 0 {
		c.ProfileSamples = 2000
	}
	if c.ProfileSeed == 0 {
		c.ProfileSeed = 12345
	}
	return c
}

// NewSystem builds the requested architecture over the workload through
// the one constructor recross-sim and the experiments share.
func NewSystem(a Arch, cfg Config) (System, error) {
	cfg = cfg.withDefaults()
	if cfg.Cold != nil && a != ReCross {
		return nil, fmt.Errorf("recross: the cold tier requires the %q architecture (it owns the partitioner), got %q", ReCross, a)
	}
	h := experiments.NewHarness(experiments.Config{Ranks: cfg.Ranks, Batch: cfg.Batch,
		ProfileSeed: cfg.ProfileSeed, ProfileSamples: cfg.ProfileSamples}, cfg.Spec)
	tweak := func(rc *core.Config) {
		rc.Placement, rc.Precision, rc.ColdTier = cfg.placement, cfg.Precision, cfg.Cold
	}
	if cfg.Channels > 1 {
		return h.Sharded(string(a), cfg.Channels, tweak)() // each channel profiles its sub-spec
	}
	return h.Build(string(a), func(rc *core.Config) { tweak(rc); rc.Profile = cfg.Profile })()
}

// ReplicaSystems builds n isolated System replicas of architecture a
// over the same workload — the Config-level hook the serving layer's
// worker pool is built from. The offline profile is computed once and,
// for ReCross, the first replica's placement is the rest's plan; both are
// shared read-only, so startup neither re-profiles nor re-solves n times.
// Each System is otherwise fully independent and safe to drive from its
// own goroutine (see the System concurrency contract).
func (c Config) ReplicaSystems(a Arch, n int) ([]System, error) {
	_, systems, err := c.replicas(a, n)
	return systems, err
}

// replicas is ReplicaSystems, also returning the config with profile and plan.
func (c Config) replicas(a Arch, n int) (Config, []System, error) {
	if n < 1 {
		return c, nil, fmt.Errorf("recross: replica count %d < 1", n)
	}
	c, err := c.profiled(a)
	if err != nil {
		return c, nil, err
	}
	systems := make([]System, n)
	for i := range systems {
		sys, err := NewSystem(a, c)
		if err != nil {
			return c, nil, fmt.Errorf("recross: replica %d: %w", i, err)
		}
		if rc, ok := sys.(*core.ReCross); ok {
			c.placement = rc.Placement()
		}
		systems[i] = sys
	}
	return c, systems, nil
}

// profiled applies defaults and runs the offline profiling pass once up
// front for the architectures that need one, so replica construction
// reuses the shared read-only profile instead of re-profiling. Skipped
// for multi-channel configs, which re-profile per channel shard.
func (c Config) profiled(a Arch) (Config, error) {
	c = c.withDefaults()
	if c.Profile == nil && c.Channels <= 1 && (a == TRiMB || a == ReCross) {
		if err := c.Spec.Validate(); err != nil {
			return c, err
		}
		prof, err := NewProfile(c.Spec, c.ProfileSeed, c.ProfileSamples)
		if err != nil {
			return c, err
		}
		c.Profile = prof
	}
	return c, nil
}

// newLayer builds the functional layer at the config's storage precision.
// Quantization happens here, before the serving layer attaches a hot-row
// cache (SetPrecision rejects later changes), so warm and cold paths agree
// on the canonical decoded values from the first lookup.
func (c Config) newLayer() (*Layer, error) {
	layer, err := NewLayer(c.Spec)
	if err != nil {
		return nil, err
	}
	if c.Precision != FP32 {
		if err := layer.SetPrecision(c.Precision); err != nil {
			return nil, err
		}
	}
	return layer, nil
}

// coldReader adapts the store to the embedding layer's ColdReader and
// ColdCodec: a read the store declines is answered from its row source
// through its codec, so a cold-placed row has one value at every pairing
// of Config.Precision and Cold.Precision, healthy device or not.
type coldReader struct{ s *coldstore.Store }

func (r coldReader) ReadColdRow(ti int, idx int64, dst []float32) bool {
	return r.s.ReadRow(ti, idx, dst)
}

func (r coldReader) CanonicalColdRow(ti int, idx int64, dst []float32) {
	r.s.CanonicalRow(ti, idx, dst)
}

// openColdStore builds the functional backing store over the layer's
// tables (the store lazily materializes their exact bits into pages, so
// every read path stays bit-identical to the procedural reference).
func openColdStore(cold *ColdTierConfig, layer *Layer) (*coldstore.Store, error) {
	// The store reads full-precision sources: its codec (cold.Precision)
	// must apply exactly once to fp32 rows. When the tier precisions
	// match, the cold path therefore serves the same canonical decoded
	// bits as the warm quantized tables; when they differ, cold-placed
	// rows carry the cold codec's representation — on the degraded path
	// too (coldReader.CanonicalColdRow).
	srcs := make([]coldstore.RowSource, layer.Tables())
	for i := range srcs {
		srcs[i] = layer.SourceTable(i)
	}
	return coldstore.Open(*cold, srcs)
}

// routeCold points the layer's cold route at the store for every row the
// placement holds in the cold region. Swapping is atomic, so adoption can
// re-route a live data plane.
func routeCold(layer *Layer, store *coldstore.Store, pl *partition.Placement) {
	layer.SetColdRoute(func(ti int, idx int64) bool {
		region, _ := pl.Locate(ti, idx)
		return region == core.RegionCold
	}, coldReader{store})
}

// coldCounts converts the tracker's per-table heavy-hitter snapshots into
// the store's Remap input, keeping only rows the new placement holds cold
// — the warm-but-cold-placed rows frequency-based packing exists for. A
// table with no counted cold rows keeps its current mapping.
func coldCounts(tr *FreqTracker, pl *partition.Placement, tables int) [][]ColdRowCount {
	snaps := tr.Snapshot()
	counts := make([][]ColdRowCount, tables)
	for ti := range counts {
		if ti >= len(snaps) {
			break
		}
		snap := snaps[ti]
		var cs []ColdRowCount
		for k, row := range snap.Keys {
			if region, _ := pl.Locate(ti, row); region == core.RegionCold {
				cs = append(cs, ColdRowCount{Row: row, Count: snap.Counts[k]})
			}
		}
		counts[ti] = cs
	}
	return counts
}

// Stack is one node's assembled serving stack: the Server plus the
// control handles of whichever optional stages its Config enabled.
// Stack.Close (the embedded Server's) tears every stage down: it stops the
// adapt loop, releases wedged chaos batches and removes the cold file.
type Stack struct {
	*Server
	// Adapt is the adaptive controller (nil without Config.Adapt). It is
	// not started: call Start for the background loop at
	// AdaptOptions.Interval, or drive Step yourself (deterministic tests
	// do).
	Adapt *AdaptController
	// Faults is the replicas' shared fault injector (nil without
	// Config.Chaos): the on/off switch, per-kind counters, wedge release.
	Faults *FaultInjector

	// plan is the placement the replicas were built on (nil without a
	// ReCross partitioner).
	plan *partition.Placement
}

// rebuilder is the stack's default replica factory: a new system built
// on the deployed placement, re-wrapped with the fault harness.
func (st *Stack) rebuilder(a Arch, cfg Config, n int) func(id int) (System, error) {
	generations := make([]atomic.Int64, n) // incarnations per replica id
	return func(id int) (System, error) {
		c := cfg
		if st.Adapt != nil {
			// Not the boot placement: the controller may have adopted.
			c.placement = st.Adapt.Current()
		}
		sys, err := NewSystem(a, c)
		if err != nil {
			return nil, err
		}
		if cfg.Chaos != nil {
			// A rebuilt replica must not replay its predecessor's fault
			// sequence: with the same seed, a wrapper whose RNG faults
			// on its first batch faults on the first batch of every
			// incarnation, burning the restart cap until the replica is
			// declared dead and the fleet decays into all-degraded
			// service. Offset the seed by the replica's own incarnation
			// count k — Seed + n·k, plus id inside Wrap, is unique per
			// (id, k) and independent of other replicas' restarts — and
			// drop scripted rules, which are one-shot and already fired
			// on the original incarnation.
			fc := *cfg.Chaos
			fc.Schedule = nil
			fc.Seed += int64(n) * generations[id].Add(1)
			sys = chaos.Wrap(sys, fc, id, st.Faults)
		}
		return sys, nil
	}
}

// NewStack is the one construction path of the serving stack. Its stages
// are independent and run in a fixed order, each only when its config is
// set:
//
//  1. base — plan once (Config.ReplicaSystems): profile, let replica 0
//     solve and place the rows, build the other n-1 replica systems of
//     architecture a on that same read-only placement, and build the
//     functional layer at Config.Precision;
//  2. cold (Config.Cold) — open the flash tier's backing store over the
//     layer's tables, route cold-placed row reads through it (behind the
//     hot-row cache), report its breaker as cold-degraded health, export
//     recross_coldstore_* on /metrics;
//  3. adapt (Config.Adapt) — every admitted sample feeds the controller's
//     sketches (ServeOptions.Observer), adoption stages a swap to the
//     controller's one new placement on every replica at its next batch
//     boundary and, with a cold tier, re-routes the cold boundary and
//     repacks the store's pages from the sketch counts; the sketches
//     double as the hot-row cache's admission filter; recross_adapt_*
//     rides /metrics;
//  4. chaos (Config.Chaos) — wrap every replica with the fault harness,
//     outermost, so injected faults hit whatever the inner stages built;
//  5. rebuild — unless the caller supplied ServeOptions.Rebuild, the
//     replica factory a failed replica's worker calls composes the same
//     stages in the same order: new system built on the current placement
//     (the controller's, after an adoption), re-wrapped with a chaos seed
//     advanced per incarnation of that replica.
//
// opts.Systems and opts.Layer are filled in here. Stages 2 and 3 need the
// ReCross architecture (it owns the partitioner).
func NewStack(a Arch, cfg Config, n int, opts ServeOptions) (*Stack, error) {
	cfg, systems, err := cfg.replicas(a, n)
	if err != nil {
		return nil, err
	}
	layer, err := cfg.newLayer()
	if err != nil {
		return nil, err
	}
	pl := cfg.placement
	if pl == nil && (cfg.Cold != nil || cfg.Adapt != nil) {
		return nil, fmt.Errorf("recross: the cold tier and adaptive serving need single-channel %q replicas (they own the partitioner), got %q", ReCross, a)
	}
	st := &Stack{plan: pl}

	var store *coldstore.Store
	if cfg.Cold != nil {
		if store, err = openColdStore(cfg.Cold, layer); err != nil {
			return nil, err
		}
		routeCold(layer, store, pl)
		if opts.ColdDegraded == nil {
			opts.ColdDegraded = store.Degraded
		}
	}
	if cfg.Adapt != nil {
		// The controller and server reference each other (Observer feeds
		// the controller; adoption stages updates on the server): the
		// adoption closures read st.Server, filled in below.
		aopts := *cfg.Adapt
		aopts.Spec, aopts.Placement = cfg.Spec, pl
		if aopts.Batch == 0 {
			aopts.Batch = cfg.Batch
		}
		if aopts.Adopt == nil {
			aopts.Adopt = func(pl *partition.Placement) error {
				if st.Server == nil {
					return fmt.Errorf("recross: adoption before server construction")
				}
				st.StageUpdate(func(_ int, sys System) (System, error) {
					// Look through the chaos wrapper: a FaultySystem is not
					// itself a Rebalancer, and skipping it would leave every
					// wrapped replica on the old plan.
					inner := sys
					if fs, ok := sys.(*FaultySystem); ok {
						inner = fs.Inner()
					}
					if rb, ok := inner.(adapt.Rebalancer); ok {
						return sys, rb.Adopt(pl)
					}
					return sys, nil
				})
				return nil
			}
		}
		if store != nil {
			if aopts.ColdHealthy == nil {
				// The demotion-pause gate: no DRAM->cold migrations while
				// the store's breaker is not closed.
				aopts.ColdHealthy = func() bool { return !store.Degraded() }
			}
			// Adoption also moves the cold boundary: re-route the data
			// plane's cold predicate to the adopted placement and repack
			// the store's pages from the sketch counts (RecFlash-style
			// frequency mapping) — promoted rows stop routing to flash,
			// demoted ones start, and the warm cold-placed rows pack
			// hottest-first.
			inner := aopts.Adopt
			aopts.Adopt = func(pl *partition.Placement) error {
				if err := inner(pl); err != nil {
					return err
				}
				routeCold(layer, store, pl)
				return store.Remap(coldCounts(st.Adapt.Tracker(), pl, layer.Tables()))
			}
		}
		if aopts.ServiceCycles == nil {
			aopts.ServiceCycles = func() (int64, float64) {
				if st.Server == nil {
					return 0, 0
				}
				h := st.Metrics().ServiceCycles.Snapshot()
				return h.Count, h.Mean * float64(h.Count)
			}
		}
		if st.Adapt, err = adapt.NewController(aopts); err != nil {
			closeStore(store)
			return nil, err
		}
		if opts.Observer == nil {
			opts.Observer = st.Adapt.Observe
		}
	}

	if cfg.Chaos != nil {
		st.Faults = chaos.NewInjector()
		for i, sys := range systems {
			systems[i] = chaos.Wrap(sys, *cfg.Chaos, i, st.Faults)
		}
	}

	if opts.Rebuild == nil {
		opts.Rebuild = st.rebuilder(a, cfg, n)
	}

	prevClose := opts.OnClose
	opts.OnClose = func() {
		if st.Adapt != nil {
			st.Adapt.Stop()
		}
		if st.Faults != nil {
			// Wedged batches block their abandoned goroutines until
			// released; nothing runs on them after Close.
			st.Faults.ReleaseWedges()
		}
		closeStore(store)
		if prevClose != nil {
			prevClose()
		}
	}
	opts.Systems, opts.Layer = systems, layer
	if st.Server, err = serve.New(opts); err != nil {
		closeStore(store)
		return nil, err
	}
	if store != nil {
		store.RegisterMetrics(st.MetricSet())
	}
	if st.Adapt != nil {
		st.Adapt.RegisterMetrics(st.MetricSet())
		// The controller's Space-Saving sketches double as the hot-row
		// cache's admission filter: once live traffic accumulates, only
		// rows the tracker ranks as heavy hitters earn cache slots, so a
		// cold scan cannot wash the resident hot set out (lookups still
		// always probe).
		if cache := st.RowCache(); cache != nil {
			cache.SetAdmit(st.Adapt.Tracker().Hot)
		}
	}
	return st, nil
}

// NewServer builds a serving stack (see NewStack for the stages Config
// selects) and returns just its Server — all a caller needs when neither
// Config.Adapt nor Config.Chaos is set.
func NewServer(a Arch, cfg Config, n int, opts ServeOptions) (*Server, error) {
	st, err := NewStack(a, cfg, n, opts)
	if err != nil {
		return nil, err
	}
	return st.Server, nil
}

func closeStore(store *coldstore.Store) {
	if store != nil {
		store.Close()
	}
}

// NewFaultInjector returns an enabled injector — share one across the
// fault wrappers of a campaign so counters and the on/off switch span
// every tier (replica batches, device pages, cluster nodes).
func NewFaultInjector() *FaultInjector { return chaos.NewInjector() }

// WrapColdDevice wraps a cold-store page device with the deterministic
// storage-fault injector — the storage-tier counterpart of WrapFaulty.
// Install it through ColdTierConfig.WrapDevice and keep the returned
// handle to script sticky outages (FailDevice/RestoreDevice); inj may be
// shared with a replica fleet so one campaign spans compute and storage
// faults (nil makes a fresh one).
func WrapColdDevice(inner ColdDevice, fc ColdFaultConfig, inj *FaultInjector) *FaultyColdDevice {
	return chaos.WrapColdDevice(inner, fc, inj)
}

// Loadgen drives a Server with closed-loop clients and reports
// throughput and latency percentiles.
func Loadgen(s *Server, opts LoadgenOptions) (*LoadgenReport, error) {
	return serve.Loadgen(s, opts)
}

// ClusterConfig configures NewClusterServer: cluster shape (in-binary
// nodes or peer processes, both reached over the binary wire), hot-table
// replication in the dealt placement, and router
// timing knobs. The placement is computed once, at start-up, from the
// offline per-table access volumes. Zero values take sensible defaults.
type ClusterConfig struct {
	// Nodes is how many serving stacks to build in this binary (default
	// 4), each behind its own loopback binary listener. Ignored when
	// Peers is set.
	Nodes int
	// Peers, when non-empty, fronts other processes instead of building
	// nodes here: one node per peer address. Each is a `recross-serve
	// -bin-addr` listener, written "host:port" or "bin://host:port";
	// nodes speak only the binary protocol, so any other scheme is
	// rejected.
	Peers []string
	// WireConns is each node's binary-wire connection-pool size
	// (default 2).
	WireConns int
	// WirePrecision compresses binary-wire response vectors: "fp32"
	// (default; raw bits, bit-identical), "fp16" or "int8" (the storage
	// codecs' single rounding, opt-in and non-canonical).
	WirePrecision string
	// WrapDial, when set, interposes on every binary-wire dial to node i
	// — the conn-level fault-injection seam (wrap with WrapFaultyBinDial
	// for chaos campaigns). nil means plain TCP.
	WrapDial func(i int, d BinDial) BinDial
	// ReplicasPerNode is each in-binary node's serve-pool size (default 1).
	ReplicasPerNode int

	// Replication is the replica count for hot tables (default 2).
	Replication int
	// HotTopK replicates the k largest-volume tables (default
	// max(1, tables/4); negative replicates none).
	HotTopK int

	// NodeTimeout bounds each per-node sub-request (default 2s).
	NodeTimeout time.Duration
	// ProbeInterval paces dead-node re-admission probes (default 250ms;
	// negative disables).
	ProbeInterval time.Duration

	// Serve carries per-node serving knobs (batching, queueing, quorum,
	// row cache); Systems/Layer/Rebuild are filled per node. In-binary
	// nodes only.
	Serve ServeOptions

	// WrapNode, when set, interposes on every node handle before the
	// router sees it — the cluster fault-injection seam (wrap with
	// WrapFaultyNode for chaos campaigns).
	WrapNode func(i int, n ClusterNode) ClusterNode
}

func (cc ClusterConfig) withDefaults() ClusterConfig {
	if cc.Nodes == 0 {
		cc.Nodes = 4
	}
	if cc.ReplicasPerNode == 0 {
		cc.ReplicasPerNode = 1
	}
	if cc.Replication == 0 {
		cc.Replication = 2
	}
	return cc
}

// validate rejects a bad config before any node is built, naming the
// field at fault.
func (cc ClusterConfig) validate() error {
	if cc.Nodes < 0 {
		return fmt.Errorf("recross: ClusterConfig.Nodes is %d; want a positive node count (0 = default)", cc.Nodes)
	}
	if cc.WireConns < 0 {
		return fmt.Errorf("recross: ClusterConfig.WireConns is %d; want a positive pool size (0 = default)", cc.WireConns)
	}
	if _, err := kernels.ParsePrecision(cc.WirePrecision); err != nil {
		return fmt.Errorf("recross: ClusterConfig.WirePrecision: %w", err)
	}
	for _, peer := range cc.Peers {
		if strings.Contains(peer, "://") && !strings.HasPrefix(peer, "bin://") {
			return fmt.Errorf("recross: ClusterConfig.Peers: peer %q: nodes speak only the binary wire; give the peer's -bin-addr listener as host:port or bin://host:port", peer)
		}
	}
	return nil
}

// ClusterServer is a running cluster: the router (the only handle
// request traffic needs) and the nodes' serving stacks when they live
// in this binary. Close stops the router, the wire clients, the
// in-binary listeners and the stacks, in that order.
type ClusterServer struct {
	Router *ClusterRouter
	// Stacks are the in-binary nodes' stacks, node i at index i (nil
	// with Peers).
	Stacks []*Stack

	nodes     []*BinNode     // the router's wire clients; the router does not own them
	listeners []func() error // the in-binary nodes' binary listeners
}

// NewClusterServer builds the cluster tier: N full-spec nodes (every
// table is procedurally defined by its global index, so holding all
// tables costs a node nothing at rest — the placement partitions
// serving load, not functional capacity, and bit-identity holds on
// every path), a placement replicating the largest-volume tables on
// Replication nodes, and a router fronting it all. Every node is
// reached over the binary wire: the in-binary ones are NewStacks behind
// loopback listeners, so they differ from Peers only in who started
// the listener. The placement is fixed for the cluster's lifetime, as
// the paper fixes its row placement from the offline profile.
func NewClusterServer(a Arch, cfg Config, cc ClusterConfig) (_ *ClusterServer, err error) {
	cc = cc.withDefaults()
	if err = cc.validate(); err != nil {
		return nil, err
	}
	if cfg.Adapt != nil {
		return nil, fmt.Errorf("recross: adaptive repartitioning is per-node; a cluster's placement is fixed at start-up")
	}
	if len(cc.Peers) > 0 && (cfg.Cold != nil || cfg.Chaos != nil) {
		return nil, fmt.Errorf("recross: the cold tier and replica chaos are per-node stages; configure them on the peer processes, not on the router fronting them")
	}
	if err = cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	spec := cfg.Spec
	cs := &ClusterServer{}
	defer func() {
		if err != nil {
			_ = cs.closeNodes()
		}
	}()

	// Without peers, start the nodes here: each a full stack from the one
	// pipeline, sharing the cluster's single profiling pass and node 0's
	// plan; with chaos, node i's replicas draw from their own seeds so
	// nodes do not fault in lockstep.
	addrs, ids := cc.Peers, cc.Peers
	if len(cc.Peers) == 0 {
		if cfg, err = cfg.profiled(a); err != nil {
			return nil, err
		}
		addrs, ids = make([]string, cc.Nodes), make([]string, cc.Nodes)
		for i := range addrs {
			nc := cfg
			if cfg.Chaos != nil {
				fc := *cfg.Chaos
				if fc.Seed == 0 {
					fc.Seed = 1
				}
				fc.Seed += int64(i * cc.ReplicasPerNode)
				nc.Chaos = &fc
			}
			st, err := NewStack(a, nc, cc.ReplicasPerNode, cc.Serve)
			if err != nil {
				return nil, fmt.Errorf("recross: build node %d: %w", i, err)
			}
			cs.Stacks = append(cs.Stacks, st)
			cfg.placement = st.plan
			addr, closeLis, err := serveLoopback(st.Server)
			if err != nil {
				return nil, err
			}
			cs.listeners = append(cs.listeners, closeLis)
			addrs[i], ids[i] = addr, fmt.Sprintf("node%d", i)
		}
	}

	prec, _ := kernels.ParsePrecision(cc.WirePrecision) // validated above
	nodes := make([]ClusterNode, len(addrs))
	for i, addr := range addrs {
		bo := BinNodeOptions{Conns: cc.WireConns, Precision: prec}
		if cc.WrapDial != nil {
			bo.Dial = cc.WrapDial(i, nil)
		}
		n := cluster.NewBinNode(ids[i], addr, bo)
		cs.nodes = append(cs.nodes, n)
		nodes[i] = n
		if cc.WrapNode != nil {
			nodes[i] = cc.WrapNode(i, n)
		}
	}

	pl, err := clusterPlacement(spec, ids, cc)
	if err != nil {
		return nil, err
	}
	routerLayer, err := cfg.newLayer()
	if err != nil {
		return nil, err
	}
	router, err := cluster.NewRouter(cluster.Options{
		Nodes:         nodes,
		Placement:     pl,
		Layer:         routerLayer,
		NodeTimeout:   cc.NodeTimeout,
		ProbeInterval: cc.ProbeInterval,
	})
	if err != nil {
		return nil, err
	}
	cs.Router = router
	return cs, nil
}

// clusterPlacement deals the tables round the nodes, replicating the tables
// with the largest offline access volumes.
func clusterPlacement(spec ModelSpec, ids []string, cc ClusterConfig) (*ClusterPlacement, error) {
	vols := partition.AccessVolumes(spec, batchOf(cc.Serve.MaxBatch))
	k := cc.HotTopK
	switch {
	case k < 0:
		k = 0
	case k == 0:
		k = len(spec.Tables) / 4
		if k < 1 {
			k = 1
		}
	}
	return cluster.RingPlacement(len(spec.Tables), ids, ClusterPlacementOptions{
		Replication: cc.Replication,
		Hot:         cluster.HotTopK(vols, k),
	})
}

func batchOf(maxBatch int) int {
	if maxBatch > 0 {
		return maxBatch
	}
	return 32
}

// Lookup serves one sample through the router.
func (cs *ClusterServer) Lookup(ctx context.Context, sample Sample) (*ClusterResult, error) {
	return cs.Router.Lookup(ctx, sample)
}

// Close stops the router, the wire clients, the in-binary listeners
// (waiting for each Serve to return), then the stacks.
func (cs *ClusterServer) Close() error {
	return errors.Join(cs.Router.Close(), cs.closeNodes())
}

// closeNodes tears down everything under the router, joining the errors.
func (cs *ClusterServer) closeNodes() error {
	var errs []error
	for _, n := range cs.nodes {
		errs = append(errs, n.Close())
	}
	for _, closeLis := range cs.listeners {
		errs = append(errs, closeLis())
	}
	for _, st := range cs.Stacks {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}

// serveLoopback serves srv's binary wire on a fresh 127.0.0.1 port. It
// returns the bound address and a close that stops the listener and
// waits for Serve to return.
func serveLoopback(srv *Server) (string, func() error, error) {
	bs, err := NewBinServer(srv)
	if err != nil {
		return "", nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		bs.Serve(lis) // returns once bs.Close closes the listener
	}()
	return lis.Addr().String(), func() error {
		err := bs.Close()
		<-served
		return err
	}, nil
}

// ClusterLoadgen drives the router with closed-loop clients.
func ClusterLoadgen(r *ClusterRouter, opts LoadgenOptions) (*ClusterReport, error) {
	return cluster.Loadgen(r, opts)
}

// WrapFaultyNode wraps one ClusterNode with deterministic node-level
// fault injection (kill, partition, slow) for node id; inj may be
// shared across a cluster (nil makes a fresh one). Install through
// ClusterConfig.WrapNode, keeping the handles for manual
// Kill/Revive/Partition control.
func WrapFaultyNode(n ClusterNode, fc NodeFaultConfig, id int, inj *FaultInjector) *FaultyNode {
	return cluster.WrapFaultyNode(n, fc, id, inj)
}

// NewBinServer builds a binary-protocol listener serving a single
// node's lookups — the binary analogue of Server.Handler. Publish its
// wire counters with bs.RegisterMetrics(srv.MetricSet()) and run
// bs.Serve(lis).
func NewBinServer(srv *Server) (*BinServer, error) {
	return cluster.NewBinServer(cluster.BinServerOptions{Backend: srv, Layer: srv.Layer()})
}

// NewClusterBinServer builds a binary-protocol listener fronting a
// cluster router — the binary analogue of Router.Handler, so routers
// federate over either wire.
func NewClusterBinServer(r *ClusterRouter) (*BinServer, error) {
	return cluster.NewBinServer(cluster.BinServerOptions{Backend: cluster.RouterBackend{R: r}, Layer: r.Layer()})
}

// WrapFaultyBinDial wraps a binary-transport dialer with deterministic
// conn-level fault injection (torn frames, resets, write stalls) per
// fc.Conn for node id; dial nil means plain TCP, inj may be shared
// with node- and replica-tier campaigns. Install through
// ClusterConfig.WrapDial so -chaos-node-* campaigns cover the binary
// wire too.
func WrapFaultyBinDial(dial BinDial, fc NodeFaultConfig, id int, inj *FaultInjector) BinDial {
	return cluster.WrapFaultyDial(dial, fc, id, inj)
}

// NewReCross builds a fully customized ReCross instance (PE population,
// optimization toggles, region configuration).
func NewReCross(cfg ReCrossConfig) (*ReCrossSystem, error) {
	sys, err := experiments.NewSystem(string(ReCross), cfg, nil)
	if err != nil {
		return nil, err
	}
	return sys.(*core.ReCross), nil
}

// DefaultReCrossConfig returns the paper's ReCross-d configuration.
func DefaultReCrossConfig(spec ModelSpec) ReCrossConfig {
	return core.DefaultConfig(spec)
}

// NewProfile runs an offline profiling pass over spec.
func NewProfile(spec ModelSpec, seed int64, samples int) (*Profile, error) {
	return partition.NewProfile(spec, seed, samples)
}

// ChannelBytes returns the capacity of a channel with the given rank count,
// for capacity planning.
func ChannelBytes(ranks int) int64 {
	return dram.DDR5(ranks).ChannelBytes()
}
