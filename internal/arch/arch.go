// Package arch provides the machinery shared by every evaluated
// architecture (the CPU baseline, TensorDIMM, RecNMP, TRiM-G/B in
// internal/baseline, and ReCross in internal/core): the System interface
// the experiment harness drives, vector-slot-to-DRAM-location striping, and
// the gather Pass — dedup, NMP-instruction arrival modelling, the §3.3 bus
// charges, channel draining, and run statistics including per-PE-node
// loads, the load-imbalance metric of §3.1, and the energy account.
package arch

import (
	"fmt"

	"recross/internal/dram"
	"recross/internal/energy"
	"recross/internal/memctrl"
	"recross/internal/nmp"
	"recross/internal/sim"
	"recross/internal/stats"
	"recross/internal/trace"
)

// RunStats reports one batch execution.
type RunStats struct {
	// Cycles is the end-to-end batch latency in DRAM cycles, including
	// result transfer back to the host.
	Cycles sim.Cycle
	// DRAM is the channel's event counters (summed over a MultiChannel's
	// channels).
	DRAM dram.Stats
	// Ops counts PE (or host ALU) arithmetic.
	Ops nmp.OpStats
	// RowHits/RowMisses count vector requests served with/without
	// activations.
	RowHits, RowMisses int64
	// Lookups is the number of gathered embedding vectors.
	Lookups int64
	// CacheHits counts lookups absorbed by a cache (LLC or RecNMP PE
	// cache) that never reached DRAM.
	CacheHits int64
	// NodeLoads is the per-PE-node busy-time proxy (cycles of data
	// cadence) used for the load-imbalance ratio.
	NodeLoads []int64
	// Imbalance is max(NodeLoads)/mean(NodeLoads), the paper's §3.1 ratio.
	Imbalance float64
	// OpP50 and OpP99 are the median and tail per-operation serving
	// latencies (first instruction arrival to last data delivery). They
	// are per channel: a MultiChannel does not merge them and reports 0.
	OpP50, OpP99 sim.Cycle
	// Energy is the priced run.
	Energy energy.Breakdown
	// ColdLookups counts gathers served by the flash cold tier (zero on
	// systems without one); ColdPageReads/ColdPageHits are the tier's
	// device page-buffer counters and ColdCycles its batch latency
	// component (overlapped with the DRAM phase, so Cycles is the max of
	// the two, not the sum).
	ColdLookups, ColdPageReads, ColdPageHits int64
	ColdCycles                               sim.Cycle
}

// opPercentiles extracts the P50/P99 op latencies from a drain result.
func opPercentiles(res memctrl.Result) (p50, p99 sim.Cycle) {
	if len(res.OpLatency) == 0 {
		return 0, 0
	}
	xs := make([]float64, len(res.OpLatency))
	for i, v := range res.OpLatency {
		xs[i] = float64(v)
	}
	return sim.Cycle(stats.Percentile(xs, 50)), sim.Cycle(stats.Percentile(xs, 99))
}

// System is one architecture under evaluation.
type System interface {
	// Name identifies the architecture ("cpu", "tensordimm", ...).
	Name() string
	// Run executes one batch through the timing model.
	Run(b trace.Batch) (*RunStats, error)
}

// ChannelSpec configures one simulated memory channel.
type ChannelSpec struct {
	Geo    dram.Geometry
	Tm     dram.Timing
	Mode   dram.InstrMode
	Policy memctrl.Policy
	// SALPBanks lists flat bank indices to make subarray-parallel.
	SALPBanks []int
	// OpWindow caps concurrently in-flight embedding ops (0 = unlimited).
	// NMP designs track in-flight ops with the 1-bit batchTag (§4.2), so
	// only a handful of ops overlap; the CPU baseline overlaps one op per
	// core.
	OpWindow int
	// Reference selects the O(banks)-scan memctrl.Reference scheduler
	// instead of the fast arbiter. The two are bit-identical (the memctrl
	// differential fuzzer enforces it); this knob exists for benchmarking
	// and for pinning down a divergence should one ever appear.
	Reference bool
}

// NMPOpWindow is the op concurrency the NMP dispatch pipeline sustains:
// the 1-bit batchTag allows two open ops per PE, and the dispatcher's
// queue lets a further pair stream in behind them.
const NMPOpWindow = 4

// CPUOpWindow is one in-flight embedding op per core (Table 2: 16 cores).
const CPUOpWindow = 16

// ChannelSim owns a reusable channel + controller pair for one ChannelSpec:
// Run resets the channel timing state in place and drains through the
// retained scheduler, so steady-state batch runs reuse every piece of
// scheduler scratch (bank queues, node pool, heaps, op slices) instead of
// rebuilding them. Like the channel it wraps, a ChannelSim is single-
// goroutine — the documented System contract.
type ChannelSim struct {
	ch  *dram.Channel
	ctl *memctrl.Controller
	ref *memctrl.Reference
}

// NewChannelSim builds the channel and scheduler for spec.
func NewChannelSim(spec ChannelSpec) (*ChannelSim, error) {
	ch, err := dram.NewChannel(spec.Geo, spec.Tm, spec.Mode)
	if err != nil {
		return nil, err
	}
	for _, fb := range spec.SALPBanks {
		if fb < 0 || fb >= spec.Geo.TotalBanks() {
			return nil, fmt.Errorf("arch: SALP bank %d out of range", fb)
		}
		ch.EnableSALP(fb)
	}
	s := &ChannelSim{ch: ch}
	if spec.Reference {
		r, err := memctrl.NewReference(ch, spec.Policy, memctrl.DefaultWindow)
		if err != nil {
			return nil, err
		}
		r.OpWindowLimit = spec.OpWindow
		s.ref = r
	} else {
		c, err := memctrl.New(ch, spec.Policy, memctrl.DefaultWindow)
		if err != nil {
			return nil, err
		}
		c.OpWindowLimit = spec.OpWindow
		s.ctl = c
	}
	return s, nil
}

// Run resets the channel, drains reqs, and then streams resultBursts of
// reduced results back over the channel DQ. It returns the end-to-end
// finish time, a copy of the channel's event counters, and the drain
// result, whose Done slice is scheduler scratch valid only until the next
// Run.
func (s *ChannelSim) Run(reqs []memctrl.Request, resultBursts int) (sim.Cycle, dram.Stats, memctrl.Result, error) {
	s.ch.Reset()
	var res memctrl.Result
	var err error
	if s.ref != nil {
		res, err = s.ref.Drain(reqs)
	} else {
		res, err = s.ctl.Drain(reqs)
	}
	if err != nil {
		return 0, dram.Stats{}, memctrl.Result{}, err
	}
	finish := res.Finish
	if resultBursts > 0 {
		finish = s.ch.StreamResults(resultBursts, finish)
	}
	return finish, s.ch.St, res, nil
}

// Bursts returns the RD bursts per vector of vecLen FP32 elements, at least
// one.
func Bursts(geo dram.Geometry, vecLen int) int {
	return BurstsBytes(geo, vecLen*4)
}

// BurstsBytes returns the RD bursts covering rowBytes bytes, at least one —
// the quantized-storage analogue of Bursts, for vectors stored in an
// encoded row format smaller than fp32.
func BurstsBytes(geo dram.Geometry, rowBytes int) int {
	b := (rowBytes + geo.BurstBytes - 1) / geo.BurstBytes
	if b < 1 {
		b = 1
	}
	return b
}

// Stripe maps a region-local vector slot onto the region's banks:
// consecutive slots round-robin across the banks (spreading load), then
// fill each bank row by row. bursts is the vector's burst count; vectors
// never straddle rows.
func Stripe(geo dram.Geometry, banks []int, slot int64, bursts int) (dram.Loc, error) {
	if len(banks) == 0 {
		return dram.Loc{}, fmt.Errorf("arch: empty bank set")
	}
	if bursts <= 0 || bursts > geo.ColumnsPerRow() {
		return dram.Loc{}, fmt.Errorf("arch: %d bursts per vector out of range", bursts)
	}
	vecPerRow := geo.ColumnsPerRow() / bursts
	n := int64(len(banks))
	bank := banks[slot%n]
	within := slot / n
	row := int(within / int64(vecPerRow))
	col := int(within%int64(vecPerRow)) * bursts
	if row >= geo.RowsPerBank() {
		return dram.Loc{}, fmt.Errorf("arch: slot %d exceeds capacity of %d banks", slot, len(banks))
	}
	// Interleave logical rows across subarrays so consecutive rows (the
	// hot head, placed densely) land in different subarrays — without
	// this, rows 0..RowsPerSubarray-1 would all share subarray 0 and
	// serialize at tRC even in a SALP bank.
	row = (row%geo.Subarrays)*geo.RowsPerSubarray + row/geo.Subarrays
	r, bg, bk := geo.BankLoc(bank)
	return dram.Loc{Rank: r, BG: bg, Bank: bk, Row: row, Col: col}, nil
}

// instrCycles returns the instruction-feed cycles per vector lookup, used
// to stagger request arrivals — the §4.2 bottleneck. One 82-bit NMP
// instruction covers a whole vector whatever its length (the vsize field
// drives the local command expansion): 1 cycle over the 94 two-stage pins,
// 6 cycles over the bare 14-pin C/A. For the conventional host, cores
// inject requests at roughly one every other cycle.
func instrCycles(mode dram.InstrMode) sim.Cycle {
	if mode == dram.Conventional {
		return 2
	}
	return mode.InstrFeedCycles()
}

// reduceOps estimates the PE arithmetic of a run: one FP32 multiply and add
// per element gathered (weighted sum), plus merge adds for partial-result
// folding.
func reduceOps(lookups, psumFolds int64, vecLen int) nmp.OpStats {
	return nmp.OpStats{
		Adds:  (lookups + psumFolds) * int64(vecLen),
		Mults: lookups * int64(vecLen),
	}
}

// deduper merges duplicate indices within one embedding operation, summing
// their weights — the encoder-side memoization rank-NMP designs apply:
// gathering row X twice with weights w1 and w2 equals gathering it once
// with w1+w2, so only one DRAM read is issued. Sharp production skews make
// this very effective on the head of the distribution. The result is used
// for request generation (timing); for Sum/Max ops the merged weights are
// ignored, and deduplication is exact for those operators too. The
// returned op's Indices and Weights alias the deduper's buffers, valid
// until the next dedup call.
type deduper struct {
	seen map[int64]int
	idx  []int64
	wts  []float32
}

// dedup merges op's duplicate indices, without allocating in steady state.
func (d *deduper) dedup(op trace.Op) trace.Op {
	if d.seen == nil {
		d.seen = make(map[int64]int, len(op.Indices))
	}
	clear(d.seen)
	d.idx = d.idx[:0]
	d.wts = d.wts[:0]
	for k, idx := range op.Indices {
		if j, ok := d.seen[idx]; ok {
			d.wts[j] += op.Weights[k]
			continue
		}
		d.seen[idx] = len(d.idx)
		d.idx = append(d.idx, idx)
		d.wts = append(d.wts, op.Weights[k])
	}
	return trace.Op{Table: op.Table, Indices: d.idx, Weights: d.wts}
}

// CountBatch returns the total lookups and ops in a batch.
func CountBatch(b trace.Batch) (lookups, ops int64) {
	for _, s := range b {
		for _, op := range s {
			ops++
			lookups += int64(len(op.Indices))
		}
	}
	return lookups, ops
}
