// Package memctrl implements the host-side memory controller of the paper's
// Table 2: per-bank request queues drained by an FR-FCFS scheduler (Rixner
// et al., ISCA'00), plus the subarray-aware locality-aware scheduling (LAS)
// variant ReCross adds (§4.1): row-buffer hits first, then requests that
// activate an idle subarray, and only then requests that conflict with an
// open row.
//
// The controller is the single mutator of a dram.Channel: it picks, at every
// step, the highest-priority command that can issue at the earliest possible
// cycle, exactly emulating a per-cycle "issue the highest-priority ready
// command" loop but skipping idle cycles.
//
// Two implementations share that contract:
//
//   - Reference is the original scheduler: every pick scans all banks and
//     re-issues Earliest* timing queries for each candidate — O(banks) per
//     command. It is kept as the correctness oracle.
//   - Controller.Drain is the fast arbiter: per-bank candidates live in
//     lazy min-heaps keyed by earliest issue time (reads, write
//     activations, write columns), invalidated by the timing-edge epochs
//     dram.Channel exports; write columns at the channel's write floor
//     wait in a ready heap ordered by tie key — O(log banks) per command.
//
// The two are bit-identical: the differential fuzzer in this package
// asserts equal Result and dram.Stats over both policies, SALP on/off,
// writes, and op windows, so the optimization is invisible to every paper
// figure.
package memctrl

import (
	"fmt"

	"recross/internal/dram"
	"recross/internal/sim"
)

// Policy selects the scheduling algorithm.
type Policy int

const (
	// FRFCFS is first-ready, first-come-first-served: row hits first,
	// then oldest.
	FRFCFS Policy = iota
	// LAS is ReCross's locality-aware scheduling: row hits first, then
	// activations of idle subarrays (interleaving SALP accesses), then
	// row conflicts; oldest-first within a class.
	LAS
)

// Request asks for one embedding vector: Cols consecutive burst columns
// starting at Loc, delivered to Consumer. Vectors never straddle a DRAM row
// (the allocator aligns them, as production allocators do).
type Request struct {
	Loc      dram.Loc
	Cols     int
	Consumer dram.Consumer
	// Write marks a host-sourced embedding update (online training):
	// the columns are written rather than read.
	Write bool
	// Arrival is when the request (its NMP instruction or host command)
	// becomes visible to the controller.
	Arrival sim.Cycle
	// Op tags the embedding operation the vector belongs to, for stats.
	Op int32
}

// Result reports the outcome of draining a request list.
type Result struct {
	// Finish is the cycle the last data burst is fully delivered.
	Finish sim.Cycle
	// Done holds the per-request completion cycle, indexed as the input.
	// Controller.Drain backs it with controller scratch: it is valid only
	// until that controller's next Drain.
	Done []sim.Cycle
	// RowHits counts requests served entirely from open row buffers;
	// RowMisses counts requests that needed at least one activation.
	RowHits, RowMisses int64
	// OpLatency holds, per distinct Op tag in order of first appearance,
	// the span from the op's first request arrival to its last data
	// delivery — the per-operation serving latency.
	OpLatency []sim.Cycle
}

// Controller drains request lists through one DRAM channel using the fast
// event-driven arbiter (see the package comment; Reference is the scan
// oracle). Like the dram.Channel it mutates, a Controller is single-
// goroutine: Drain may not be called concurrently, and its scratch state
// is reused across calls so a steady-state drain allocates only the
// returned OpLatency.
type Controller struct {
	ch     *dram.Channel
	policy Policy
	window int

	// InflightLimit caps how many requests occupy the controller's
	// request queue simultaneously (Table 2: 64 entries). A slot frees
	// when its request's data is delivered; the next request is admitted
	// in arrival order. This is what couples load imbalance to latency:
	// a backlogged hot bank holds slots and starves the rest of the
	// channel — the §3.1 effect.
	InflightLimit int

	// OpWindowLimit caps how many embedding operations may be in flight
	// at once (0 = unlimited). The PEs track in-flight ops with the
	// 1-bit batchTag of the 82-bit instruction (§4.2), so only a couple
	// of ops can be open per PE; this window is what turns *per-op* load
	// imbalance (Fig. 4) into end-to-end slowdown — a hot node serving 5
	// of an op's lookups delays that op's completion and stalls the
	// window. Requests must be supplied in nondecreasing Op order.
	OpWindowLimit int

	// WriteHighWatermark controls write batching: writes are deferred
	// behind reads until this many are pending, then drained in a burst
	// down to WriteLowWatermark — the standard policy that amortizes the
	// tWTR read/write turnaround. Zero selects the defaults (16/2);
	// set WriteHighWatermark to 1 to interleave writes eagerly.
	WriteHighWatermark int
	WriteLowWatermark  int

	// Fast-arbiter scratch, reused across Drain calls under the
	// single-goroutine contract (see fast.go).
	fbanks []fastBank
	free   *fnode
	rheap  entryHeap // reads and their activations
	wheap  entryHeap // write columns above the write floor
	wact   entryHeap // write activations
	ready  entryHeap // write columns at the write floor, by tie key
	dirty  []int32
	opIdx  map[int32]int32 // op tag -> dense op index
	ops    []opState       // per dense op, in order of first appearance
	reqOp  []int32         // per request, its dense op index
	done   []sim.Cycle     // backs Result.Done
	rekeys int64           // popBest queries that moved a key, all drains

	// Reference-scheduler scratch (see reference.go).
	refWrites []refWCand
}

// DefaultWindow is the per-bank lookahead of the request queue.
const DefaultWindow = 16

// DefaultInflight is the controller queue depth of the paper's Table 2.
const DefaultInflight = 64

// New builds a controller over ch. window limits how deep into each bank's
// queue the scheduler searches for row hits (FR part of FR-FCFS).
func New(ch *dram.Channel, policy Policy, window int) (*Controller, error) {
	if ch == nil {
		return nil, fmt.Errorf("memctrl: nil channel")
	}
	if window <= 0 {
		return nil, fmt.Errorf("memctrl: window must be positive, got %d", window)
	}
	return &Controller{ch: ch, policy: policy, window: window, InflightLimit: DefaultInflight}, nil
}

// Drain issues every request and returns completion statistics. The input
// slice is not modified. Requests must be valid for the channel's geometry.
// The returned Done slice is controller scratch, overwritten by the next
// Drain.
func (c *Controller) Drain(reqs []Request) (Result, error) {
	return c.fastDrain(reqs)
}

// validate performs the request-list checks both schedulers share, so they
// reject a drain identically: geometry, column ranges, and the bounds the
// fast arbiter's packed heap keys rely on (bank count, arrival span).
// reqs must be non-empty.
func (c *Controller) validate(reqs []Request) error {
	geo := c.ch.Geo
	if nb := geo.TotalBanks(); nb >= maxBanks {
		return fmt.Errorf("memctrl: %d banks, the scheduler supports fewer than %d", nb, maxBanks)
	}
	lo, hi := reqs[0].Arrival, reqs[0].Arrival
	for i := range reqs {
		r := &reqs[i]
		if err := geo.CheckLoc(r.Loc); err != nil {
			return fmt.Errorf("memctrl: request %d: %w", i, err)
		}
		if r.Cols <= 0 || r.Loc.Col+r.Cols > geo.ColumnsPerRow() {
			return fmt.Errorf("memctrl: request %d: %d columns at col %d exceed the row", i, r.Cols, r.Loc.Col)
		}
		lo, hi = min(lo, r.Arrival), max(hi, r.Arrival)
	}
	if span := uint64(hi) - uint64(lo); span >= maxArrivalSpan {
		return fmt.Errorf("memctrl: request arrivals span %d cycles, the scheduler supports fewer than %d", span, uint64(maxArrivalSpan))
	}
	return nil
}
