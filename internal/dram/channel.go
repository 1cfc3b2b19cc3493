package dram

import (
	"fmt"

	"recross/internal/nmp"
	"recross/internal/sim"
)

// Consumer says where the data of an RD burst is consumed. The consumer
// determines which data-path resources the burst occupies — the further the
// data travels up the DRAM tree, the more serialisation it suffers, which is
// exactly why finer-grained NMP buys internal bandwidth (paper §2.3).
type Consumer int

const (
	// ToHost moves the burst all the way over the channel DQ bus.
	ToHost Consumer = iota
	// ToRankPE stops at the rank-level PE in the DIMM buffer
	// (TensorDIMM / RecNMP / ReCross R-region).
	ToRankPE
	// ToBankGroupPE stops at a bank-group-level PE inside the DRAM chip
	// (TRiM-G / ReCross G-region).
	ToBankGroupPE
	// ToBankPE stops at a bank-level PE (TRiM-B / ReCross B-region).
	ToBankPE
)

func (c Consumer) String() string {
	switch c {
	case ToHost:
		return "host"
	case ToRankPE:
		return "rank-pe"
	case ToBankGroupPE:
		return "bankgroup-pe"
	case ToBankPE:
		return "bank-pe"
	default:
		return fmt.Sprintf("consumer(%d)", int(c))
	}
}

// InstrMode selects how commands reach the devices (paper §4.2).
type InstrMode int

const (
	// Conventional DDR command encoding on the 14-bit C/A bus.
	Conventional InstrMode = iota
	// NMPTwoStage streams 82-bit NMP instructions over C/A + idle DQ pins
	// (94 pins => one instruction per cycle), the ReCross/TRiM scheme.
	NMPTwoStage
	// NMPCAOnly streams 82-bit NMP instructions over the 14 C/A pins alone
	// (six cycles per instruction) — the strawman the two-stage scheme
	// fixes; kept for the ablation.
	NMPCAOnly
)

const (
	// NMPInstrBits is the paper's compressed instruction width (§4.2),
	// the width nmp's codec packs.
	NMPInstrBits = nmp.InstrBits
	// CAPins and DQPins are the DDR5 pin budgets used for instr transfer.
	CAPins = 14
	DQPins = 80
)

// instrSlots returns the host command-bus cycles one DRAM command occupies.
// In the NMP modes a single 82-bit instruction per *vector* crosses the
// host C/A (and, two-stage, the idle DQ pins); the PE's NMP-inst decoder
// expands it into ACT/RD/PRE locally (§4.2), so individual commands cost
// nothing on the host bus — the per-vector instruction feed is modelled as
// request arrival spacing (see arch.InstrCycles).
func (m InstrMode) instrSlots(tm *Timing, kind cmdKind) sim.Cycle {
	if m != Conventional {
		return 0
	}
	switch kind {
	case cmdACT:
		return tm.ActSlots
	case cmdPRE:
		return tm.PreSlots
	default:
		return tm.RdSlots
	}
}

// InstrFeedCycles returns the C/A-transfer cycles of one 82-bit NMP
// instruction in this mode: ceil(82/94) two-stage, ceil(82/14) C/A-only.
func (m InstrMode) InstrFeedCycles() sim.Cycle {
	switch m {
	case NMPTwoStage:
		return (NMPInstrBits + CAPins + DQPins - 1) / (CAPins + DQPins)
	case NMPCAOnly:
		return (NMPInstrBits + CAPins - 1) / CAPins
	default:
		return 0
	}
}

type cmdKind int

const (
	cmdACT cmdKind = iota
	cmdRD
	cmdPRE
	cmdWR
)

const noRow = -1

// bankState tracks one bank. For conventional banks only the global
// row-buffer fields are used; SALP banks additionally keep per-subarray
// local row buffers (Kim et al., ISCA'12) so that multiple rows can be
// activated concurrently, with the global bitlines handed from subarray to
// subarray under the tRA constraint.
type bankState struct {
	salp bool

	// Global row buffer (conventional banks): the single open row.
	openRow int

	lastACT sim.Cycle // most recent ACT in this bank (any subarray)
	lastRD  sim.Cycle // most recent RD in this bank

	// Write state: when the last write's data finished (tWR gates the
	// following precharge; tWTR gates same-rank reads).
	lastWREnd sim.Cycle

	// SALP state (allocated lazily).
	subOpenRow []int       // per-subarray open local row
	subLastACT []sim.Cycle // per-subarray ACT time (tRC within a subarray)
	subLastRD  []sim.Cycle
	lastRDSub  int // subarray of the most recent RD (tRA handover)
}

// Stats aggregates the event counts the energy model and the experiment
// harness consume.
type Stats struct {
	ACTs int64
	PREs int64
	RDs  int64
	WRs  int64

	// Bursts by consumer level; each burst is Geometry.BurstBytes.
	BurstsToHost   int64
	BurstsToRank   int64
	BurstsToBG     int64
	BurstsToBank   int64
	HostResultTx   int64 // result-vector bursts written back over channel DQ
	SubarraySwitch int64 // global-bitline handovers in SALP banks
}

// CmdEvent is one recorded DRAM command, for timeline visualisation
// (the Fig. 6 reproduction).
type CmdEvent struct {
	At   sim.Cycle
	Kind string // "ACT", "RD", "PRE"
	Loc  Loc
	// Done is the data-delivery completion for RD events (0 otherwise).
	Done sim.Cycle
}

// Channel is the timing state machine for one memory channel.
type Channel struct {
	Geo  Geometry
	Tm   Timing
	Mode InstrMode

	// Record enables command-event tracing into Trace.
	Record bool
	Trace  []CmdEvent

	banks []bankState

	bgLastACT []sim.Cycle // per flat bank group
	bgLastRD  []sim.Cycle

	rankLastACT []sim.Cycle
	rankLastRD  []sim.Cycle
	rankLastWR  []sim.Cycle    // end of last write data per rank (tWTR)
	rankACTHist [][4]sim.Cycle // ring of last four ACT times per rank (tFAW)
	rankACTPos  []int

	cmdBusFree sim.Cycle
	lastHostRD sim.Cycle

	// Timing-edge epochs: revision counters bumped whenever the timing
	// state of the corresponding scope moves in a way that can push a
	// *future* command's earliest issue time. The memory controller's fast
	// arbiter caches Earliest* results and uses these to re-check
	// staleness in O(1) instead of recomputing every candidate on every
	// pick (see internal/memctrl).
	epCh   uint32
	epRank []uint32
	epBG   []uint32
	epBank []uint32

	St Stats
}

// EpochStamp captures the revision counters of every timing-state scope
// that can affect a command's earliest issue time at one location: the
// channel-global edges (command bus, host DQ), the rank edges (tRRD_S,
// tFAW, tCCD_S, tWTR), the bank-group edges (tRRD_L, tCCD_L) and the
// bank-local edges. If a stamp taken when an Earliest* query was computed
// still equals the current stamp, the cached answer is exact.
type EpochStamp struct {
	Ch, Rank, BG, Bank uint32
}

// EpochOf returns the current timing-edge stamp for l's scopes.
func (c *Channel) EpochOf(l Loc) EpochStamp {
	return EpochStamp{
		Ch:   c.epCh,
		Rank: c.epRank[l.Rank],
		BG:   c.epBG[c.flatBG(l)],
		Bank: c.epBank[c.flatBank(l)],
	}
}

// flatBank, flatBG and subarray are the Geometry index maps for the
// per-command timing queries, reading only the fields they need through
// the channel pointer instead of taking the Geometry by value.
func (c *Channel) flatBank(l Loc) int {
	return (l.Rank*c.Geo.BankGroups+l.BG)*c.Geo.Banks + l.Bank
}

func (c *Channel) flatBG(l Loc) int { return l.Rank*c.Geo.BankGroups + l.BG }

func (c *Channel) subarray(row int) int { return row / c.Geo.RowsPerSubarray }

// NewChannel builds a channel with every bank conventional. Use EnableSALP
// to mark B-region banks subarray-parallel.
func NewChannel(geo Geometry, tm Timing, mode InstrMode) (*Channel, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if err := tm.Validate(); err != nil {
		return nil, err
	}
	nb := geo.TotalBanks()
	c := &Channel{
		Geo:         geo,
		Tm:          tm,
		Mode:        mode,
		banks:       make([]bankState, nb),
		bgLastACT:   make([]sim.Cycle, geo.Ranks*geo.BankGroups),
		bgLastRD:    make([]sim.Cycle, geo.Ranks*geo.BankGroups),
		rankLastACT: make([]sim.Cycle, geo.Ranks),
		rankLastRD:  make([]sim.Cycle, geo.Ranks),
		rankLastWR:  make([]sim.Cycle, geo.Ranks),
		rankACTHist: make([][4]sim.Cycle, geo.Ranks),
		rankACTPos:  make([]int, geo.Ranks),
		epRank:      make([]uint32, geo.Ranks),
		epBG:        make([]uint32, geo.Ranks*geo.BankGroups),
		epBank:      make([]uint32, nb),
	}
	c.Reset()
	return c, nil
}

// Reset clears all timing and statistics state in place, reusing every
// allocation, so the channel can run another independent batch. The SALP
// configuration (EnableSALP) is retained; command recording stays enabled
// but the trace is truncated. A reset channel is indistinguishable (to
// callers) from a freshly built one with the same SALP set.
func (c *Channel) Reset() {
	neg := sim.Cycle(-1 << 40)
	for i := range c.banks {
		b := &c.banks[i]
		b.openRow = noRow
		b.lastACT = neg
		b.lastRD = neg
		b.lastWREnd = neg
		b.lastRDSub = -1
		for s := range b.subOpenRow {
			b.subOpenRow[s] = noRow
			b.subLastACT[s] = neg
			b.subLastRD[s] = neg
		}
	}
	for i := range c.bgLastACT {
		c.bgLastACT[i] = neg
		c.bgLastRD[i] = neg
	}
	for r := range c.rankLastACT {
		c.rankLastACT[r] = neg
		c.rankLastRD[r] = neg
		c.rankLastWR[r] = neg
		for k := 0; k < 4; k++ {
			c.rankACTHist[r][k] = neg
		}
		c.rankACTPos[r] = 0
	}
	c.cmdBusFree = 0
	c.lastHostRD = neg
	c.Trace = c.Trace[:0]
	c.epCh = 0
	for i := range c.epRank {
		c.epRank[i] = 0
	}
	for i := range c.epBG {
		c.epBG[i] = 0
	}
	for i := range c.epBank {
		c.epBank[i] = 0
	}
	c.St = Stats{}
}

// EnableSALP marks the bank at flat index subarray-parallel.
func (c *Channel) EnableSALP(flatBank int) {
	b := &c.banks[flatBank]
	if b.salp {
		return
	}
	b.salp = true
	n := c.Geo.Subarrays
	b.subOpenRow = make([]int, n)
	b.subLastACT = make([]sim.Cycle, n)
	b.subLastRD = make([]sim.Cycle, n)
	neg := sim.Cycle(-1 << 40)
	for i := 0; i < n; i++ {
		b.subOpenRow[i] = noRow
		b.subLastACT[i] = neg
		b.subLastRD[i] = neg
	}
	c.epBank[flatBank]++
}

// IsSALP reports whether the bank at flat index is subarray-parallel.
func (c *Channel) IsSALP(flatBank int) bool { return c.banks[flatBank].salp }

// RowOpen reports whether an RD to l would hit an open row buffer: the
// global row buffer for conventional banks, or the target subarray's local
// row buffer for SALP banks.
func (c *Channel) RowOpen(l Loc) bool {
	b := &c.banks[c.flatBank(l)]
	if b.salp {
		return b.subOpenRow[c.subarray(l.Row)] == l.Row
	}
	return b.openRow == l.Row
}

// OpenRowAt returns the row currently open for the subarray containing
// l.Row (SALP) or the bank's global row buffer, and whether any row is open.
func (c *Channel) OpenRowAt(l Loc) (int, bool) {
	b := &c.banks[c.flatBank(l)]
	if b.salp {
		r := b.subOpenRow[c.subarray(l.Row)]
		return r, r != noRow
	}
	return b.openRow, b.openRow != noRow
}

// afterRefresh pushes t past any all-bank refresh window of the rank:
// every tREFI cycles the rank is unavailable for tRFC (approximation: the
// issue point is gated; rows staying open across a refresh are tolerated).
func (c *Channel) afterRefresh(t sim.Cycle) sim.Cycle {
	if c.Tm.TREFI == 0 || t < 0 {
		return t
	}
	start := (t / c.Tm.TREFI) * c.Tm.TREFI
	if t < start+c.Tm.TRFC {
		return start + c.Tm.TRFC
	}
	return t
}

// fawReady returns the earliest time a new ACT satisfies tFAW in the rank.
func (c *Channel) fawReady(rank int) sim.Cycle {
	oldest := c.rankACTHist[rank][c.rankACTPos[rank]]
	return oldest + c.Tm.TFAW
}

func (c *Channel) noteACT(rank int, t sim.Cycle) {
	c.rankACTHist[rank][c.rankACTPos[rank]] = t
	c.rankACTPos[rank] = (c.rankACTPos[rank] + 1) % 4
	c.rankLastACT[rank] = t
}

// EarliestACT returns the earliest cycle >= now at which the row at l could
// be activated, including any precharge the open-page policy must issue
// first. It does not mutate state.
func (c *Channel) EarliestACT(l Loc, now sim.Cycle) sim.Cycle {
	b := &c.banks[c.flatBank(l)]
	tm := &c.Tm
	t := now

	// Row conflicts pay an implicit precharge. The PRE is modelled as
	// issued eagerly at its earliest legal time — as soon as the bank's
	// pending work makes the conflict known — rather than at the global
	// decision instant, so precharges on different banks overlap (as they
	// do in a per-cycle controller).
	if b.salp {
		s := c.subarray(l.Row)
		if b.subOpenRow[s] != noRow && b.subOpenRow[s] != l.Row {
			pre := max(b.subLastACT[s]+tm.TRAS, b.subLastRD[s]+tm.TRTP, b.lastWREnd+tm.TWR)
			t = max(t, pre+tm.TRP)
		}
		// tRC within the subarray; inter-subarray ACTs in the same bank are
		// spaced like sibling-bank ACTs in the same group.
		t = max(t, b.subLastACT[s]+tm.TRC, b.lastACT+tm.TRRDL)
	} else {
		if b.openRow != noRow && b.openRow != l.Row {
			pre := max(b.lastACT+tm.TRAS, b.lastRD+tm.TRTP, b.lastWREnd+tm.TWR)
			t = max(t, pre+tm.TRP)
		}
		t = max(t, b.lastACT+tm.TRC)
	}

	t = max(t,
		c.bgLastACT[c.flatBG(l)]+tm.TRRDL,
		c.rankLastACT[l.Rank]+tm.TRRDS,
		c.fawReady(l.Rank),
		c.cmdBusFree)
	return c.afterRefresh(t)
}

// IssueACT activates the row at l, issuing an implicit PRE first when the
// open-page policy requires one. It returns the ACT issue time (>= now).
func (c *Channel) IssueACT(l Loc, now sim.Cycle) sim.Cycle {
	t := c.EarliestACT(l, now)
	fb := c.flatBank(l)
	b := &c.banks[fb]

	pred := false
	if b.salp {
		s := c.subarray(l.Row)
		if b.subOpenRow[s] != noRow && b.subOpenRow[s] != l.Row {
			c.St.PREs++
			pred = true
		}
		b.subOpenRow[s] = l.Row
		b.subLastACT[s] = t
	} else {
		if b.openRow != noRow && b.openRow != l.Row {
			c.St.PREs++
			pred = true
		}
		b.openRow = l.Row
	}
	b.lastACT = t

	fbg := c.flatBG(l)
	c.bgLastACT[fbg] = t
	c.noteACT(l.Rank, t)
	c.cmdBusFree = t + c.Mode.instrSlots(&c.Tm, cmdACT)
	if pred {
		// The implicit PRE also consumed a command-bus slot.
		c.cmdBusFree += c.Mode.instrSlots(&c.Tm, cmdPRE)
	}
	// Timing edges moved: the bank's row/ACT state, the group's tRRD_L
	// window, the rank's tRRD_S/tFAW window, and (only when commands cost
	// host C/A slots) the shared command bus. With zero-slot NMP modes
	// cmdBusFree equals the issue time, which can never gate a later pick.
	c.epBank[fb]++
	c.epBG[fbg]++
	c.epRank[l.Rank]++
	if c.cmdBusFree > t {
		c.epCh++
	}
	if c.Record {
		if pred {
			pre := t - c.Tm.TRP
			c.Trace = append(c.Trace, CmdEvent{At: pre, Kind: "PRE", Loc: l})
		}
		c.Trace = append(c.Trace, CmdEvent{At: t, Kind: "ACT", Loc: l})
	}
	c.St.ACTs++
	return t
}

// EarliestRD returns the earliest cycle >= now at which an RD for l could
// issue, assuming the target row is open (callers check RowOpen first).
// The consumer determines the data-path serialisation.
func (c *Channel) EarliestRD(l Loc, consumer Consumer, now sim.Cycle) sim.Cycle {
	b := &c.banks[c.flatBank(l)]
	tm := &c.Tm
	// Write-to-read turnaround within the rank.
	t := max(now, c.cmdBusFree, c.rankLastWR[l.Rank]+tm.TWTR)

	if b.salp {
		s := c.subarray(l.Row)
		t = max(t, b.subLastACT[s]+tm.TRCD)
		if b.lastRDSub >= 0 && b.lastRDSub != s {
			// Global-bitline handover between subarrays: tRA.
			t = max(t, b.lastRD+tm.TRA)
		} else {
			t = max(t, b.lastRD+tm.TCCDL)
		}
	} else {
		t = max(t, b.lastACT+tm.TRCD, b.lastRD+tm.TCCDL)
	}

	switch consumer {
	case ToBankPE:
		// Data stays at the bank; no further serialisation.
	case ToBankGroupPE:
		t = max(t, c.bgLastRD[c.flatBG(l)]+tm.TCCDL)
	case ToRankPE:
		t = max(t, c.bgLastRD[c.flatBG(l)]+tm.TCCDL,
			c.rankLastRD[l.Rank]+tm.TCCDS)
	case ToHost:
		t = max(t, c.bgLastRD[c.flatBG(l)]+tm.TCCDL,
			c.rankLastRD[l.Rank]+tm.TCCDS,
			c.lastHostRD+tm.TBL)
	}
	return c.afterRefresh(t)
}

// IssueRD issues an RD burst at l for the given consumer. It returns the
// command issue time and the cycle at which the burst's data is fully
// delivered (issue + tCL + tBL).
func (c *Channel) IssueRD(l Loc, consumer Consumer, now sim.Cycle) (issue, done sim.Cycle) {
	t := c.EarliestRD(l, consumer, now)
	fb := c.flatBank(l)
	b := &c.banks[fb]

	if b.salp {
		s := c.subarray(l.Row)
		if b.lastRDSub >= 0 && b.lastRDSub != s {
			c.St.SubarraySwitch++
		}
		b.subLastRD[s] = t
		b.lastRDSub = s
	}
	b.lastRD = t

	fbg := c.flatBG(l)
	switch consumer {
	case ToBankPE:
		c.St.BurstsToBank++
	case ToBankGroupPE:
		c.bgLastRD[fbg] = t
		c.St.BurstsToBG++
	case ToRankPE:
		c.bgLastRD[fbg] = t
		c.rankLastRD[l.Rank] = t
		c.St.BurstsToRank++
	case ToHost:
		c.bgLastRD[fbg] = t
		c.rankLastRD[l.Rank] = t
		c.lastHostRD = t
		c.St.BurstsToHost++
	}

	c.cmdBusFree = t + c.Mode.instrSlots(&c.Tm, cmdRD)
	// Timing edges moved: the bank always; the group/rank/host paths only
	// when the burst traveled that far up the tree (the consumer switch
	// above mirrors exactly which last-RD trackers were written).
	c.epBank[fb]++
	switch consumer {
	case ToBankGroupPE:
		c.epBG[fbg]++
	case ToRankPE:
		c.epBG[fbg]++
		c.epRank[l.Rank]++
	case ToHost:
		c.epBG[fbg]++
		c.epRank[l.Rank]++
		c.epCh++
	}
	if c.cmdBusFree > t {
		c.epCh++
	}
	c.St.RDs++
	done = t + c.Tm.TCL + c.Tm.TBL
	if c.Record {
		c.Trace = append(c.Trace, CmdEvent{At: t, Kind: "RD", Loc: l, Done: done})
	}
	return t, done
}

// EarliestWR returns the earliest cycle >= now at which a WR burst for l
// could issue (host-sourced embedding updates; the row must be open).
func (c *Channel) EarliestWR(l Loc, now sim.Cycle) sim.Cycle {
	b := &c.banks[c.flatBank(l)]
	tm := &c.Tm
	t := now
	if b.salp {
		t = max(t, b.subLastACT[c.subarray(l.Row)]+tm.TRCD)
	} else {
		t = max(t, b.lastACT+tm.TRCD)
	}
	// Column cadence with preceding reads/writes on the bank and the
	// shared paths; write data arrives over the channel DQ.
	t = max(t, c.cmdBusFree, b.lastRD+tm.TCCDL, b.lastWREnd-tm.TBL+tm.TCCDL,
		c.bgLastRD[c.flatBG(l)]+tm.TCCDL,
		c.rankLastRD[l.Rank]+tm.TCCDS,
		c.lastHostRD+tm.TBL)
	return c.afterRefresh(t)
}

// WRFloor returns a lower bound on EarliestWR(l, at) for every l and every
// at >= now: the channel-wide edges every write waits on (the command bus
// and the DQ burst of the last host transfer), past any refresh window.
func (c *Channel) WRFloor(now sim.Cycle) sim.Cycle {
	return c.afterRefresh(max(now, c.cmdBusFree, c.lastHostRD+c.Tm.TBL))
}

// IssueWR issues a write burst at l (embedding updates flow from the host;
// NMP PEs never write). It returns the command issue time and the cycle at
// which the write data has fully arrived.
func (c *Channel) IssueWR(l Loc, now sim.Cycle) (issue, done sim.Cycle) {
	t := c.EarliestWR(l, now)
	fb := c.flatBank(l)
	b := &c.banks[fb]
	done = t + c.Tm.TCL + c.Tm.TBL
	b.lastWREnd = done
	c.rankLastWR[l.Rank] = done
	c.lastHostRD = t // occupies the channel DQ like a host burst
	c.cmdBusFree = t + c.Mode.instrSlots(&c.Tm, cmdWR)
	// Timing edges moved: bank write state, rank tWTR window, host DQ.
	c.epBank[fb]++
	c.epRank[l.Rank]++
	c.epCh++
	c.St.WRs++
	if c.Record {
		c.Trace = append(c.Trace, CmdEvent{At: t, Kind: "WR", Loc: l, Done: done})
	}
	return t, done
}

// StreamResults models per-operation result write-backs that OVERLAP the
// NMP drain: PEs release each op's reduced vector as its lastTag arrives
// (§4.2), and the channel DQ is otherwise idle during NMP processing. The
// batch finishes when both the drain and the cumulative DQ result traffic
// are done.
func (c *Channel) StreamResults(nBursts int, drainFinish sim.Cycle) sim.Cycle {
	c.St.HostResultTx += int64(nBursts)
	txTime := sim.Cycle(nBursts) * c.Tm.TBL
	// The final op's result can only leave after the drain completes.
	finish := max(drainFinish, txTime)
	c.lastHostRD = finish
	c.epCh++
	return finish
}
