package arch

import (
	"recross/internal/dram"
	"recross/internal/energy"
	"recross/internal/memctrl"
	"recross/internal/sim"
	"recross/internal/stats"
	"recross/internal/trace"
)

// Pass is one system's gather pass: the per-batch work every simulated
// architecture shares. An architecture says only where each lookup lands —
// Read for a DRAM gather, Hit for a cache, nothing for a lookup served off
// the channel (ReCross's flash tier) — and the pass owns the rest: within-op
// dedup, instruction-feed arrival stamping, the per-op touched banks, bank
// groups and ranks, the §3.3 bus charges, the drain on a retained
// ChannelSim, and the RunStats epilogue. Like the System that owns it, a
// Pass is single-goroutine, and its scratch is reused across batches.
type Pass struct {
	// Counts are the current batch's tallies, valid from Gather until the
	// next Gather.
	Counts

	geo        dram.Geometry
	tm         dram.Timing
	energy     energy.Params
	vecLen     int
	psumBursts int
	instr      sim.Cycle
	ch         *ChannelSim
	dedup      deduper

	reqs []memctrl.Request
	// seq counts the lookups that issued a request: the instruction feed's
	// clock, one instruction per vector.
	seq int64
	// epoch numbers ops across the pass's lifetime; a node's mark equal to
	// it means the current op already touched that node.
	epoch                      uint64
	rankMark, bgMark, bankMark []uint64
	// loads holds, per consumer, the gather bursts each node consumed: per
	// rank for ToHost and ToRankPE, per flat bank group for ToBankGroupPE,
	// per flat bank for ToBankPE.
	loads [4][]int64
	// gatingPsums and dqPsums are the psum bursts crossing each bank
	// group's local I/O gating and each rank's chip DQ.
	gatingPsums, dqPsums []int64
}

// Counts are a batch's tallies.
type Counts struct {
	// Lookups counts gathered vectors after within-op dedup; Hits counts
	// those a cache absorbed.
	Lookups, Hits int64
	// Ops counts embedding operations. DRAMOps counts those with at least
	// one DRAM gather, OffOps those with at least one lookup served off the
	// channel (neither read nor hit).
	Ops, DRAMOps, OffOps int64
	// RankPsums, BGPsums and BankPsums sum, over ops, the rank, bank-group
	// and bank PEs each op touched: the partial sums those PEs flush.
	RankPsums, BGPsums, BankPsums int64
}

// Tally is what an architecture adds to the pass's accounting when it
// finishes a batch.
type Tally struct {
	// ResultBursts are the reduced results streamed back over the channel
	// DQ after the drain.
	ResultBursts int
	// PsumFolds counts the partial-sum merges priced by the PE arithmetic.
	PsumFolds int64
	// NodeLoads are the per-PE-node busy proxies behind Imbalance; they may
	// alias scratch (Finish copies them).
	NodeLoads []int64
	// CacheNano prices each cache hit in nanojoules.
	CacheNano float64
	// ColdCycles is an off-channel phase that overlaps the drain (the flash
	// tier): the batch finishes at the later of the two.
	ColdCycles sim.Cycle
}

// NewPass builds the pass and its retained channel for spec, pricing energy
// with e, for vectors of vecLen fp32 elements.
func NewPass(spec ChannelSpec, e energy.Params, vecLen int) (*Pass, error) {
	ch, err := NewChannelSim(spec)
	if err != nil {
		return nil, err
	}
	geo := spec.Geo
	groups := geo.Ranks * geo.BankGroups
	p := &Pass{
		geo: geo, tm: spec.Tm, energy: e, vecLen: vecLen,
		psumBursts:  Bursts(geo, vecLen),
		instr:       instrCycles(spec.Mode),
		ch:          ch,
		rankMark:    make([]uint64, geo.Ranks),
		bgMark:      make([]uint64, groups),
		bankMark:    make([]uint64, geo.TotalBanks()),
		gatingPsums: make([]int64, groups),
		dqPsums:     make([]int64, geo.Ranks),
	}
	p.loads[dram.ToHost] = make([]int64, geo.Ranks)
	p.loads[dram.ToRankPE] = make([]int64, geo.Ranks)
	p.loads[dram.ToBankGroupPE] = make([]int64, groups)
	p.loads[dram.ToBankPE] = make([]int64, geo.TotalBanks())
	return p, nil
}

// Gather runs a batch's lookups: land is called once per distinct index of
// every op, in batch order, and places that lookup by calling Read (once
// per DRAM gather it issues), Hit, or neither.
func (p *Pass) Gather(b trace.Batch, land func(table int, idx int64) error) error {
	p.Counts = Counts{}
	p.reqs = p.reqs[:0]
	p.seq = 0
	for _, l := range p.loads {
		clear(l)
	}
	clear(p.gatingPsums)
	clear(p.dqPsums)
	for _, s := range b {
		for _, op := range s {
			op = p.dedup.dedup(op)
			p.epoch++
			var read, off bool
			for _, idx := range op.Indices {
				p.Lookups++
				reqs, hits := len(p.reqs), p.Hits
				if err := land(op.Table, idx); err != nil {
					return err
				}
				switch {
				case len(p.reqs) > reqs:
					p.seq++
					read = true
				case p.Hits == hits:
					off = true
				}
			}
			if read {
				p.DRAMOps++
			}
			if off {
				p.OffOps++
			}
			p.Ops++
		}
	}
	return nil
}

// Read issues one DRAM gather for the lookup being placed: cols bursts at
// loc, consumed at c. A lookup's reads share its instruction's arrival.
//
// The gather and its op's partial sums are charged to the shared buses
// they cross (§3.3: "the accessed data must span bank, bank-group and rank
// to reach the memory controller"): a bank-group PE's gather crosses its
// group's gating, a rank PE's its rank's chip DQ; each bank PE an op
// touches flushes one fp32 psum over its group's gating, and each touched
// bank group one over its rank's chip DQ.
func (p *Pass) Read(loc dram.Loc, cols int, c dram.Consumer) {
	p.reqs = append(p.reqs, memctrl.Request{
		Loc: loc, Cols: cols, Consumer: c,
		Arrival: sim.Cycle(p.seq) * p.instr, Op: int32(p.Ops),
	})
	fbg := p.geo.FlatBG(loc)
	switch c {
	case dram.ToHost:
		p.loads[c][loc.Rank] += int64(cols)
	case dram.ToRankPE:
		p.loads[c][loc.Rank] += int64(cols)
		if p.first(p.rankMark, loc.Rank) {
			p.RankPsums++
		}
	case dram.ToBankPE:
		fb := p.geo.FlatBank(loc)
		p.loads[c][fb] += int64(cols)
		if p.first(p.bankMark, fb) {
			p.BankPsums++
			p.gatingPsums[fbg] += int64(p.psumBursts)
		}
		p.touchBG(fbg)
	case dram.ToBankGroupPE:
		p.loads[c][fbg] += int64(cols)
		p.touchBG(fbg)
	}
}

// touchBG marks bank group fbg touched by the current op.
func (p *Pass) touchBG(fbg int) {
	if p.first(p.bgMark, fbg) {
		p.BGPsums++
		p.dqPsums[fbg/p.geo.BankGroups] += int64(p.psumBursts)
	}
}

// first marks node i touched by the current op and reports whether it was
// not already.
func (p *Pass) first(marks []uint64, i int) bool {
	if marks[i] == p.epoch {
		return false
	}
	marks[i] = p.epoch
	return true
}

// Hit records that a cache absorbed the lookup being placed. rank is the
// rank whose PE holds the cache — the hit still touches that PE, which
// flushes a psum for the op — or -1 for a host-side cache.
func (p *Pass) Hit(rank int) {
	p.Hits++
	if rank >= 0 && p.first(p.rankMark, rank) {
		p.RankPsums++
	}
}

// Write appends one host-sourced update write (online training) of cols
// bursts at loc, after Gather. Writes depend on the forward results, so
// they arrive after every gather and share one op id past the last op —
// the controller's op-order invariant holds without sorting.
func (p *Pass) Write(loc dram.Loc, cols int) {
	p.reqs = append(p.reqs, memctrl.Request{
		Loc: loc, Cols: cols, Write: true,
		Arrival: sim.Cycle(p.seq) * p.instr, Op: int32(p.Ops),
	})
}

// Loads returns the gather bursts consumer c's nodes consumed this batch
// (per rank, flat bank group or flat bank). The slice is pass scratch,
// valid until the next Gather.
func (p *Pass) Loads(c dram.Consumer) []int64 { return p.loads[c] }

// Finish drains the batch, streams t.ResultBursts of results back, applies
// the bus floors and t.ColdCycles, and assembles the RunStats.
func (p *Pass) Finish(t Tally) (*RunStats, error) {
	finish, st, res, err := p.ch.Run(p.reqs, t.ResultBursts)
	if err != nil {
		return nil, err
	}
	finish = max(finish, p.busFloor(), t.ColdCycles)
	ops := reduceOps(p.Lookups, t.PsumFolds, p.vecLen)
	e := energy.Account(p.energy, st, ops, finish, p.geo.Ranks, p.geo.BurstBytes)
	e.Cache = energy.CacheEnergy(p.Hits, t.CacheNano)
	loads := append([]int64(nil), t.NodeLoads...)
	p50, p99 := opPercentiles(res)
	return &RunStats{
		Cycles:     finish,
		DRAM:       st,
		Ops:        ops,
		RowHits:    res.RowHits,
		RowMisses:  res.RowMisses,
		Lookups:    p.Lookups,
		CacheHits:  p.Hits,
		NodeLoads:  loads,
		Imbalance:  stats.ImbalanceRatio(loads),
		OpP50:      p50,
		OpP99:      p99,
		Energy:     e,
		ColdCycles: t.ColdCycles,
	}, nil
}

// busFloor is the earliest the batch can finish given the traffic on its
// shared collection buses. Collection pipelines with the gathers, so it
// costs nothing while a bus has slack — but no bus can move its bursts
// faster than one per tCCD_L (a bank group's gating) or tCCD_S (a rank's
// chip DQ). This is the cost cross-level NMP minimizes by reducing data
// promptly at every level.
func (p *Pass) busFloor() sim.Cycle {
	var floor sim.Cycle
	for fbg, psums := range p.gatingPsums {
		floor = max(floor, sim.Cycle(p.loads[dram.ToBankGroupPE][fbg]+psums)*p.tm.TCCDL)
	}
	for rank, psums := range p.dqPsums {
		floor = max(floor, sim.Cycle(p.loads[dram.ToRankPE][rank]+psums)*p.tm.TCCDS)
	}
	return floor
}
