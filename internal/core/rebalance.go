package core

import (
	"fmt"

	"recross/internal/arch"
	"recross/internal/dram"
	"recross/internal/energy"
	"recross/internal/memctrl"
	"recross/internal/partition"
	"recross/internal/sim"
	"recross/internal/trace"
)

// Rebalance implements the dynamic embedding scheduling of §4.5: when the
// access-frequency spectrum drifts (rarely-accessed rows becoming popular
// and vice versa), the host periodically re-profiles, re-solves the
// bandwidth-aware partitioning, and rebuilds the placement so newly-hot
// rows migrate into the high-parallelism B-region and cooled rows retire to
// the capacity-optimized R-region. The hardware regions are unchanged; only
// the mapping tables are rewritten.
//
// prof must describe the same model spec the instance was built with.
func (r *ReCross) Rebalance(prof *partition.Profile) error {
	if prof == nil {
		return fmt.Errorf("core: nil profile")
	}
	if err := r.checkProfile(prof); err != nil {
		return err
	}
	pl, err := r.solve(prof)
	if err != nil {
		return fmt.Errorf("core: rebalance: %w", err)
	}
	r.pl = pl
	return nil
}

// solve partitions prof across the instance's regions — the LP, or the
// crude greedy partitioner without BWP — and places the rows.
func (r *ReCross) solve(prof *partition.Profile) (*partition.Placement, error) {
	partitioner := partition.SolveLP
	if !r.cfg.BWP {
		partitioner = partition.Greedy
	}
	dec, err := partitioner(prof, r.Regions(), r.cfg.Batch)
	if err != nil {
		return nil, err
	}
	return partition.Build(prof, dec)
}

// Adopt installs a plan solved and built elsewhere: the online replanner
// (internal/adapt) ran the LP once, priced the migration, passed its
// hysteresis gate and built the placement, which every replica then
// shares read-only — re-solving per replica (as Rebalance does) could in
// principle land each replica on a different equal-objective vertex, and
// would waste a solve and a build per pool member. Only the mapping tables
// change; the hardware regions are fixed, so pl must have been solved
// against this instance's Regions().
//
// The caller must respect the System single-goroutine contract: Adopt
// swaps the placement the next Run reads, so it may only be called from
// the goroutine that owns the instance (the serving layer stages updates
// and applies them at batch boundaries for exactly this reason).
func (r *ReCross) Adopt(pl *partition.Placement) error {
	if pl == nil {
		return fmt.Errorf("core: nil placement")
	}
	if err := r.checkProfile(pl.Profile()); err != nil {
		return err
	}
	have, want := pl.Regions(), r.Regions()
	if len(have) != len(want) {
		return fmt.Errorf("core: placement has %d regions, want %d", len(have), len(want))
	}
	for j := range want {
		if have[j].CapBytes != want[j].CapBytes {
			return fmt.Errorf("core: placement region %q capacity %d != instance %d",
				have[j].Name, have[j].CapBytes, want[j].CapBytes)
		}
	}
	r.pl = pl
	return nil
}

// checkProfile verifies prof describes the spec this instance was built
// with (table count and shapes).
func (r *ReCross) checkProfile(prof *partition.Profile) error {
	if len(prof.Spec.Tables) != len(r.cfg.Spec.Tables) {
		return fmt.Errorf("core: profile covers %d tables, spec has %d",
			len(prof.Spec.Tables), len(r.cfg.Spec.Tables))
	}
	for i, t := range prof.Spec.Tables {
		have := r.cfg.Spec.Tables[i]
		if t.Rows != have.Rows || t.VecLen != have.VecLen {
			return fmt.Errorf("core: profile table %q shape %dx%d != spec %dx%d",
				t.Name, t.Rows, t.VecLen, have.Rows, have.VecLen)
		}
	}
	return nil
}

// RunTraining executes one online-training step (§4.5): the batch's
// embedding gathers run through the NMP hierarchy as in Run, and afterwards
// the host writes the updated embedding rows back — one write per distinct
// row the batch touched, to its mapped physical location. Update writes
// come from the host, occupy the channel DQ, and respect tWR/tWTR.
func (r *ReCross) RunTraining(b trace.Batch) (*arch.RunStats, error) {
	geo := r.geo
	scr := &r.scr
	reqs := scr.reqs[:0]
	var lookups int64
	var opID int32
	var seq int64
	instr := arch.InstrCycles(dram.NMPTwoStage, r.bursts)

	if scr.touchedRows == nil {
		scr.touchedRows = map[trainKey]bool{}
	}
	clear(scr.touchedRows)
	touched := scr.touchedRows
	// The map only dedups; write-backs are emitted in first-touch order so
	// a step's request stream (and so its cycle count) is deterministic.
	order := scr.touchedOrder[:0]
	// Cold rows gather (and write back) over the flash link, not the
	// channel; their slots are priced by the flash Sim after the drain.
	coldSlots := scr.coldSlots[:0]
	var coldOps int64
	for _, s := range b {
		for _, op := range s {
			op = r.dedup.Dedup(op)
			opCold := false
			for _, idx := range op.Indices {
				lookups++
				if k := (trainKey{op.Table, idx}); !touched[k] {
					touched[k] = true
					order = append(order, k)
				}
				region, slot := r.pl.Locate(op.Table, idx)
				if region == RegionCold {
					if r.coldSim == nil {
						return nil, fmt.Errorf("core: cold placement without a cold tier")
					}
					coldSlots = append(coldSlots, slot)
					opCold = true
					continue
				}
				loc, err := arch.Stripe(geo, r.regionBanks[region], slot, r.bursts)
				if err != nil {
					return nil, err
				}
				reqs = append(reqs, memctrl.Request{
					Loc: loc, Cols: r.bursts,
					Consumer: r.consumers[region],
					Arrival:  sim.Cycle(seq) * instr, Op: opID,
				})
				seq++
			}
			if opCold {
				coldOps++
			}
			opID++
		}
	}
	ops := int64(opID)
	// The gradient write-back phase: one write per distinct touched row,
	// dependent on the forward results, so it arrives after the gathers.
	writeArrival := sim.Cycle(seq) * instr
	writes := int64(0)
	scr.touchedOrder = order
	for _, k := range order {
		region, slot := r.pl.Locate(k.table, k.row)
		if region == RegionCold {
			// Update writes to flash rows ride the same page path as the
			// gathers; charge them as another slot touch.
			coldSlots = append(coldSlots, slot)
			continue
		}
		loc, err := arch.Stripe(geo, r.regionBanks[region], slot, r.bursts)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, memctrl.Request{
			Loc: loc, Cols: r.bursts, Write: true,
			Arrival: writeArrival, Op: opID,
		})
		writes++
	}
	scr.coldSlots = coldSlots
	// All writes share one op id and are appended after every read op, so
	// the controller's op-order invariant holds without sorting.
	scr.reqs = reqs

	finish, st, res, err := r.runChannel(reqs, int(ops)*r.bursts)
	if err != nil {
		return nil, err
	}
	var coldCycles sim.Cycle
	var coldReads, coldHits int64
	if len(coldSlots) > 0 {
		coldCycles, coldReads, coldHits = r.coldSim.Batch(coldSlots, int(coldOps))
		if coldCycles > finish {
			finish = coldCycles
		}
	}
	opsStats := arch.ReduceOps(lookups, ops*int64(geo.Ranks), r.vecLen)
	rs := &arch.RunStats{
		Cycles:        finish,
		DRAM:          st,
		Ops:           opsStats,
		RowHits:       res.RowHits,
		RowMisses:     res.RowMisses,
		Lookups:       lookups,
		ColdLookups:   int64(len(coldSlots)),
		ColdPageReads: coldReads,
		ColdPageHits:  coldHits,
		ColdCycles:    coldCycles,
	}
	rs.Imbalance = 1
	rs.Energy = energy.Account(r.cfg.Energy, st, opsStats, finish, geo.Ranks, geo.BurstBytes)
	return rs, nil
}
