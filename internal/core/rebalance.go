package core

import (
	"fmt"

	"recross/internal/arch"
	"recross/internal/partition"
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

// Adopt installs a plan solved and built elsewhere and shared read-only:
// core.New installs its own solve through it, and a serving stack builds
// every replica after the first on replica 0's placement rather than
// solving again (re-solving per replica could in principle land each on a
// different equal-objective vertex, and would waste a solve and a build
// per pool member). Only the mapping tables change; the hardware regions
// are fixed, so pl must have been solved against this instance's
// Regions().
//
// The caller must respect the System single-goroutine contract: Adopt
// swaps the placement the next Run reads, so it may only be called from
// the goroutine that owns the instance.
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
	r.coldSlots = r.coldSlots[:0]
	if r.touchedRows == nil {
		r.touchedRows = map[trainKey]bool{}
	}
	clear(r.touchedRows)
	// The map only dedups; write-backs are emitted in first-touch order so
	// a step's request stream (and so its cycle count) is deterministic.
	order := r.touchedOrder[:0]
	err := r.pass.Gather(b, func(table int, idx int64) error {
		if k := (trainKey{table, idx}); !r.touchedRows[k] {
			r.touchedRows[k] = true
			order = append(order, k)
		}
		return r.land(table, idx)
	})
	r.touchedOrder = order
	if err != nil {
		return nil, err
	}
	// The gradient write-back phase: one write per distinct touched row,
	// dependent on the forward results.
	for _, k := range order {
		region, slot := r.pl.Locate(k.table, k.row)
		if region == RegionCold {
			// Update writes to flash rows ride the same page path as the
			// gathers; charge them as another slot touch.
			r.coldSlots = append(r.coldSlots, slot)
			continue
		}
		loc, err := arch.Stripe(r.geo, r.regionBanks[region], slot, r.bursts)
		if err != nil {
			return nil, err
		}
		r.pass.Write(loc, r.bursts)
	}
	return r.finish(r.pass.Ops*int64(r.geo.Ranks), nil)
}
