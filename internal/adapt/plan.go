package adapt

import (
	"fmt"

	"recross/internal/nmp"
	"recross/internal/partition"
)

// Plan prices a proposed repartitioning against the placement it would
// replace. All latency figures are DRAM cycles per batch under the LIVE
// profile: the old decision was optimal for traffic that no longer
// exists, so both sides are evaluated under what the traffic is now.
type Plan struct {
	// RowsMoved and BytesMoved are the row-range migration volume: rows
	// whose region assignment changes between the decisions. Computed
	// from the per-table row-fraction deltas — fraction moved is the sum
	// of positive per-region gains (what must be copied in; the matching
	// losses are frees, not copies).
	RowsMoved  int64
	BytesMoved int64
	// MigCycles is the estimated migration cost in bandwidth-cycles:
	// moved bytes pushed through the regions' combined internal
	// bandwidth. Migration rides the same buses as serving, so this is
	// the bandwidth-seconds (in cycle units) the move steals from
	// traffic. Bytes crossing the DRAM/cold boundary are priced at the
	// flash tier's (far lower) bandwidth in both directions — a demotion
	// writes flash pages, a promotion reads them — so cold churn weighs
	// on the hysteresis gate proportionally to how slow it really is.
	MigCycles float64
	// ColdPromotedRows and ColdDemotedRows count ranked rows crossing the
	// DRAM/cold boundary (cold->DRAM and DRAM->cold respectively), filled
	// by the controller from the placement diff of a plan that cleared the
	// hysteresis gate (adopted, or paused while the cold tier is
	// degraded). Zero without a cold tier or when the gate rejected it.
	ColdPromotedRows, ColdDemotedRows int64
	// OldT and NewT are the estimated per-batch latency bounds of the
	// incumbent and proposed decisions under the live profile.
	OldT, NewT float64
	// Speedup is OldT/NewT (1 = no change).
	Speedup float64
}

// PlanMigration prices replacing old with next under live profile p.
// oldShares, when non-nil, is the live per-segment access share under the
// incumbent's ranking (Detector.SegShares); it makes the incumbent's
// pricing identity-aware — a pure hot-set permutation leaves the CDF
// shape (and hence partition.Estimate) unchanged while gutting the actual
// placement. nil falls back to the shape-based estimate.
func PlanMigration(p *partition.Profile, old, next *partition.Decision, batch int, oldShares [][]float64) (*Plan, error) {
	if old == nil || next == nil {
		return nil, fmt.Errorf("adapt: nil decision")
	}
	if len(old.RowFrac) != len(next.RowFrac) || len(old.RowFrac) != len(p.Spec.Tables) {
		return nil, fmt.Errorf("adapt: decisions cover %d/%d tables, profile has %d",
			len(old.RowFrac), len(next.RowFrac), len(p.Spec.Tables))
	}
	pl := &Plan{}
	cold := make([]bool, len(next.Regions))
	for j, r := range next.Regions {
		cold[j] = r.Level == nmp.LevelCold
	}
	// Bytes copied in per destination region, plus bytes leaving cold
	// regions (a promotion reads flash before it writes DRAM).
	inBytes := make([]float64, len(next.Regions))
	var coldOutBytes float64
	for i, t := range p.Spec.Tables {
		if len(old.RowFrac[i]) != len(next.RowFrac[i]) {
			return nil, fmt.Errorf("adapt: table %d region counts differ (%d vs %d)",
				i, len(old.RowFrac[i]), len(next.RowFrac[i]))
		}
		var movedFrac float64
		tblBytes := float64(t.Rows) * float64(t.VecLen) * 4
		for j := range old.RowFrac[i] {
			d := next.RowFrac[i][j] - old.RowFrac[i][j]
			if d > 0 {
				movedFrac += d
				inBytes[j] += float64(d * tblBytes)
			} else if cold[j] {
				coldOutBytes += float64(-d * tblBytes)
			}
		}
		rows := int64(movedFrac * float64(t.Rows))
		pl.RowsMoved += rows
		pl.BytesMoved += rows * int64(t.VecLen) * 4
	}
	var dramBW, coldBW, dramBytes, coldBytes float64
	for j, r := range next.Regions {
		if cold[j] {
			coldBW += r.BW
			coldBytes += inBytes[j]
		} else {
			dramBW += r.BW
			dramBytes += inBytes[j]
		}
	}
	coldBytes += coldOutBytes
	if dramBW > 0 {
		pl.MigCycles += dramBytes / dramBW
	}
	if coldBW > 0 {
		pl.MigCycles += coldBytes / coldBW
	}
	var oldT float64
	var err error
	if oldShares != nil {
		_, oldT, err = partition.EstimateShares(old, partition.AccessVolumes(p.Spec, batch), oldShares)
	} else {
		_, oldT, err = partition.Estimate(p, old, batch)
	}
	if err != nil {
		return nil, fmt.Errorf("adapt: pricing incumbent: %w", err)
	}
	pl.OldT = oldT
	pl.NewT = next.T
	if pl.NewT > 0 {
		pl.Speedup = pl.OldT / pl.NewT
	}
	return pl, nil
}

// Worthwhile applies the hysteresis economics: the predicted speedup must
// clear minGain, and the per-batch cycle saving amortized over horizon
// batches must repay the migration's bandwidth-cycles. A plan that saves
// nothing or moves more than it saves is not adopted no matter how large
// the drift score — drift measures staleness, the plan measures whether
// fixing it pays.
func (pl *Plan) Worthwhile(minGain float64, horizon int64) bool {
	if pl.Speedup < 1+minGain {
		return false
	}
	return (pl.OldT-pl.NewT)*float64(horizon) > pl.MigCycles
}
