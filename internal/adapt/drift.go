package adapt

import (
	"fmt"

	"recross/internal/partition"
)

// Detector compares the live access stream against the partition.Profile
// the current placement was solved for.
//
// The comparison is identity-aware: for each table it asks "how much of
// the live traffic still lands on rows the baseline ranked within the
// hottest fraction b?", for every segment boundary b the LP linearised
// over. Under stationary traffic this live coverage tracks the baseline's
// own CDF (up to sketch noise); after a hot-set permutation the live head
// is made of rows the baseline ranked cold, the coverage at small b
// collapses toward b itself, and the distance jumps. A plain CDF-vs-CDF
// comparison would miss that entirely — the cumulative curve is invariant
// under relabeling rows, but the placement is not.
//
// Per-table distance is the mean absolute gap (L1) over the interior
// boundaries; the aggregate score weights tables by their share of
// gathered traffic volume (Prob x Pooling), because drift on a table the
// batch barely touches cannot unbalance a region. KS (the max gap) is
// reported alongside for observability.
type Detector struct {
	threshold float64
	windows   int
	streak    int
	bounds    []float64 // interior segment boundaries
	all       []float64 // full boundaries, for SegShares
	tables    []tableBaseline
}

type tableBaseline struct {
	rows      int64
	weight    float64         // normalized traffic-volume share
	rank      map[int64]int64 // baseline frequency rank of observed keys
	cov       []float64       // baseline coverage at bounds
	baseShare []float64       // baseline access share per segment
}

// Drift is one window's comparison.
type Drift struct {
	// Score is the volume-weighted mean per-table L1 distance.
	Score float64
	// KS is the largest single-boundary gap across all tables.
	KS float64
	// PerTable holds each table's L1 distance.
	PerTable []float64
	// Fired reports whether this window completed the consecutive-window
	// requirement (set by Observe).
	Fired bool
}

// NewDetector builds a detector against baseline. threshold is the score
// that counts a window as drifted; windows is how many consecutive
// drifted windows fire the replanner (hysteresis against single-window
// noise).
func NewDetector(baseline *partition.Profile, threshold float64, windows int) (*Detector, error) {
	if baseline == nil || len(baseline.Spec.Tables) == 0 {
		return nil, fmt.Errorf("adapt: empty baseline profile")
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("adapt: threshold %g <= 0", threshold)
	}
	if windows < 1 {
		return nil, fmt.Errorf("adapt: windows %d < 1", windows)
	}
	all := partition.SegBounds()
	bounds := all[1 : len(all)-1] // 0 and 1 are trivially equal on both curves
	d := &Detector{
		threshold: threshold,
		windows:   windows,
		bounds:    bounds,
		all:       all,
		tables:    make([]tableBaseline, len(baseline.Spec.Tables)),
	}
	var volSum float64
	for i, t := range baseline.Spec.Tables {
		vol := float64(t.Prob * float64(t.Pooling))
		volSum += vol
		tb := tableBaseline{
			rows:      t.Rows,
			weight:    vol,
			cov:       make([]float64, len(bounds)),
			baseShare: make([]float64, len(all)-1),
		}
		for b, p := range bounds {
			tb.cov[b] = baseline.CDFs[i].At(p)
		}
		for s := 0; s < len(all)-1; s++ {
			tb.baseShare[s] = baseline.CDFs[i].At(all[s+1]) - baseline.CDFs[i].At(all[s])
		}
		hot := baseline.Hists[i].HotKeys(baseline.Hists[i].Distinct())
		tb.rank = make(map[int64]int64, len(hot))
		for r, key := range hot {
			tb.rank[key] = int64(r)
		}
		d.tables[i] = tb
	}
	for i := range d.tables {
		if volSum > 0 {
			d.tables[i].weight /= volSum
		}
	}
	return d, nil
}

// Score computes one window's drift from a tracker snapshot (one entry
// per table, in spec order). It does not advance the hysteresis streak;
// use Observe for the full step.
func (d *Detector) Score(snaps []TableSnapshot) (Drift, error) {
	if len(snaps) != len(d.tables) {
		return Drift{}, fmt.Errorf("adapt: snapshot covers %d tables, baseline has %d", len(snaps), len(d.tables))
	}
	dr := Drift{PerTable: make([]float64, len(d.tables))}
	for i, tb := range d.tables {
		sn := snaps[i]
		if sn.Total == 0 {
			continue // no live data on this table: no evidence of drift
		}
		// Mass of tracked live keys within each baseline-top fraction.
		tracked := int64(0)
		within := make([]float64, len(d.bounds))
		for k, key := range sn.Keys {
			tracked += sn.Counts[k]
			r, ok := tb.rank[key]
			if !ok {
				continue // baseline never saw it: outside every head fraction
			}
			for b, p := range d.bounds {
				if float64(r) < p*float64(tb.rows) {
					within[b] += float64(sn.Counts[k])
				}
			}
		}
		untracked := 1 - float64(tracked)/float64(sn.Total)
		var l1 float64
		for b, p := range d.bounds {
			// Untracked live mass is tail mass; credit it with the uniform
			// coverage p it would have under any ranking, which is exact
			// for a permutation-free tail and conservative otherwise.
			liveCov := within[b]/float64(sn.Total) + float64(untracked*p)
			gap := liveCov - tb.cov[b]
			if gap < 0 {
				gap = -gap
			}
			l1 += gap
			if gap > dr.KS {
				dr.KS = gap
			}
		}
		l1 /= float64(len(d.bounds))
		dr.PerTable[i] = l1
		dr.Score += float64(tb.weight * l1)
	}
	return dr, nil
}

// Observe scores one window and advances the hysteresis streak. Fired is
// set on the returned Drift when the score has exceeded the threshold for
// the configured number of consecutive windows; the streak then resets,
// so a persisting drift fires again only after another full run of
// windows (the replanner's own cooldown gates faster re-fires anyway).
func (d *Detector) Observe(snaps []TableSnapshot) (Drift, error) {
	dr, err := d.Score(snaps)
	if err != nil {
		return dr, err
	}
	if dr.Score > d.threshold {
		d.streak++
	} else {
		d.streak = 0
	}
	if d.streak >= d.windows {
		dr.Fired = true
		d.streak = 0
	}
	return dr, nil
}

// Threshold returns the configured per-window trigger score.
func (d *Detector) Threshold() float64 { return d.threshold }

// SegShares measures, per table, the fraction of live accesses landing in
// each of the baseline ranking's LP segments — the shares input of
// partition.EstimateShares, used to price the incumbent decision under
// live traffic. A tracked live key with baseline rank r contributes its
// count to the segment whose rank range contains r. Live mass with no
// baseline rank (untracked tail, or keys the baseline never observed) is
// cold under the incumbent placement; it is spread across the segments
// covering the baseline-unobserved rank range, proportional to row count.
func (d *Detector) SegShares(snaps []TableSnapshot) ([][]float64, error) {
	if len(snaps) != len(d.tables) {
		return nil, fmt.Errorf("adapt: snapshot covers %d tables, baseline has %d", len(snaps), len(d.tables))
	}
	nseg := len(d.all) - 1
	out := make([][]float64, len(d.tables))
	for i, tb := range d.tables {
		sn := snaps[i]
		shares := make([]float64, nseg)
		out[i] = shares
		if sn.Total == 0 {
			// No live data: the baseline's own shares are the best guess.
			copy(shares, tb.baseShare)
			continue
		}
		rows := float64(tb.rows)
		var ranked int64
		for k, key := range sn.Keys {
			r, ok := tb.rank[key]
			if !ok {
				continue
			}
			ranked += sn.Counts[k]
			for s := 0; s < nseg; s++ {
				if float64(r) < d.all[s+1]*rows || s == nseg-1 {
					shares[s] += float64(sn.Counts[k])
					break
				}
			}
		}
		// Cold mass spreads over the rank range the baseline never observed.
		cold := float64(sn.Total - ranked)
		if cold > 0 {
			lo := float64(len(tb.rank)) // first baseline-unobserved rank
			span := rows - lo
			for s := 0; s < nseg; s++ {
				sLo, sHi := float64(d.all[s]*rows), float64(d.all[s+1]*rows)
				var overlap float64
				if span > 0 {
					if sLo < lo {
						sLo = lo
					}
					if sHi > sLo {
						overlap = (sHi - sLo) / span
					}
				} else {
					overlap = (d.all[s+1] - d.all[s]) // fully observed: uniform
				}
				shares[s] += float64(cold * overlap)
			}
		}
		for s := range shares {
			shares[s] /= float64(sn.Total)
		}
	}
	return out, nil
}
