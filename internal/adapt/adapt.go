// Package adapt closes the partitioning loop online. The paper's
// bandwidth-aware partitioner (§4.3) is a one-shot offline pass: profile a
// training trace, solve the LP, freeze the R/G/B placement. Production
// recommendation traffic is not stationary — item popularity churns hourly
// while the distribution's *shape* barely moves — and a frequency-driven
// placement is only as good as its freshness (the premise behind RecNMP's
// hot-entry caching and the paper's own §4.5 dynamic embedding scheduling).
//
// The subsystem has four parts, composed by the Controller:
//
//   - a streaming frequency Tracker: per-table Space-Saving top-k sketches
//     observing the live serving path with bounded memory, striped per-table
//     locks (the hot path touches one table at a time, never a global
//     lock), exact per-table access totals, and periodic count halving so
//     stale hot sets fade within a couple of control windows;
//   - a drift Detector comparing the live access curve against the
//     partition.Profile the current placement was solved for, evaluated at
//     the LP's own segment boundaries (partition.SegBounds) and — crucially
//     — under the *baseline ranking*: the cumulative curve itself is
//     permutation-invariant, so a hot-set churn that devastates the
//     placement would be invisible to a shape-only comparison; measuring
//     how much live mass still lands on rows the old profile ranked hot
//     catches identity drift and shape drift with one number;
//   - a replanner: rebuild a partition.Profile from the sketches, re-run
//     partition.SolveLP, and price the change — bytes moved between
//     regions, migration cost in bandwidth-cycles, and the predicted
//     per-batch gain from partition.Estimate of the old decision under the
//     live profile;
//   - a hysteresis gate: a new Decision is adopted only when the drift has
//     persisted for Windows consecutive checks, the predicted speedup
//     clears MinGain, the amortized gain exceeds the migration cost, and
//     the Cooldown since the last adoption has elapsed. Oscillating
//     placements cost migrations on every swing; the gate makes the loop
//     monotone under noise.
//
// The controller holds the deployed plan as one *partition.Placement (with
// the profile and decision it was built from); an accepted plan is built
// once and that same pointer is handed to Adopt. Adoption is staged, never
// blocking: the serving layer applies the new mapping at replica batch
// boundaries (serve.Server.StageUpdate), so the single-goroutine System
// contract holds and no request waits on a swap.
package adapt

import (
	"recross/internal/partition"
)

// Rebalancer is the capability a replica System needs for online
// adoption: swap to a placement built elsewhere and shared read-only.
// core.ReCross implements it; architectures without a partitioner simply
// don't, and the staged update leaves them untouched.
type Rebalancer interface {
	Adopt(pl *partition.Placement) error
}
