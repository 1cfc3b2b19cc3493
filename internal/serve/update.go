package serve

import (
	"recross/internal/arch"
)

// SystemUpdate transforms one replica's System in place or returns a
// replacement. It runs on the replica's worker goroutine between batches
// — the only moment the worker provably owns the System — so the
// single-goroutine arch.System contract holds without any locking on the
// serving path. Returning the received sys (after mutating it, e.g.
// core.ReCross.Adopt) and returning a brand-new System are both valid.
type SystemUpdate func(id int, sys arch.System) (arch.System, error)

// StageUpdate stages u on every replica and returns how many replicas it
// was staged on. Each worker applies it before its next batch; a replica
// that is restarting applies it before its first batch after the rebuild
// (or never, if it dies — the Options.Rebuild factory is responsible for
// building replacement replicas already up to date). Staging again before
// a replica applied the previous update replaces it: updates are
// full-state swaps, not deltas, so the latest one wins.
func (s *Server) StageUpdate(u SystemUpdate) int {
	if u == nil {
		return 0
	}
	n := 0
	for _, rep := range s.replicas {
		rep.update.Store(&u)
		n++
	}
	s.metrics.UpdatesStaged.Add(int64(n))
	return n
}

// applyUpdate runs a staged update, if any, on the worker goroutine that
// owns rep.sys. A failed update leaves the old System serving: a stale
// placement is slow, a half-swapped one would be wrong.
func (rep *replica) applyUpdate(s *Server) {
	up := rep.update.Swap(nil)
	if up == nil {
		return
	}
	ns, err := (*up)(rep.id, rep.sys)
	if err != nil || ns == nil {
		s.metrics.UpdateFailures.Add(1)
		return
	}
	rep.sys = ns
	rep.sysname.Store(ns.Name())
	s.metrics.UpdatesApplied.Add(1)
}
