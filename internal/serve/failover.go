package serve

import (
	"sort"
	"strconv"
)

// failover resolves a batch whose replica failed: requests with retry
// budget left are resubmitted to another available replica; the rest
// are settled degraded, for their callers to answer from the functional
// layer. A replica fault therefore never surfaces as a caller-visible
// error.
func (s *Server) failover(batch []*request, from int) {
	for _, r := range batch {
		if r.retries < s.opts.MaxRetries && s.resubmit(r, from) {
			continue
		}
		r.degrade()
	}
}

// resubmit re-routes one failed request as a single-request batch to an
// available replica other than the one that failed it, least-loaded
// first. The sends are non-blocking: a worker must never wait on a
// sibling's full queue (under heavy faults that converges on deadlock);
// if nobody can take the request immediately it falls through to a
// degraded answer. r.retries is bumped before the send so the receiving
// worker observes it (channel-send happens-before).
func (s *Server) resubmit(r *request, exclude int) bool {
	cands := make([]*replica, 0, len(s.replicas))
	for _, rep := range s.replicas {
		if rep.id != exclude && rep.available() {
			cands = append(cands, rep)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].outstanding.Load() < cands[j].outstanding.Load()
	})
	r.retries++
	s.metrics.Retries.Add(1)
	for _, rep := range cands {
		rep.outstanding.Add(1)
		if s.sendWork(rep, []*request{r}, false) {
			return true
		}
		rep.outstanding.Add(-1)
	}
	r.retries--
	s.metrics.Retries.Add(-1)
	return false
}

// sendWork delivers a batch to rep's work channel. The read lock and
// workClosed flag make the send safe against Close closing the channel;
// block selects between a blocking send (dispatcher backpressure) and a
// non-blocking attempt (failover resubmission).
func (s *Server) sendWork(rep *replica, batch []*request, block bool) bool {
	s.workMu.RLock()
	defer s.workMu.RUnlock()
	if s.workClosed {
		return false
	}
	if block {
		rep.work <- batch
		return true
	}
	select {
	case rep.work <- batch:
		return true
	default:
		return false
	}
}

// coldDegraded probes the storage tier's health (false with no probe
// configured).
func (s *Server) coldDegraded() bool {
	return s.opts.ColdDegraded != nil && s.opts.ColdDegraded()
}

// AvailableReplicas counts replicas eligible for dispatch (healthy or
// suspect).
func (s *Server) AvailableReplicas() int {
	n := 0
	for _, rep := range s.replicas {
		if rep.available() {
			n++
		}
	}
	return n
}

// Degraded reports whether the server is below quorum and answering
// from the functional layer.
func (s *Server) Degraded() bool { return s.AvailableReplicas() < s.opts.Quorum }

// ReplicaHealth is one replica's health snapshot.
type ReplicaHealth struct {
	// ID is the replica index.
	ID int `json:"id"`
	// State is "healthy", "suspect", "restarting" or "dead".
	State string `json:"state"`
	// Failures counts replica-level faults (panics, wedges, corrupt
	// stats, run errors).
	Failures int64 `json:"failures"`
	// Restarts counts successful rebuilds.
	Restarts int64 `json:"restarts"`
	// System names the replica's architecture.
	System string `json:"system"`
}

// HealthReport is the server-wide health snapshot behind /healthz.
type HealthReport struct {
	// Status is "ok", "degraded" (below quorum, serving functionally),
	// "cold-degraded" (compute healthy but the storage tier's breaker is
	// not closed, so cold rows serve through the slow fallback) or
	// "draining".
	Status string `json:"status"`
	// Available counts dispatchable replicas; Quorum is the threshold.
	Available int `json:"available"`
	Quorum    int `json:"quorum"`
	// ColdDegraded reports the storage tier's health probe (always false
	// without a cold tier).
	ColdDegraded bool `json:"cold_degraded,omitempty"`
	// Replicas holds the per-replica states.
	Replicas []ReplicaHealth `json:"replicas"`
}

// Health snapshots per-replica states and the server-wide status.
func (s *Server) Health() HealthReport {
	h := HealthReport{
		Available:    s.AvailableReplicas(),
		Quorum:       s.opts.Quorum,
		ColdDegraded: s.coldDegraded(),
	}
	switch {
	case s.Draining():
		h.Status = "draining"
	case h.Available < h.Quorum:
		h.Status = "degraded"
	case h.ColdDegraded:
		h.Status = "cold-degraded"
	default:
		h.Status = "ok"
	}
	for _, rep := range s.replicas {
		h.Replicas = append(h.Replicas, ReplicaHealth{
			ID:       rep.id,
			State:    rep.State().String(),
			Failures: rep.failures.Load(),
			Restarts: rep.restarts.Load(),
			System:   rep.sysName(),
		})
	}
	return h
}

// registerHealth publishes the pool's health: per-replica state (0
// healthy, 1 suspect, 2 restarting, 3 dead), failure and restart counts,
// and the availability and degraded-mode gauges. The replica set is fixed
// for the server's life, so the label sets are too.
func (s *Server) registerHealth() {
	for _, rep := range s.replicas {
		id := strconv.Itoa(rep.id)
		s.set.IntGauge("recross_replica_state", "Replica state (0 healthy, 1 suspect, 2 restarting, 3 dead).",
			func() int64 { return int64(rep.state.Load()) }, "replica", id)
		s.set.IntGauge("recross_replica_failures", "Replica-level faults per replica.", rep.failures.Load, "replica", id)
		s.set.IntGauge("recross_replica_restarts", "Rebuilds per replica.", rep.restarts.Load, "replica", id)
	}
	flag := func(on func() bool) func() int64 {
		return func() int64 {
			if on() {
				return 1
			}
			return 0
		}
	}
	s.set.IntGauge("recross_replicas_available", "Replicas eligible for dispatch.", func() int64 { return int64(s.AvailableReplicas()) })
	s.set.IntGauge("recross_degraded_mode", "1 while below quorum and answering from the functional layer.", flag(s.Degraded))
	s.set.IntGauge("recross_cold_degraded_mode", "1 while the storage tier's breaker is not closed.", flag(s.coldDegraded))
}
