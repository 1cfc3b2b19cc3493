package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"recross/internal/arch"
	"recross/internal/trace"
)

// replicaWorkDepth is how many formed batches may queue at one replica
// beyond the one it is running; small so the least-outstanding dispatcher
// keeps the routing decision late.
const replicaWorkDepth = 2

// ReplicaState is one pool shard's health.
type ReplicaState int32

const (
	// Healthy: serving normally.
	Healthy ReplicaState = iota
	// Suspect: serving, but on probation — it just restarted or returned
	// a Run error; the next successful batch promotes it to Healthy.
	Suspect
	// Restarting: failed and waiting out (or undergoing) a rebuild on
	// its worker; not dispatched to.
	Restarting
	// Dead: exhausted the restart cap; never dispatched to again.
	Dead
)

func (st ReplicaState) String() string {
	switch st {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Restarting:
		return "restarting"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int32(st))
	}
}

// replica is one pool shard: a timing model owned exclusively by one
// worker goroutine (arch.System is single-goroutine by contract). The
// worker runs every batch inline, restarts the replica in place after a
// fault, and keeps reading the same work channel, so queued batches are
// never stranded. Only a wedge hands the replica to a successor worker.
type replica struct {
	id          int
	sys         arch.System // owned by the current worker
	work        chan []*request
	outstanding atomic.Int64 // queued + running samples
	batches     atomic.Int64
	samples     atomic.Int64

	state    atomic.Int32 // ReplicaState
	failures atomic.Int64 // replica-level faults (panic/wedge/corrupt/error)
	restarts atomic.Int64 // successful rebuilds
	attempts atomic.Int32 // consecutive restart attempts; reset by a served batch
	sysname  atomic.Value // string; sys.Name() is not readable concurrently with a swap

	// The running batch, for the watchdog: epoch is odd while it runs,
	// started is when it began (unix ns). Whoever moves epoch from odd to
	// even owns the outcome — the worker when Run returns, the watchdog
	// when it claims a wedge.
	epoch   atomic.Uint64
	started atomic.Int64
	running []*request

	// update is a staged SystemUpdate (see StageUpdate); the worker swaps
	// it out and applies it between batches, when it owns sys.
	update atomic.Pointer[SystemUpdate]
}

func newReplica(id int, sys arch.System) *replica {
	rep := &replica{id: id, sys: sys, work: make(chan []*request, replicaWorkDepth)}
	rep.sysname.Store(sys.Name())
	return rep
}

// sysName reports the current System's name without touching sys (which
// a restart may be swapping).
func (rep *replica) sysName() string {
	n, _ := rep.sysname.Load().(string)
	return n
}

func (rep *replica) setState(st ReplicaState) { rep.state.Store(int32(st)) }

// State reports the replica's health.
func (rep *replica) State() ReplicaState { return ReplicaState(rep.state.Load()) }

// available reports whether the dispatcher may route to this replica.
func (rep *replica) available() bool {
	st := rep.State()
	return st == Healthy || st == Suspect
}

// batchOutcome is how one batch left the replica.
type batchOutcome int

const (
	served    batchOutcome = iota // answered, or failed over by an ordinary Run error
	broken                        // panic or corrupt stats: the replica must restart
	abandoned                     // claimed as wedged: a successor owns the replica
)

// run is the replica's worker, the one goroutine reading its work
// channel. It serves batches until the channel closes and restarts the
// replica in place after a fault; once the replica is dead, or Close has
// stopped restarts, it fails every queued batch over instead. rebuild
// starts it with a restart: the watchdog's successor to a wedged worker,
// whose slot in s.workers it inherits.
func (rep *replica) run(s *Server, rebuild bool) {
	live := !rebuild || rep.restart(s)
	for batch := range rep.work {
		if !live {
			rep.outstanding.Add(-int64(len(batch)))
			s.failover(batch, rep.id)
			continue
		}
		// Between batches the worker owns the System exclusively — the
		// one safe moment to apply a staged placement swap.
		rep.applyUpdate(s)
		switch rep.serve(s, batch) {
		case abandoned:
			return // the wedged worker exits without touching the replica
		case broken:
			live = rep.restart(s)
		}
	}
	s.workers.Done()
}

// restart rebuilds the replica on its own worker: exponential backoff,
// Options.Rebuild, then Suspect probation. It reports false, and the
// worker drains, once consecutive attempts pass RestartCap (Dead) or
// Close stops restarts.
func (rep *replica) restart(s *Server) bool {
	rep.setState(Restarting)
	for {
		attempt := int(rep.attempts.Add(1))
		if attempt > s.opts.RestartCap {
			rep.setState(Dead)
			return false
		}
		// Exponential backoff: base << (attempt-1), capped at 100x base.
		d := min(s.opts.RestartBackoff<<uint(attempt-1), 100*s.opts.RestartBackoff)
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-s.stopRestarts:
			t.Stop()
			return false
		}
		if s.opts.Rebuild != nil {
			sys, err := s.opts.Rebuild(rep.id)
			if err != nil {
				continue // burns one attempt toward the cap
			}
			rep.sys = sys
			rep.sysname.Store(sys.Name())
		}
		rep.restarts.Add(1)
		s.metrics.Restarts.Add(1)
		rep.setState(Suspect) // probation until it serves a batch
		s.wake()
		return true
	}
}

// runRecovered runs the timing model, reporting a panic instead of
// propagating it.
func runRecovered(sys arch.System, b trace.Batch) (st *arch.RunStats, panicked bool, err error) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	st, err = sys.Run(b)
	return st, false, err
}

// serve runs one coalesced batch through the replica's timing model on
// the worker goroutine and settles each request's future with the
// batch's verdict; each caller reduces its own vectors. A failed batch
// has been failed over by the time it returns.
func (rep *replica) serve(s *Server, batch []*request) batchOutcome {
	b := make(trace.Batch, len(batch))
	for i, r := range batch {
		b[i] = r.sample
	}

	// Publish the running batch to the watchdog. sys is read first: once
	// the epoch is odd, a wedge claim may hand rep.sys to a successor.
	sys := rep.sys
	rep.running = batch
	rep.started.Store(time.Now().UnixNano())
	ep := rep.epoch.Add(1)
	st, panicked, err := runRecovered(sys, b)
	if !rep.epoch.CompareAndSwap(ep, ep+1) {
		return abandoned
	}
	if rep.outstanding.Add(-int64(len(batch))) == 0 {
		s.wake()
	}

	switch {
	case panicked:
		rep.fail(s, batch, FailurePanic, Restarting)
		return broken
	case err != nil:
		// An ordinary Run error: fail over the batch and mark the
		// replica suspect, but keep it serving — the model itself did
		// not break.
		rep.fail(s, batch, FailureError, Suspect)
		return served
	case st == nil || st.Cycles < 0:
		rep.fail(s, batch, FailureCorrupt, Restarting)
		return broken
	}

	rep.batches.Add(1)
	rep.samples.Add(int64(len(batch)))
	rep.attempts.Store(0) // a served batch ends the probation streak
	if rep.State() == Suspect {
		rep.setState(Healthy)
	}
	s.metrics.Batches.Add(1)
	s.metrics.BatchSamples.Add(int64(len(batch)))
	s.metrics.ServiceCycles.Record(int64(st.Cycles))

	for _, r := range batch {
		r.complete(&Result{BatchSize: len(batch), ServiceCycles: st.Cycles, Replica: rep.id, Retries: r.retries})
	}
	return served
}

// fail records a replica-level fault, moves the replica to st (before
// failover, so retries avoid a restarting replica), and fails the batch
// over to the available part of the pool.
func (rep *replica) fail(s *Server, batch []*request, f Failure, st ReplicaState) {
	rep.failures.Add(1)
	s.metrics.faultCounter(f).Add(1)
	rep.setState(st)
	s.failover(batch, rep.id)
}

// watch is the pool's wedge watchdog. Every WedgeTimeout/4 it claims any
// batch that has run past WedgeTimeout — so a wedge is caught within
// [T, 1.25·T] — fails it over, and starts a successor worker that
// rebuilds the replica. The wedged goroutine keeps the old System until
// its Run returns, then exits. Close stops the watchdog only after every
// worker has exited, so a batch wedged during the drain is still claimed.
func (s *Server) watch() {
	defer close(s.watchDone)
	tick := time.NewTicker(max(s.opts.WedgeTimeout/4, 1))
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-s.watchStop:
			return
		}
		now := time.Now().UnixNano()
		for _, rep := range s.replicas {
			ep := rep.epoch.Load()
			if ep%2 == 0 || now-rep.started.Load() < int64(s.opts.WedgeTimeout) ||
				!rep.epoch.CompareAndSwap(ep, ep+1) {
				continue
			}
			rep.outstanding.Add(-int64(len(rep.running)))
			rep.fail(s, rep.running, FailureWedge, Restarting)
			go rep.run(s, true)
		}
	}
}

// ReplicaLoad reports per-replica served batches and samples, for
// inspecting the least-outstanding balance.
func (s *Server) ReplicaLoad() (batches, samples []int64) {
	batches = make([]int64, len(s.replicas))
	samples = make([]int64, len(s.replicas))
	for i, rep := range s.replicas {
		batches[i] = rep.batches.Load()
		samples[i] = rep.samples.Load()
	}
	return batches, samples
}
