package serve

import "time"

// dispatch is the work-conserving dynamic batcher: it pulls admitted
// requests off the queue and coalesces them into batches. After every
// event — a dequeue, the MaxDelay timer firing, or a replica going idle
// (s.idle) — it decides whether the open batch flushes. It flushes when it
// holds MaxBatch samples, or when the queue is empty and waiting buys
// nothing: some available replica has no outstanding work, or the pool is
// below quorum (the batch is answered degraded one request at a time).
// Otherwise every replica is busy and the batch keeps collecting, for at
// most MaxDelay from its first request, until a replica frees up. Requests
// whose context expired while queued are dropped here, at dequeue time,
// before they can open a batch or arm the MaxDelay timer — a dead request
// never triggers an (otherwise empty) flush. The loop exits when the
// admission channel is closed and fully drained, flushing any partial
// batch so graceful drain answers every admitted request.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)

	var batch []*request
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	timerLive := false
	flush := func() {
		if timerLive && !timer.Stop() {
			<-timer.C
		}
		timerLive = false
		s.metrics.BatchForm.RecordSince(batch[0].deq) // first dequeue to flush
		s.route(batch)
		batch = nil
	}

	for {
		var r *request
		ok := true
		if len(batch) == 0 {
			// Nothing pending: block for the next request.
			r, ok = <-s.in
		} else {
			select {
			case r, ok = <-s.in:
			case <-timer.C:
				timerLive = false
				s.metrics.DeadlineFlushes.Add(1)
				flush()
				continue
			case <-s.idle:
			}
		}
		if !ok {
			if len(batch) > 0 {
				flush()
			}
			return
		}
		if r != nil && s.admitAtDequeue(r) {
			batch = append(batch, r)
		}
		if len(batch) == 0 {
			continue
		}
		if len(batch) >= s.opts.MaxBatch || len(s.in) == 0 && s.idleOrDegraded() {
			flush()
		} else if !timerLive {
			timer.Reset(s.opts.MaxDelay)
			timerLive = true
		}
	}
}

// idleOrDegraded reports whether a batch gains nothing by waiting: the
// least-loaded available replica has no outstanding work, or the pool is
// below quorum.
func (s *Server) idleOrDegraded() bool {
	rep, load := s.pickReplica()
	return rep == nil || load == 0
}

// wake tells the dispatcher a replica may have gone idle. The send never
// blocks: s.idle holds one token, so a wake-up landing between the
// dispatcher's idle check and its select is kept, and a stale one costs
// one extra check.
func (s *Server) wake() {
	select {
	case s.idle <- struct{}{}:
	default:
	}
}

// admitAtDequeue records the queue wait and drops requests whose context
// expired while queued; their callers, woken by the same context, settle
// and count them. Returns false if the request was dropped.
func (s *Server) admitAtDequeue(r *request) bool {
	r.deq = time.Now()
	s.metrics.QueueWait.Record(r.deq.Sub(r.enq).Nanoseconds())
	return r.ctx.Err() == nil
}

// route hands a formed batch to the replica with the least outstanding
// work (queued + running samples), the serving analogue of the paper's
// load-balance objective across memory nodes — restricted to available
// (healthy/suspect) replicas, the dispatcher's circuit breaker. When
// available replicas are below Quorum the server is in degraded mode and
// the whole batch is settled degraded instead: each caller answers its
// own request from the functional layer, so the dispatcher never waits
// on a reduction.
func (s *Server) route(batch []*request) {
	rep, _ := s.pickReplica()
	if rep != nil {
		rep.outstanding.Add(int64(len(batch)))
		if s.sendWork(rep, batch, true) {
			return
		}
		// Work channels already closed (drain raced a late flush):
		// settle degraded rather than strand the batch.
		rep.outstanding.Add(-int64(len(batch)))
	}
	for _, r := range batch {
		r.degrade()
	}
}

// pickReplica returns the least-loaded available replica and its
// outstanding samples, or nil when the available count is below the
// quorum (degraded mode).
func (s *Server) pickReplica() (*replica, int64) {
	var best *replica
	var bestLoad int64
	avail := 0
	for _, rep := range s.replicas {
		if !rep.available() {
			continue
		}
		avail++
		if l := rep.outstanding.Load(); best == nil || l < bestLoad {
			best, bestLoad = rep, l
		}
	}
	if avail < s.opts.Quorum {
		return nil, 0
	}
	return best, bestLoad
}
