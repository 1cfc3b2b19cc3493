// Package serve turns the batch-oriented simulator into a long-running
// embedding-inference service, the deployment model RecNMP and RecSSD
// evaluate recommendation accelerators under: concurrent single-sample
// query streams, SLA tail latency, throughput under load.
//
// The layer has five parts:
//
//   - a work-conserving dynamic batcher: incoming single-sample requests
//     queue per model and flush at once while some replica is idle; only
//     while every replica is busy do they coalesce, until MaxBatch
//     samples are waiting, MaxDelay has elapsed since the batch opened,
//     or a replica frees up — so batches grow under saturation, where
//     they buy throughput, and cost no latency below it;
//   - a sharded worker pool: N replicas of an arch.System (each its own
//     simulated memory channel/device), fed by least-outstanding-work
//     dispatch, settling each request's future with a verdict (which
//     batch served it, at what simulated cost); the caller then reduces
//     its own sample from the functional layer on its own goroutine;
//   - admission control: a bounded queue with a configurable overload
//     policy (Block until space, or Shed with ErrOverloaded), and
//     per-request context deadlines honored at dequeue time;
//   - self-healing replicas: each replica's one worker goroutine runs
//     batches inline, recovers panics, rejects corrupted results, and
//     rebuilds its replica in place with exponential backoff under a
//     restart cap; one pool-wide watchdog claims wedged (never-returning)
//     batches and hands the replica to a successor worker. Only the
//     in-flight batch fails: it retries on a healthy replica under a
//     bounded budget, and when available replicas fall below Quorum the
//     server answers from the shared functional layer with
//     Result.Degraded set — a replica fault never becomes a
//     caller-visible error;
//   - a metrics registry: lock-cheap counters and streaming histograms
//     (queue wait, batch formation, simulated service cycles, end-to-end
//     wall time) exposing p50/p95/p99 snapshots, plus per-replica health
//     states, fault/retry/restart counters and degraded-serve counts.
//
// An arch.System is single-goroutine (see the recross.System docs); the
// pool gives each replica exclusively to one worker goroutine, which is
// what makes the whole server safe for arbitrary concurrent Lookup calls.
// The functional embedding.Layer is shared: procedural tables are
// immutable and safe for concurrent reads.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"recross/internal/arch"
	"recross/internal/embedding"
	"recross/internal/metrics"
	"recross/internal/sim"
	"recross/internal/trace"
)

// Overload errors returned by Lookup.
var (
	// ErrOverloaded reports that the admission queue was full under the
	// Shed policy.
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	// ErrClosed reports that the server is draining or closed.
	ErrClosed = errors.New("serve: server closed")
)

// Failure classifies a replica-level fault.
type Failure int

const (
	// FailurePanic: the replica's Run panicked; the worker recovered it.
	FailurePanic Failure = iota
	// FailureWedge: a batch exceeded WedgeTimeout and the watchdog
	// abandoned the worker stuck inside it.
	FailureWedge
	// FailureCorrupt: Run returned detectably corrupt stats (nil or a
	// negative cycle count).
	FailureCorrupt
	// FailureError: Run returned an ordinary error.
	FailureError
)

func (f Failure) String() string {
	switch f {
	case FailurePanic:
		return "panic"
	case FailureWedge:
		return "wedge"
	case FailureCorrupt:
		return "corrupt"
	case FailureError:
		return "error"
	default:
		return fmt.Sprintf("failure(%d)", int(f))
	}
}

// OverloadPolicy selects what admission does when the queue is full.
type OverloadPolicy int

const (
	// Block waits for queue space (or the request context's cancellation).
	Block OverloadPolicy = iota
	// Shed fails fast with ErrOverloaded.
	Shed
)

func (p OverloadPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses "block" or "shed".
func ParsePolicy(s string) (OverloadPolicy, error) {
	switch s {
	case "block":
		return Block, nil
	case "shed":
		return Shed, nil
	default:
		return 0, fmt.Errorf("serve: unknown overload policy %q", s)
	}
}

// Options configures New.
type Options struct {
	// Systems are the replica timing models, one per pool worker
	// (required, at least one). Each must be used by no one else: the
	// worker owns it exclusively.
	Systems []arch.System
	// Layer is the shared functional embedding layer producing the actual
	// result vectors (required). It must be safe for concurrent reads
	// (procedural layers are).
	Layer *embedding.Layer
	// MaxBatch is the coalescing limit in samples (default 32).
	MaxBatch int
	// MaxDelay is the longest a batch waits while every replica is busy:
	// its first request waits at most this long for co-riders (default
	// 1ms). A batch never waits while some replica is idle.
	MaxDelay time.Duration
	// QueueDepth bounds the admission queue in requests
	// (default 4*MaxBatch).
	QueueDepth int
	// Policy selects the overload behaviour (default Block).
	Policy OverloadPolicy

	// DefaultTimeout, when positive, is the server-side deadline applied
	// to requests whose context arrives without one, so Block-policy
	// admission cannot hold a caller forever (0 = no default).
	DefaultTimeout time.Duration

	// Rebuild, when non-nil, is the replica factory a failed replica's
	// worker calls to rebuild its System (typically on the stack's shared
	// partitioning plan, never re-solved — see recross.NewStack). Replicas
	// restart independently, so it may run concurrently for different
	// ids. When nil the old System instance is reused as-is, which is
	// only safe for stateless fakes; real deployments should always set
	// it.
	Rebuild func(id int) (arch.System, error)
	// MaxRetries is the per-request retry budget on replica failure:
	// a batch-failed request is resubmitted to a healthy replica up to
	// this many times before it is answered degraded (default 2).
	MaxRetries int
	// WedgeTimeout is how long one batch may run before the watchdog
	// declares its replica wedged and abandons the worker (default 5s).
	// The watchdog scans every WedgeTimeout/4, so a wedge is caught
	// between 1 and 1.25 times WedgeTimeout.
	WedgeTimeout time.Duration
	// RestartBackoff is a failed replica's initial restart delay; it
	// doubles per consecutive attempt, capped at 100x (default 10ms).
	RestartBackoff time.Duration
	// RestartCap bounds consecutive restart attempts per replica before
	// it is declared dead (default 5). A served batch resets the count.
	RestartCap int
	// Quorum is the minimum available (healthy or suspect) replicas for
	// normal dispatch; below it the server enters degraded mode and
	// answers from the functional layer with Result.Degraded set
	// (default 1).
	Quorum int

	// RowCacheBytes, when positive, attaches a sharded hot-row cache of
	// this budget to Layer (unless the caller already attached one), so
	// hot rows are materialized once instead of re-hashed (or
	// dequantized) per lookup. Its counters ride /metrics as
	// recross_dataplane_row_cache_* (0 = no cache).
	RowCacheBytes int64

	// OnClose, when non-nil, runs at the end of Close after every worker
	// has exited and every admitted Lookup — whose caller reduces its own
	// answer from the functional layer — has returned: the hook that
	// releases resources the server serves from but does not own the
	// lifecycle of otherwise (e.g. the cold tier's backing store).
	OnClose func()

	// ColdDegraded, when non-nil, probes whether the storage tier is
	// serving degraded (the cold store's circuit breaker is not closed).
	// Answers completed while it reports true carry Result.ColdDegraded,
	// /healthz shows status "cold-degraded", and the
	// recross_requests_cold_degraded_total counter advances — storage
	// degradation stays distinguishable from compute-quorum degradation.
	ColdDegraded func() bool
}

func (o Options) withDefaults() Options {
	if o.MaxBatch == 0 {
		o.MaxBatch = 32
	}
	if o.MaxDelay == 0 {
		o.MaxDelay = time.Millisecond
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 4 * o.MaxBatch
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.WedgeTimeout == 0 {
		o.WedgeTimeout = 5 * time.Second
	}
	if o.RestartBackoff == 0 {
		o.RestartBackoff = 10 * time.Millisecond
	}
	if o.RestartCap == 0 {
		o.RestartCap = 5
	}
	if o.Quorum == 0 {
		o.Quorum = 1
	}
	return o
}

// Result is one answered request.
type Result struct {
	// Vectors holds the pooled embedding vector of each op of the sample,
	// bit-identical to embedding.Layer.Reduce on the same op.
	Vectors [][]float32
	// BatchSize is how many samples were coalesced into the simulated
	// batch that served this request (1 for degraded answers).
	BatchSize int
	// ServiceCycles is the simulated DRAM-cycle latency of that batch
	// (0 for degraded answers: no timing model ran).
	ServiceCycles sim.Cycle
	// Replica is the pool worker that served the batch (-1 for degraded
	// answers).
	Replica int
	// Retries is how many times the request was resubmitted after a
	// replica failure before being answered.
	Retries int
	// Degraded marks a request no replica served — correct vectors, no
	// timing model — because no healthy replica could take it (quorum
	// loss, drain, or an exhausted retry budget). Its vectors come from
	// the same functional layer as every answer's, reduced on the caller.
	// It reports compute degradation; storage degradation is the separate
	// ColdDegraded flag, and a request may carry both.
	Degraded bool
	// ColdDegraded marks a request completed while the storage tier was
	// degraded (cold-store breaker not closed): cold-placed rows were
	// materialized through the slow direct-RowSource fallback, so the
	// vectors are still bit-exact but cold-path latency is not.
	ColdDegraded bool
	// QueueWait is the wall time spent waiting in the admission queue.
	QueueWait time.Duration
	// Total is the end-to-end wall time from admission to completion.
	Total time.Duration
}

// request is one queued lookup.
type request struct {
	ctx     context.Context
	sample  trace.Sample
	enq     time.Time   // admission time
	deq     time.Time   // dequeue time, set by the batcher
	retries int         // resubmissions so far; owned by whoever holds the request
	settled atomic.Bool // set by the first settle: a verdict (complete) or the caller giving up

	// done carries the verdict: how the request was served, without
	// vectors (Lookup's caller reduces those). Buffered(1): workers never
	// block completing it.
	done chan *Result
}

// complete settles the future with a verdict exactly once; a failover
// path racing a late completion, or a caller that gave up, makes the
// second settle a no-op.
func (r *request) complete(res *Result) {
	if r.settled.CompareAndSwap(false, true) {
		r.done <- res
	}
}

// degrade settles a request no replica can serve: its caller answers it
// from the functional layer with Result.Degraded set.
func (r *request) degrade() {
	r.complete(&Result{BatchSize: 1, Replica: -1, Retries: r.retries, Degraded: true})
}

// Server is the embedding-inference front-end. Create with New; all
// methods are safe for concurrent use.
type Server struct {
	opts     Options
	metrics  *Metrics
	in       chan *request
	replicas []*replica
	idle     chan struct{} // buffered(1): a replica may have gone idle (see wake)

	mu     sync.RWMutex // guards closed against in-flight enqueues
	closed bool

	workMu     sync.RWMutex // guards workClosed against in-flight work sends
	workClosed bool

	stopRestarts   chan struct{} // closed by Close: failed replicas drain instead
	watchStop      chan struct{}
	watchDone      chan struct{}
	dispatcherDone chan struct{}
	workers        sync.WaitGroup // one slot per replica, held by its current worker
	lookups        sync.WaitGroup // admitted Lookups still running; joined under mu's read lock

	// set is everything /metrics prints: the server's own series plus
	// whatever the stages composed around it register (MetricSet).
	set *metrics.Set

	// Functional data plane: scratch arenas for callers' reductions, and
	// the layer's hot-row cache when configured.
	scratch  sync.Pool // *embedding.Scratch
	rowCache *embedding.RowCache
}

// New builds and starts a server: one dispatcher goroutine, one wedge
// watchdog goroutine, plus one worker goroutine per replica system.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if len(opts.Systems) == 0 {
		return nil, errors.New("serve: at least one replica system required")
	}
	if opts.Layer == nil {
		return nil, errors.New("serve: functional layer required")
	}
	if opts.MaxBatch < 1 {
		return nil, fmt.Errorf("serve: MaxBatch %d < 1", opts.MaxBatch)
	}
	if opts.QueueDepth < 1 {
		return nil, fmt.Errorf("serve: QueueDepth %d < 1", opts.QueueDepth)
	}
	if opts.Policy != Block && opts.Policy != Shed {
		return nil, fmt.Errorf("serve: unknown overload policy %d", opts.Policy)
	}
	if opts.Quorum < 1 || opts.Quorum > len(opts.Systems) {
		return nil, fmt.Errorf("serve: quorum %d out of [1,%d]", opts.Quorum, len(opts.Systems))
	}
	if opts.MaxRetries < 0 || opts.RestartCap < 0 {
		return nil, fmt.Errorf("serve: MaxRetries %d or RestartCap %d < 0", opts.MaxRetries, opts.RestartCap)
	}
	if opts.WedgeTimeout < 0 || opts.RestartBackoff < 0 {
		return nil, fmt.Errorf("serve: WedgeTimeout %v or RestartBackoff %v < 0", opts.WedgeTimeout, opts.RestartBackoff)
	}
	if opts.RowCacheBytes < 0 {
		return nil, fmt.Errorf("serve: RowCacheBytes %d < 0", opts.RowCacheBytes)
	}
	set := metrics.NewSet()
	s := &Server{
		opts:           opts,
		set:            set,
		metrics:        NewMetrics(set),
		in:             make(chan *request, opts.QueueDepth),
		idle:           make(chan struct{}, 1),
		stopRestarts:   make(chan struct{}),
		watchStop:      make(chan struct{}),
		watchDone:      make(chan struct{}),
		dispatcherDone: make(chan struct{}),
	}
	if err := s.initDataplane(); err != nil {
		return nil, err
	}
	s.workers.Add(len(opts.Systems))
	for i, sys := range opts.Systems {
		rep := newReplica(i, sys)
		s.replicas = append(s.replicas, rep)
		go rep.run(s, false)
	}
	s.registerHealth()
	s.registerDataplane()
	go s.watch()
	go s.dispatch()
	return s, nil
}

// Replicas returns the pool width.
func (s *Server) Replicas() int { return len(s.replicas) }

// MetricSet returns the set /metrics serves. Subsystems composed around
// the server — the cold store, a binary listener — register their series in it so one endpoint publishes them all.
func (s *Server) MetricSet() *metrics.Set { return s.set }

// Metrics returns the live registry (snapshot it for reporting).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Draining reports whether Close has begun.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// CheckSample enforces the trace.Op shape contract before a sample can
// reach a worker: Systems assume every table and row is in range and
// len(Weights) == len(Indices) (weights are ignored for Sum/Max but must
// be present). A violation would panic the replica goroutine —
// recoverable, but it would still burn a restart on caller input. A
// cluster router checks the same contract before its scatter, so caller
// input is never counted against a healthy node.
func CheckSample(layer *embedding.Layer, sample trace.Sample) error {
	if len(sample) == 0 {
		return errors.New("serve: empty sample")
	}
	for i, op := range sample {
		if op.Table < 0 || op.Table >= layer.Tables() {
			return fmt.Errorf("serve: op %d table %d out of [0,%d)", i, op.Table, layer.Tables())
		}
		if len(op.Indices) == 0 {
			return fmt.Errorf("serve: op %d has no indices", i)
		}
		if len(op.Weights) != len(op.Indices) {
			return fmt.Errorf("serve: op %d has %d weights for %d indices",
				i, len(op.Weights), len(op.Indices))
		}
		rows := layer.Table(op.Table).Rows()
		for _, idx := range op.Indices {
			if idx < 0 || idx >= rows {
				return fmt.Errorf("serve: op %d index %d out of [0,%d)", i, idx, rows)
			}
		}
	}
	return nil
}

// Lookup serves one sample's embedding work: the sample is queued,
// coalesced into a batch and run through a replica's timing model; then
// its functional result vectors are reduced here, on the caller's
// goroutine. ctx cancellation is honored until the verdict arrives —
// blocked at admission, queued, or riding a running batch; a request
// canceled after admission counts as Canceled and is never reduced.
// Replica faults are invisible here: a failed batch is retried on a
// healthy replica (up to MaxRetries) and then answered from the
// functional layer with Result.Degraded set.
func (s *Server) Lookup(ctx context.Context, sample trace.Sample) (*Result, error) {
	if err := CheckSample(s.opts.Layer, sample); err != nil {
		return nil, err
	}
	if s.opts.DefaultTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.DefaultTimeout)
			defer cancel()
		}
	}
	r := &request{ctx: ctx, sample: sample, enq: time.Now(), done: make(chan *Result, 1)}

	// The read lock spans the enqueue so Close (write lock) cannot close
	// s.in while an admission send is in flight, and joins s.lookups
	// before Close can wait on it.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	s.lookups.Add(1)
	defer s.lookups.Done()
	switch s.opts.Policy {
	case Shed:
		select {
		case s.in <- r:
		default:
			s.mu.RUnlock()
			s.metrics.Shed.Add(1)
			return nil, ErrOverloaded
		}
	default: // Block
		select {
		case s.in <- r:
		case <-ctx.Done():
			s.mu.RUnlock()
			s.metrics.Canceled.Add(1)
			return nil, ctx.Err()
		}
	}
	s.mu.RUnlock()
	s.metrics.Admitted.Add(1)

	select {
	case res := <-r.done:
		return s.answer(r, res)
	case <-ctx.Done():
		// Still queued (dropped at dequeue) or riding a batch (its
		// verdict is discarded; the buffered done channel frees the
		// worker). If a verdict won the race, drop it unreduced.
		if !r.settled.CompareAndSwap(false, true) {
			<-r.done
		}
		s.metrics.Canceled.Add(1)
		return nil, ctx.Err()
	}
}

// Close gracefully drains the server: admission stops with ErrClosed,
// every already-admitted request is batched and answered (normally or
// degraded), and all tracked goroutines exit and every admitted Lookup
// returns before Close does.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	close(s.in)        // dispatcher drains the queue, flushes, exits
	<-s.dispatcherDone // all batches handed to workers (or served degraded)

	// A replica failing from here on drains its queue instead of
	// restarting. Every work channel closes under the write lock so no
	// failover resubmission can race a send onto a closed channel; each
	// still has its one worker reading it, so every queued batch is
	// answered before workers.Wait returns.
	close(s.stopRestarts)
	s.workMu.Lock()
	s.workClosed = true
	for _, rep := range s.replicas {
		close(rep.work)
	}
	s.workMu.Unlock()
	s.workers.Wait()
	close(s.watchStop) // only now: a batch wedged during the drain was still claimed
	<-s.watchDone

	// Every admitted request has its verdict; wait for the callers still
	// reducing their answers, which may read the cold tier OnClose closes.
	s.lookups.Wait()
	if s.opts.OnClose != nil {
		s.opts.OnClose()
	}
	return nil
}
