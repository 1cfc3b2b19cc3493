package serve

import (
	"sync/atomic"

	"recross/internal/metrics"
)

// Hist and HistSnapshot are the shared streaming histogram; the aliases
// keep Snapshot's field types (and recross.ServeSnapshot) as they were.
type (
	Hist         = metrics.Hist
	HistSnapshot = metrics.HistSnapshot
)

// Metrics is the serving layer's registry: lock-cheap counters plus
// streaming latency histograms. All fields are safe for concurrent use.
type Metrics struct {
	// Admitted counts requests accepted into the queue.
	Admitted atomic.Int64
	// Completed counts requests answered successfully.
	Completed atomic.Int64
	// Failed counts requests answered with a simulation/functional error.
	Failed atomic.Int64
	// Shed counts requests rejected with ErrOverloaded at admission.
	Shed atomic.Int64
	// Canceled counts requests whose context ended before they were
	// answered: blocked at admission, queued, or riding a running batch
	// (whose verdict is then discarded, never reduced). Every admitted
	// request lands in exactly one of Completed, Failed and Canceled.
	Canceled atomic.Int64
	// Batches counts simulated batches executed.
	Batches atomic.Int64
	// BatchSamples sums the samples over all executed batches
	// (BatchSamples/Batches is the mean coalescing factor).
	BatchSamples atomic.Int64
	// DeadlineFlushes counts batches that waited out the full MaxDelay
	// (every replica stayed busy while they formed).
	DeadlineFlushes atomic.Int64

	// Degraded counts requests answered from the functional layer with
	// Result.Degraded set (also included in Completed).
	Degraded atomic.Int64
	// DegradedCold counts requests completed while the storage tier was
	// degraded (Result.ColdDegraded; also included in Completed) —
	// storage-path degradation, disjoint from quorum-loss Degraded.
	DegradedCold atomic.Int64
	// Retries counts failed-batch resubmissions to another replica.
	Retries atomic.Int64
	// Restarts counts successful replica rebuilds.
	Restarts atomic.Int64
	// FaultPanics/FaultWedges/FaultCorrupt/FaultErrors count replica
	// faults by kind (recovered panics, abandoned wedged batches,
	// corrupt run stats, ordinary Run errors).
	FaultPanics  atomic.Int64
	FaultWedges  atomic.Int64
	FaultCorrupt atomic.Int64
	FaultErrors  atomic.Int64

	// UpdatesStaged/UpdatesApplied/UpdateFailures count staged System
	// updates (see Server.StageUpdate): replica-stagings requested,
	// batch-boundary applications, and failed applications (the replica
	// keeps serving its old System).
	UpdatesStaged  atomic.Int64
	UpdatesApplied atomic.Int64
	UpdateFailures atomic.Int64

	// QueueWait is the admission-to-dequeue wait, nanoseconds.
	QueueWait *Hist
	// BatchForm is the batch formation delay (first dequeue to flush),
	// nanoseconds.
	BatchForm *Hist
	// ServiceCycles is the simulated DRAM-cycle latency per batch.
	ServiceCycles *Hist
	// E2E is the end-to-end wall latency per completed request, nanoseconds.
	E2E *Hist
}

// NewMetrics returns a ready registry with every series registered in
// set: this list is the one place the serving counters get their names.
func NewMetrics(set *metrics.Set) *Metrics {
	m := &Metrics{
		QueueWait:     metrics.NewHist(),
		BatchForm:     metrics.NewHist(),
		ServiceCycles: metrics.NewHist(),
		E2E:           metrics.NewHist(),
	}
	set.Counter("recross_requests_admitted_total", "Requests accepted into the queue.", m.Admitted.Load)
	set.Counter("recross_requests_completed_total", "Requests answered successfully.", m.Completed.Load)
	set.Counter("recross_requests_failed_total", "Requests answered with a simulation or functional error.", m.Failed.Load)
	set.Counter("recross_requests_shed_total", "Requests rejected at admission under the shed policy.", m.Shed.Load)
	set.Counter("recross_requests_canceled_total", "Requests whose context ended before it was answered.", m.Canceled.Load)
	set.Counter("recross_requests_degraded_total", "Requests answered from the functional layer (no healthy replica).", m.Degraded.Load)
	set.Counter("recross_requests_cold_degraded_total", "Requests completed while the storage tier was degraded.", m.DegradedCold.Load)
	set.Counter("recross_retries_total", "Failed-batch resubmissions to another replica.", m.Retries.Load)
	set.Counter("recross_replica_restarts_total", "Successful replica rebuilds.", m.Restarts.Load)
	set.Counter("recross_replica_faults_panic_total", "Replica Run panics recovered.", m.FaultPanics.Load)
	set.Counter("recross_replica_faults_wedge_total", "Wedged batches abandoned.", m.FaultWedges.Load)
	set.Counter("recross_replica_faults_corrupt_total", "Batches with detectably corrupt run stats.", m.FaultCorrupt.Load)
	set.Counter("recross_replica_faults_error_total", "Ordinary replica Run errors.", m.FaultErrors.Load)
	set.Counter("recross_updates_staged_total", "Replica System updates staged.", m.UpdatesStaged.Load)
	set.Counter("recross_updates_applied_total", "Staged updates applied at a batch boundary.", m.UpdatesApplied.Load)
	set.Counter("recross_update_failures_total", "Staged updates that failed to apply.", m.UpdateFailures.Load)
	set.Counter("recross_batches_total", "Simulated batches executed.", m.Batches.Load)
	set.Counter("recross_batch_deadline_flushes_total", "Batches that waited out the full MaxDelay while every replica was busy.", m.DeadlineFlushes.Load)
	set.Gauge("recross_batch_mean_samples", "Mean samples per executed batch.", func() float64 {
		return Snapshot{Batches: m.Batches.Load(), BatchSamples: m.BatchSamples.Load()}.MeanBatch()
	})
	set.Quantiles("recross_queue_wait_seconds", "Admission-to-dequeue wait", m.QueueWait, 1e-9)
	set.Quantiles("recross_batch_form_seconds", "Batch formation delay", m.BatchForm, 1e-9)
	set.Quantiles("recross_e2e_seconds", "End-to-end wall latency per completed request", m.E2E, 1e-9)
	set.Quantiles("recross_service_cycles", "Simulated DRAM-cycle latency per batch", m.ServiceCycles, 1)
	return m
}

// faultCounter maps a failure kind to its counter.
func (m *Metrics) faultCounter(f Failure) *atomic.Int64 {
	switch f {
	case FailurePanic:
		return &m.FaultPanics
	case FailureWedge:
		return &m.FaultWedges
	case FailureCorrupt:
		return &m.FaultCorrupt
	default:
		return &m.FaultErrors
	}
}

// Snapshot is a point-in-time copy of every metric.
type Snapshot struct {
	Admitted, Completed, Failed, Shed, Canceled int64
	Batches, BatchSamples, DeadlineFlushes      int64

	Degraded, DegradedCold, Retries, Restarts           int64
	FaultPanics, FaultWedges, FaultCorrupt, FaultErrors int64
	UpdatesStaged, UpdatesApplied, UpdateFailures       int64

	QueueWait, BatchForm, ServiceCycles, E2E HistSnapshot
}

// Snapshot captures the registry.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Admitted:        m.Admitted.Load(),
		Completed:       m.Completed.Load(),
		Failed:          m.Failed.Load(),
		Shed:            m.Shed.Load(),
		Canceled:        m.Canceled.Load(),
		Batches:         m.Batches.Load(),
		BatchSamples:    m.BatchSamples.Load(),
		DeadlineFlushes: m.DeadlineFlushes.Load(),
		Degraded:        m.Degraded.Load(),
		DegradedCold:    m.DegradedCold.Load(),
		Retries:         m.Retries.Load(),
		Restarts:        m.Restarts.Load(),
		FaultPanics:     m.FaultPanics.Load(),
		FaultWedges:     m.FaultWedges.Load(),
		FaultCorrupt:    m.FaultCorrupt.Load(),
		FaultErrors:     m.FaultErrors.Load(),
		UpdatesStaged:   m.UpdatesStaged.Load(),
		UpdatesApplied:  m.UpdatesApplied.Load(),
		UpdateFailures:  m.UpdateFailures.Load(),
		QueueWait:       m.QueueWait.Snapshot(),
		BatchForm:       m.BatchForm.Snapshot(),
		ServiceCycles:   m.ServiceCycles.Snapshot(),
		E2E:             m.E2E.Snapshot(),
	}
}

// MeanBatch returns the mean samples per executed batch (0 if none ran).
func (s Snapshot) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchSamples) / float64(s.Batches)
}
