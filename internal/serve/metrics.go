package serve

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Hist is a lock-free streaming histogram of non-negative int64 samples
// (latencies in nanoseconds, simulated cycles, batch sizes). Samples are
// bucketed log-linearly — 16 sub-buckets per power of two — so percentile
// estimates carry at most ~6% relative error while Record is a single
// atomic add on the hot path. The zero value is NOT ready; use NewHist.
type Hist struct {
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// histSubBits is the log2 of the sub-buckets per octave.
const histSubBits = 4

// NewHist returns an empty histogram.
func NewHist() *Hist {
	// 64 octaves x 16 sub-buckets covers the whole non-negative int64 range.
	return &Hist{buckets: make([]atomic.Int64, 64<<histSubBits)}
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v < 1<<histSubBits {
		return int(v) // exact buckets for tiny values
	}
	// Position of the leading bit selects the octave; the next histSubBits
	// bits select the sub-bucket.
	exp := 63 - bits.LeadingZeros64(uint64(v))
	sub := (v >> (uint(exp) - histSubBits)) & (1<<histSubBits - 1)
	return (exp << histSubBits) + int(sub)
}

// bucketMid returns a representative value for bucket i (its midpoint).
func bucketMid(i int) float64 {
	if i < 1<<histSubBits {
		return float64(i)
	}
	exp := i >> histSubBits
	sub := i & (1<<histSubBits - 1)
	lo := float64(int64(1)<<uint(exp)) * (1 + float64(sub)/(1<<histSubBits))
	width := float64(int64(1)<<uint(exp)) / (1 << histSubBits)
	return lo + width/2
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordSince records the elapsed nanoseconds since t.
func (h *Hist) RecordSince(t time.Time) { h.Record(time.Since(t).Nanoseconds()) }

// HistSnapshot is a point-in-time percentile summary of a Hist.
type HistSnapshot struct {
	Count         int64
	Mean          float64
	P50, P95, P99 float64
	Max           int64
}

// Snapshot summarizes the histogram. Concurrent Records may or may not be
// included; the snapshot is internally consistent enough for reporting.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Max: h.max.Load()}
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(h.sum.Load()) / float64(s.Count)
	ranks := []float64{0.50, 0.95, 0.99}
	out := make([]float64, len(ranks))
	var seen int64
	ri := 0
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		for ri < len(ranks) && float64(seen) >= ranks[ri]*float64(s.Count) {
			out[ri] = bucketMid(i)
			ri++
		}
		if ri == len(ranks) {
			break
		}
	}
	for ; ri < len(ranks); ri++ {
		out[ri] = float64(s.Max)
	}
	s.P50, s.P95, s.P99 = out[0], out[1], out[2]
	return s
}

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
	// Canceled counts requests whose context expired while queued (dropped
	// at dequeue time) or while blocked at admission.
	Canceled atomic.Int64
	// Batches counts simulated batches executed.
	Batches atomic.Int64
	// BatchSamples sums the samples over all executed batches
	// (BatchSamples/Batches is the mean coalescing factor).
	BatchSamples atomic.Int64

	// Degraded counts requests answered from the functional layer with
	// Result.Degraded set (also included in Completed).
	Degraded atomic.Int64
	// DegradedCold counts requests completed while the storage tier was
	// degraded (Result.ColdDegraded; also included in Completed) —
	// storage-path degradation, disjoint from quorum-loss Degraded.
	DegradedCold atomic.Int64
	// Retries counts failed-batch resubmissions to another replica.
	Retries atomic.Int64
	// Restarts counts successful supervisor replica rebuilds.
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

// NewMetrics returns a ready registry.
func NewMetrics() *Metrics {
	return &Metrics{
		QueueWait:     NewHist(),
		BatchForm:     NewHist(),
		ServiceCycles: NewHist(),
		E2E:           NewHist(),
	}
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
	Batches, BatchSamples                       int64

	Degraded, DegradedCold, Retries, Restarts           int64
	FaultPanics, FaultWedges, FaultCorrupt, FaultErrors int64
	UpdatesStaged, UpdatesApplied, UpdateFailures       int64

	QueueWait, BatchForm, ServiceCycles, E2E HistSnapshot
}

// Snapshot captures the registry.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Admitted:       m.Admitted.Load(),
		Completed:      m.Completed.Load(),
		Failed:         m.Failed.Load(),
		Shed:           m.Shed.Load(),
		Canceled:       m.Canceled.Load(),
		Batches:        m.Batches.Load(),
		BatchSamples:   m.BatchSamples.Load(),
		Degraded:       m.Degraded.Load(),
		DegradedCold:   m.DegradedCold.Load(),
		Retries:        m.Retries.Load(),
		Restarts:       m.Restarts.Load(),
		FaultPanics:    m.FaultPanics.Load(),
		FaultWedges:    m.FaultWedges.Load(),
		FaultCorrupt:   m.FaultCorrupt.Load(),
		FaultErrors:    m.FaultErrors.Load(),
		UpdatesStaged:  m.UpdatesStaged.Load(),
		UpdatesApplied: m.UpdatesApplied.Load(),
		UpdateFailures: m.UpdateFailures.Load(),
		QueueWait:      m.QueueWait.Snapshot(),
		BatchForm:      m.BatchForm.Snapshot(),
		ServiceCycles:  m.ServiceCycles.Snapshot(),
		E2E:            m.E2E.Snapshot(),
	}
}

// MeanBatch returns the mean samples per executed batch (0 if none ran).
func (s Snapshot) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchSamples) / float64(s.Batches)
}

// Expo renders the snapshot in Prometheus text exposition format.
func (s Snapshot) Expo() string {
	var b []byte
	counter := func(name string, v int64) {
		b = append(b, fmt.Sprintf("# TYPE %s counter\n%s %d\n", name, name, v)...)
	}
	gauge := func(name string, v float64) {
		if math.IsNaN(v) {
			v = 0
		}
		b = append(b, fmt.Sprintf("# TYPE %s gauge\n%s %g\n", name, name, v)...)
	}
	counter("recross_requests_admitted_total", s.Admitted)
	counter("recross_requests_completed_total", s.Completed)
	counter("recross_requests_failed_total", s.Failed)
	counter("recross_requests_shed_total", s.Shed)
	counter("recross_requests_canceled_total", s.Canceled)
	counter("recross_requests_degraded_total", s.Degraded)
	counter("recross_requests_cold_degraded_total", s.DegradedCold)
	counter("recross_retries_total", s.Retries)
	counter("recross_replica_restarts_total", s.Restarts)
	counter("recross_replica_faults_panic_total", s.FaultPanics)
	counter("recross_replica_faults_wedge_total", s.FaultWedges)
	counter("recross_replica_faults_corrupt_total", s.FaultCorrupt)
	counter("recross_replica_faults_error_total", s.FaultErrors)
	counter("recross_updates_staged_total", s.UpdatesStaged)
	counter("recross_updates_applied_total", s.UpdatesApplied)
	counter("recross_update_failures_total", s.UpdateFailures)
	counter("recross_batches_total", s.Batches)
	gauge("recross_batch_mean_samples", s.MeanBatch())
	hist := func(prefix string, h HistSnapshot, scale float64) {
		gauge(prefix+"_p50", h.P50*scale)
		gauge(prefix+"_p95", h.P95*scale)
		gauge(prefix+"_p99", h.P99*scale)
		gauge(prefix+"_mean", h.Mean*scale)
	}
	const toSeconds = 1e-9
	hist("recross_queue_wait_seconds", s.QueueWait, toSeconds)
	hist("recross_batch_form_seconds", s.BatchForm, toSeconds)
	hist("recross_e2e_seconds", s.E2E, toSeconds)
	hist("recross_service_cycles", s.ServiceCycles, 1)
	return string(b)
}

// Expo renders the health report in Prometheus text exposition format:
// per-replica state (0 healthy, 1 suspect, 2 restarting, 3 dead),
// failure and restart counters, and the degraded-mode gauge. Appended to
// Snapshot.Expo by the /metrics handler.
func (h HealthReport) Expo() string {
	var b strings.Builder
	b.WriteString("# TYPE recross_replica_state gauge\n")
	for _, r := range h.Replicas {
		code := 0
		switch r.State {
		case "suspect":
			code = 1
		case "restarting":
			code = 2
		case "dead":
			code = 3
		}
		fmt.Fprintf(&b, "recross_replica_state{replica=%q} %d\n", strconv.Itoa(r.ID), code)
	}
	b.WriteString("# TYPE recross_replica_failures gauge\n")
	for _, r := range h.Replicas {
		fmt.Fprintf(&b, "recross_replica_failures{replica=%q} %d\n", strconv.Itoa(r.ID), r.Failures)
	}
	b.WriteString("# TYPE recross_replica_restarts gauge\n")
	for _, r := range h.Replicas {
		fmt.Fprintf(&b, "recross_replica_restarts{replica=%q} %d\n", strconv.Itoa(r.ID), r.Restarts)
	}
	degraded := 0
	if h.Available < h.Quorum {
		degraded = 1
	}
	coldDegraded := 0
	if h.ColdDegraded {
		coldDegraded = 1
	}
	fmt.Fprintf(&b, "# TYPE recross_replicas_available gauge\nrecross_replicas_available %d\n", h.Available)
	fmt.Fprintf(&b, "# TYPE recross_degraded_mode gauge\nrecross_degraded_mode %d\n", degraded)
	fmt.Fprintf(&b, "# TYPE recross_cold_degraded_mode gauge\nrecross_cold_degraded_mode %d\n", coldDegraded)
	return b.String()
}

// percentileDurations converts a nanosecond slice into p50/p95/p99
// durations (used by the load generator's exact report).
func percentileDurations(ns []float64) (p50, p95, p99 time.Duration) {
	if len(ns) == 0 {
		return 0, 0, 0
	}
	s := make([]float64, len(ns))
	copy(s, ns)
	sort.Float64s(s)
	at := func(p float64) time.Duration {
		r := p / 100 * float64(len(s)-1)
		i := int(r)
		if i+1 >= len(s) {
			return time.Duration(s[len(s)-1])
		}
		frac := r - float64(i)
		return time.Duration(s[i] + frac*(s[i+1]-s[i]))
	}
	return at(50), at(95), at(99)
}
