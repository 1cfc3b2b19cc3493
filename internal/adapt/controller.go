package adapt

import (
	"fmt"
	"sync"
	"time"

	"recross/internal/metrics"
	"recross/internal/nmp"
	"recross/internal/partition"
	"recross/internal/trace"
)

// Options configures a Controller.
type Options struct {
	// Spec is the workload (required).
	Spec trace.ModelSpec
	// Placement is the deployed plan (required): drift is measured against
	// its profile and replans are priced against its decision.
	Placement *partition.Placement
	// Batch is the batch size the replanner optimizes for (required).
	Batch int

	// TopK is the frequency tracker's per-table sketch capacity.
	TopK int

	// Interval is the control-window length for the background loop
	// started by Start (default 2s). Step may also be called manually —
	// tests drive the loop deterministically that way.
	Interval time.Duration
	// Threshold is the drift score that counts a window as drifted
	// (default 0.12).
	Threshold float64
	// Windows is how many consecutive drifted windows fire the replanner
	// (default 2).
	Windows int
	// Cooldown is the minimum time between adoptions (default 30s).
	Cooldown time.Duration
	// MinGain is the minimum predicted speedup (OldT/NewT - 1) a plan
	// must clear (default 0.05).
	MinGain float64
	// AmortizeBatches is the horizon over which a plan's per-batch gain
	// must repay its migration cost (default 10000).
	AmortizeBatches int64
	// MinSamples is the minimum observed (post-decay) sample count
	// before the replanner trusts the sketches (default 200).
	MinSamples int64

	// Adopt deploys an accepted placement, built once for every replica —
	// typically staging serve.Server system updates. Required for
	// adoption; nil runs the loop in observe-only mode (drift metrics, no
	// action).
	Adopt func(pl *partition.Placement) error
	// ServiceCycles, when non-nil, returns the cumulative count and sum
	// of the serving layer's per-batch simulated service cycles; the
	// controller differences consecutive windows to report the realized
	// (as opposed to estimated) gain of an adoption.
	ServiceCycles func() (count int64, sum float64)
	// ColdHealthy, when non-nil, probes the storage tier's health before
	// a plan that demotes DRAM rows to the cold tier is adopted: while it
	// reports false the demotion is paused (rejected with ColdPaused
	// counted) so hot rows are not migrated onto a degraded device.
	// Promotion-only and DRAM-only plans adopt regardless.
	ColdHealthy func() bool
}

func (o Options) withDefaults() Options {
	if o.TopK == 0 {
		o.TopK = 512
	}
	if o.Interval == 0 {
		o.Interval = 2 * time.Second
	}
	if o.Threshold == 0 {
		o.Threshold = 0.12
	}
	if o.Windows == 0 {
		o.Windows = 2
	}
	if o.Cooldown == 0 {
		o.Cooldown = 30 * time.Second
	}
	if o.MinGain == 0 {
		o.MinGain = 0.05
	}
	if o.AmortizeBatches == 0 {
		o.AmortizeBatches = 10000
	}
	if o.MinSamples == 0 {
		o.MinSamples = 200
	}
	return o
}

// StepResult reports one control window.
type StepResult struct {
	Drift Drift
	// Replanned is set when the drift fired and a fresh solve ran.
	Replanned bool
	// Plan is the priced migration when Replanned (nil otherwise).
	Plan *Plan
	// Adopted is set when the plan passed the hysteresis gate and the
	// Adopt callback succeeded.
	Adopted bool
	// Err carries a replan/adopt failure (the loop keeps running).
	Err error
}

// Controller is the online control loop: observe → detect → replan →
// gate → adopt. Create with NewController; Observe is safe for
// concurrent use (it is the serving hot path), everything else is
// serialized by the controller's own goroutine or the caller's manual
// Step calls.
type Controller struct {
	opts    Options
	tracker *Tracker

	mu       sync.Mutex // guards the control-loop state below
	detector *Detector
	current  *partition.Placement

	lastAdopt     time.Time
	prevSvcCount  int64
	prevSvcSum    float64
	preAdoptMean  float64 // windowed service-cycle mean just before adoption
	awaitRealized bool

	metrics Metrics

	stop chan struct{}
	done chan struct{}
}

// NewController validates opts and builds the loop (not yet started).
func NewController(opts Options) (*Controller, error) {
	opts = opts.withDefaults()
	if opts.Placement == nil {
		return nil, fmt.Errorf("adapt: deployed placement required")
	}
	if opts.Batch <= 0 {
		return nil, fmt.Errorf("adapt: batch %d <= 0", opts.Batch)
	}
	tracker, err := NewTracker(opts.Spec, TrackerOptions{TopK: opts.TopK})
	if err != nil {
		return nil, err
	}
	det, err := NewDetector(opts.Placement.Profile(), opts.Threshold, opts.Windows)
	if err != nil {
		return nil, err
	}
	return &Controller{
		opts:     opts,
		tracker:  tracker,
		detector: det,
		current:  opts.Placement,
	}, nil
}

// Observe feeds one served sample into the tracker (hot path).
func (c *Controller) Observe(s trace.Sample) { c.tracker.Observe(s) }

// Tracker exposes the frequency tracker (for benchmarks and tests).
func (c *Controller) Tracker() *Tracker { return c.tracker }

// Current returns the deployed placement (post-adoption it is the adopted
// one) — the serving stack builds replacement replicas on it so a restart
// does not resurrect a stale mapping.
func (c *Controller) Current() *partition.Placement {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.current
}

// Start launches the background loop at the configured interval.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.stop != nil {
		c.mu.Unlock()
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	stop, done := c.stop, c.done
	c.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(c.opts.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.Step()
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the background loop (idempotent; safe if never started).
func (c *Controller) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Step runs one control window synchronously: score drift, maybe replan,
// gate, maybe adopt, then decay the sketches. Tests call it directly for
// a deterministic loop; the background goroutine calls it on a ticker.
func (c *Controller) Step() StepResult {
	c.mu.Lock()
	defer c.mu.Unlock()

	var res StepResult
	c.metrics.Windows++

	// Windowed service-cycle mean (for realized-gain accounting).
	winMean := c.serviceWindowMean()

	snaps := c.tracker.Snapshot()
	dr, err := c.detector.Observe(snaps)
	if err != nil {
		res.Err = err
		c.metrics.Errors++
		return res
	}
	res.Drift = dr
	c.metrics.DriftScore = dr.Score
	c.metrics.DriftKS = dr.KS

	if c.awaitRealized && winMean > 0 {
		if c.preAdoptMean > 0 {
			c.metrics.RealizedGain = c.preAdoptMean / winMean
		}
		c.awaitRealized = false
	}

	if dr.Fired {
		c.metrics.Triggers++
		res = c.replan(res, snaps, winMean)
	}

	c.tracker.Decay()
	return res
}

// replan solves under the live profile and applies the hysteresis gate.
// Called with c.mu held.
func (c *Controller) replan(res StepResult, snaps []TableSnapshot, winMean float64) StepResult {
	if n := c.tracker.Samples(); n < c.opts.MinSamples {
		// Not enough live evidence to trust a solve; keep watching.
		c.metrics.Skipped++
		return res
	}
	if !c.lastAdopt.IsZero() && time.Since(c.lastAdopt) < c.opts.Cooldown {
		// Too soon after the last adoption: nothing could be adopted, so
		// nothing is solved.
		c.metrics.Rejected++
		return res
	}
	prof, err := c.tracker.Profile()
	if err != nil {
		res.Err = err
		c.metrics.Errors++
		return res
	}
	next, err := partition.SolveLP(prof, c.current.Regions(), c.opts.Batch)
	if err != nil {
		res.Err = fmt.Errorf("adapt: replan solve: %w", err)
		c.metrics.Errors++
		return res
	}
	// Price the incumbent under the live traffic's identity, not just its
	// shape — a permuted hot set looks identical to a shape-based estimate.
	shares, err := c.detector.SegShares(snaps)
	if err != nil {
		res.Err = err
		c.metrics.Errors++
		return res
	}
	plan, err := PlanMigration(prof, c.current.Decision(), next, c.opts.Batch, shares)
	if err != nil {
		res.Err = err
		c.metrics.Errors++
		return res
	}
	res.Replanned = true
	res.Plan = plan
	c.metrics.Replans++
	c.metrics.LastSpeedup = plan.Speedup

	if !plan.Worthwhile(c.opts.MinGain, c.opts.AmortizeBatches) {
		c.metrics.Rejected++
		return res
	}
	if c.opts.Adopt == nil {
		c.metrics.Rejected++
		return res
	}
	// The accepted plan's one build, diffed and then deployed everywhere.
	nextPl, err := partition.Build(prof, next)
	if err != nil {
		res.Err = fmt.Errorf("adapt: replan placement: %w", err)
		c.metrics.Errors++
		return res
	}
	// With a cold tier in play, diff the placements to count rows
	// crossing the DRAM/cold boundary — row-fraction deltas cannot see a
	// permutation that swaps whole populations across it. Diffed before
	// adoption so the demotion count can gate it: while the storage tier
	// is degraded, demoting DRAM-resident rows onto the failing device
	// would convert today's slow path into tomorrow's failure path, so
	// such plans wait for the scrubber to declare the device healthy.
	if hasColdRegion(next.Regions) {
		plan.ColdPromotedRows, plan.ColdDemotedRows = partition.DiffCold(c.current, nextPl)
		if plan.ColdDemotedRows > 0 && c.opts.ColdHealthy != nil && !c.opts.ColdHealthy() {
			c.metrics.ColdPaused++
			c.metrics.Rejected++
			return res
		}
	}
	if err := c.opts.Adopt(nextPl); err != nil {
		res.Err = fmt.Errorf("adapt: adoption: %w", err)
		c.metrics.Errors++
		return res
	}
	res.Adopted = true
	c.metrics.Adoptions++
	c.metrics.RowsMigrated += plan.RowsMoved
	c.metrics.BytesMigrated += plan.BytesMoved
	c.metrics.ColdPromotedRows += plan.ColdPromotedRows
	c.metrics.ColdDemotedRows += plan.ColdDemotedRows
	c.metrics.EstimatedGain = plan.Speedup
	c.lastAdopt = time.Now()
	c.preAdoptMean = winMean
	c.awaitRealized = true

	// The adopted profile becomes the new baseline: drift is henceforth
	// measured against what is actually deployed. The sketches restart
	// empty — their counts straddle the drift that forced this change, and
	// the next replan must price pure post-adoption traffic.
	det, err := NewDetector(prof, c.opts.Threshold, c.opts.Windows)
	if err == nil {
		c.detector = det
	}
	c.tracker.Reset()
	c.current = nextPl
	return res
}

// hasColdRegion reports whether any region is the flash cold tier.
func hasColdRegion(regions []partition.Region) bool {
	for _, r := range regions {
		if r.Level == nmp.LevelCold {
			return true
		}
	}
	return false
}

// serviceWindowMean differences the serving layer's cumulative service
// cycles into this window's mean cycles per batch (0 when unavailable or
// the window served nothing). Called with c.mu held.
func (c *Controller) serviceWindowMean() float64 {
	if c.opts.ServiceCycles == nil {
		return 0
	}
	count, sum := c.opts.ServiceCycles()
	dc, ds := count-c.prevSvcCount, sum-c.prevSvcSum
	c.prevSvcCount, c.prevSvcSum = count, sum
	if dc <= 0 {
		return 0
	}
	return ds / float64(dc)
}

// Metrics is the control loop's counters and gauges. Snapshot with
// Controller.Metrics; published on /metrics by RegisterMetrics.
type Metrics struct {
	// Windows counts control windows evaluated.
	Windows int64
	// Triggers counts windows where the drift detector fired.
	Triggers int64
	// Replans counts solves run after a trigger.
	Replans int64
	// Adoptions counts plans that passed the gate and deployed.
	Adoptions int64
	// Rejected counts triggers the hysteresis gate turned away: inside
	// the cooldown (before any solve, so not in Replans), or with a
	// solved plan of insufficient gain or unamortized migration cost.
	Rejected int64
	// Skipped counts triggers ignored for lack of observed samples.
	Skipped int64
	// Errors counts solve/adoption failures.
	Errors int64
	// RowsMigrated and BytesMigrated accumulate adopted plans' volumes.
	RowsMigrated  int64
	BytesMigrated int64
	// ColdPromotedRows and ColdDemotedRows accumulate adopted plans' rows
	// crossing the DRAM/cold boundary (zero without a cold tier).
	ColdPromotedRows int64
	ColdDemotedRows  int64
	// ColdPaused counts demoting plans rejected because the storage tier
	// was degraded when they came up for adoption (also in Rejected).
	ColdPaused int64
	// DriftScore and DriftKS are the latest window's values.
	DriftScore float64
	DriftKS    float64
	// LastSpeedup is the latest plan's predicted speedup (adopted or not).
	LastSpeedup float64
	// EstimatedGain is the last adopted plan's predicted speedup;
	// RealizedGain is the measured pre/post windowed service-cycle ratio
	// for that adoption (0 until one full post-adoption window passes).
	EstimatedGain float64
	RealizedGain  float64
	// SamplesObserved is the tracker's live (decayed) sample count.
	SamplesObserved int64
}

// Metrics snapshots the loop's counters.
func (c *Controller) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.metrics
	m.SamplesObserved = c.tracker.Samples()
	return m
}

// RegisterMetrics publishes the recross_adapt_* series in set (the
// serving layer's). One locked Metrics snapshot is taken per scrape; the
// series read its fields.
func (c *Controller) RegisterMetrics(set *metrics.Set) {
	var m Metrics
	set.OnScrape(func() { m = c.Metrics() })
	set.Counter("recross_adapt_windows_total", "Control windows evaluated.", func() int64 { return m.Windows })
	set.Counter("recross_adapt_triggers_total", "Windows where the drift detector fired.", func() int64 { return m.Triggers })
	set.Counter("recross_adapt_replans_total", "Solves run after a trigger.", func() int64 { return m.Replans })
	set.Counter("recross_adapt_repartitions_total", "Plans that passed the gate and deployed.", func() int64 { return m.Adoptions })
	set.Counter("recross_adapt_rejected_total", "Triggers inside the cooldown and plans killed by the hysteresis gate.", func() int64 { return m.Rejected })
	set.Counter("recross_adapt_skipped_total", "Triggers ignored for lack of observed samples.", func() int64 { return m.Skipped })
	set.Counter("recross_adapt_errors_total", "Solve or adoption failures.", func() int64 { return m.Errors })
	set.Counter("recross_adapt_rows_migrated_total", "Rows moved by adopted plans.", func() int64 { return m.RowsMigrated })
	set.Counter("recross_adapt_bytes_migrated_total", "Bytes moved by adopted plans.", func() int64 { return m.BytesMigrated })
	set.Counter("recross_adapt_cold_promoted_rows_total", "Rows moved from the cold tier into DRAM.", func() int64 { return m.ColdPromotedRows })
	set.Counter("recross_adapt_cold_demoted_rows_total", "Rows moved from DRAM to the cold tier.", func() int64 { return m.ColdDemotedRows })
	set.Counter("recross_adapt_cold_paused_total", "Demoting plans rejected while the storage tier was degraded.", func() int64 { return m.ColdPaused })
	set.Gauge("recross_adapt_drift_score", "Latest window's drift score.", func() float64 { return m.DriftScore })
	set.Gauge("recross_adapt_drift_ks", "Latest window's KS statistic.", func() float64 { return m.DriftKS })
	set.Gauge("recross_adapt_last_speedup", "Latest plan's predicted speedup.", func() float64 { return m.LastSpeedup })
	set.Gauge("recross_adapt_estimated_gain", "Last adopted plan's predicted speedup.", func() float64 { return m.EstimatedGain })
	set.Gauge("recross_adapt_realized_gain", "Measured service-cycle ratio around the last adoption.", func() float64 { return m.RealizedGain })
	set.IntGauge("recross_adapt_samples_observed", "The tracker's live (decayed) sample count.", func() int64 { return m.SamplesObserved })
}
