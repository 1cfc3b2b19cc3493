package adapt

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"recross/internal/metrics"
	"recross/internal/partition"
	"recross/internal/trace"
)

func testController(t *testing.T, mutate func(*Options)) (*Controller, *trace.Generator, *int) {
	t.Helper()
	spec := testSpec()
	baseline, err := partition.NewProfile(spec, 7, 2500)
	if err != nil {
		t.Fatal(err)
	}
	regions := testRegions(spec.TotalBytes())
	dec, err := partition.SolveLP(baseline, regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := partition.Build(baseline, dec)
	if err != nil {
		t.Fatal(err)
	}
	adoptions := new(int)
	opts := Options{
		Spec:       spec,
		Placement:  pl,
		Batch:      32,
		MinSamples: 50,
		Adopt: func(*partition.Placement) error {
			*adoptions++
			return nil
		},
	}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := NewController(opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewGenerator(spec, 991)
	if err != nil {
		t.Fatal(err)
	}
	return c, g, adoptions
}

func stepWindow(c *Controller, g *trace.Generator, samples int) StepResult {
	for i := 0; i < samples; i++ {
		c.Observe(g.Sample())
	}
	return c.Step()
}

// TestControllerAdoptsExactlyOnceOnShift is the control loop end to end in
// manual (Step-driven) mode: quiet under stationary traffic, one adoption
// after a hot-set permutation, quiet again afterwards because the adopted
// profile becomes the drift baseline.
func TestControllerAdoptsExactlyOnceOnShift(t *testing.T) {
	var handed *partition.Placement
	c, g, adoptions := testController(t, func(o *Options) {
		count := o.Adopt
		o.Adopt = func(pl *partition.Placement) error {
			handed = pl
			return count(pl)
		}
	})

	for w := 0; w < 5; w++ {
		res := stepWindow(c, g, 400)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Adopted {
			t.Fatalf("adopted under stationary traffic at window %d (drift %.4f)", w, res.Drift.Score)
		}
	}
	if m := c.Metrics(); m.Triggers != 0 {
		t.Fatalf("%d triggers under stationary traffic", m.Triggers)
	}

	if err := g.ShiftHotSet(424242); err != nil {
		t.Fatal(err)
	}
	adoptedAt := -1
	for w := 0; w < 8; w++ {
		res := stepWindow(c, g, 400)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Adopted {
			adoptedAt = w
			if res.Plan == nil {
				t.Fatal("adoption without a plan")
			}
			t.Logf("adopted at post-shift window %d: speedup %.2f, %d rows / %d bytes to move",
				w, res.Plan.Speedup, res.Plan.RowsMoved, res.Plan.BytesMoved)
			if res.Plan.Speedup < 1.05 {
				t.Fatalf("adopted plan speedup %.3f below the MinGain gate", res.Plan.Speedup)
			}
			if res.Plan.RowsMoved <= 0 {
				t.Fatal("adopted plan moves no rows")
			}
			break
		}
	}
	if adoptedAt < 0 {
		t.Fatal("controller never adopted after hot-set shift")
	}

	// Post-adoption: live traffic now matches the adopted baseline; the
	// loop must settle (cooldown would block a re-fire anyway, but the
	// drift score itself should fall back under threshold).
	for w := 0; w < 4; w++ {
		res := stepWindow(c, g, 400)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Adopted {
			t.Fatalf("second adoption at settle window %d", w)
		}
	}
	if *adoptions != 1 {
		t.Fatalf("adopt callback ran %d times, want exactly 1", *adoptions)
	}
	m := c.Metrics()
	if m.Adoptions != 1 || m.RowsMigrated <= 0 || m.BytesMigrated <= 0 {
		t.Fatalf("metrics inconsistent after adoption: %+v", m)
	}
	if m.EstimatedGain < 1.05 {
		t.Fatalf("estimated gain %.3f not recorded", m.EstimatedGain)
	}
	// The adopted plan is queryable for replica rebuilds, and it is the
	// very placement Adopt was handed.
	if pl := c.Current(); pl == c.opts.Placement || pl != handed {
		t.Fatalf("Current %p: boot %p, handed to Adopt %p", pl, c.opts.Placement, handed)
	}
}

func TestControllerMinSamplesGuard(t *testing.T) {
	c, g, adoptions := testController(t, func(o *Options) { o.MinSamples = 1 << 40 })
	if err := g.ShiftHotSet(7); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 6; w++ {
		if res := stepWindow(c, g, 300); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	m := c.Metrics()
	if m.Triggers == 0 {
		t.Fatal("drift never triggered")
	}
	if m.Skipped == 0 || m.Replans != 0 || *adoptions != 0 {
		t.Fatalf("MinSamples guard did not hold: %+v", m)
	}
}

func TestControllerObserveOnlyMode(t *testing.T) {
	c, g, _ := testController(t, func(o *Options) { o.Adopt = nil })
	if err := g.ShiftHotSet(7); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 6; w++ {
		res := stepWindow(c, g, 400)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Adopted {
			t.Fatal("observe-only controller adopted")
		}
	}
	m := c.Metrics()
	if m.Replans == 0 || m.Rejected == 0 {
		t.Fatalf("observe-only mode should replan and reject: %+v", m)
	}
}

func TestControllerCooldownBlocksRefire(t *testing.T) {
	c, g, adoptions := testController(t, func(o *Options) { o.Cooldown = time.Hour })
	if err := g.ShiftHotSet(1); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 6 && *adoptions == 0; w++ {
		if res := stepWindow(c, g, 400); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if *adoptions != 1 {
		t.Fatalf("first adoption did not happen (%d)", *adoptions)
	}
	// Shift again: drift will fire, but the hour-long cooldown must hold.
	if err := g.ShiftHotSet(2); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 8; w++ {
		if res := stepWindow(c, g, 400); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if *adoptions != 1 {
		t.Fatalf("cooldown violated: %d adoptions", *adoptions)
	}
	if m := c.Metrics(); m.Rejected == 0 {
		t.Fatalf("second drift should have been rejected by cooldown: %+v", m)
	}
}

func TestControllerRealizedGain(t *testing.T) {
	var count int64
	var sum float64
	c, g, _ := testController(t, func(o *Options) {
		o.ServiceCycles = func() (int64, float64) { return count, sum }
	})
	// Window 1: mean 100 cycles.
	count, sum = 10, 1000
	if res := stepWindow(c, g, 200); res.Err != nil {
		t.Fatal(res.Err)
	}
	// Force an adoption path synthetically: shift and run to adoption.
	if err := g.ShiftHotSet(5); err != nil {
		t.Fatal(err)
	}
	adopted := false
	for w := 0; w < 6 && !adopted; w++ {
		count += 10
		sum += 2000 // degraded: 200 cycles/batch while stale
		res := stepWindow(c, g, 400)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		adopted = adopted || res.Adopted
	}
	if !adopted {
		t.Fatal("no adoption")
	}
	// Post-adoption window: recovered to 100 cycles/batch.
	count += 10
	sum += 1000
	if res := stepWindow(c, g, 400); res.Err != nil {
		t.Fatal(res.Err)
	}
	m := c.Metrics()
	if m.RealizedGain < 1.5 || m.RealizedGain > 2.5 {
		t.Fatalf("realized gain %.3f, want ~2 (200 -> 100 cycles/batch)", m.RealizedGain)
	}
}

func TestControllerStartStop(t *testing.T) {
	c, g, _ := testController(t, func(o *Options) { o.Interval = 5 * time.Millisecond })
	c.Start()
	c.Start() // idempotent
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			c.Observe(g.Sample())
		}
	}()
	<-done
	deadline := time.Now().Add(2 * time.Second)
	for c.Metrics().Windows == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never stepped")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
	after := c.Metrics().Windows
	time.Sleep(20 * time.Millisecond)
	if got := c.Metrics().Windows; got != after {
		t.Fatalf("loop still stepping after Stop: %d -> %d", after, got)
	}
}

// TestControllerExpoSeries: the registered series read the controller's
// live numbers (the series' names are held by the root metrics golden).
func TestControllerExpoSeries(t *testing.T) {
	c, g, _ := testController(t, nil)
	set := metrics.NewSet()
	c.RegisterMetrics(set)
	stepWindow(c, g, 100)
	var b strings.Builder
	set.WriteTo(&b)
	for _, want := range []string{
		"recross_adapt_windows_total 1\n",
		fmt.Sprintf("recross_adapt_samples_observed %d\n", c.Metrics().SamplesObserved),
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}
}

func TestControllerValidation(t *testing.T) {
	spec := testSpec()
	baseline, _ := partition.NewProfile(spec, 7, 500)
	regions := testRegions(spec.TotalBytes())
	dec, _ := partition.SolveLP(baseline, regions, 32)
	pl, err := partition.Build(baseline, dec)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"nil placement", Options{Spec: spec, Batch: 32}},
		{"bad batch", Options{Spec: spec, Placement: pl, Batch: -1}},
		{"bad spec", Options{Placement: pl, Batch: 32}},
	}
	for _, tc := range cases {
		if _, err := NewController(tc.opts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestPlanWorthwhile(t *testing.T) {
	cases := []struct {
		plan    Plan
		minGain float64
		horizon int64
		want    bool
	}{
		// Clear win: 20% faster, migration repaid quickly.
		{Plan{OldT: 120, NewT: 100, Speedup: 1.2, MigCycles: 1000}, 0.05, 1000, true},
		// Below the gain floor.
		{Plan{OldT: 103, NewT: 100, Speedup: 1.03, MigCycles: 0}, 0.05, 1000, false},
		// Gain fine, but migration never amortizes over the horizon.
		{Plan{OldT: 120, NewT: 100, Speedup: 1.2, MigCycles: 1e9}, 0.05, 10, false},
		// Regression is never worthwhile.
		{Plan{OldT: 90, NewT: 100, Speedup: 0.9, MigCycles: 0}, 0.05, 1000, false},
	}
	for i, tc := range cases {
		if got := tc.plan.Worthwhile(tc.minGain, tc.horizon); got != tc.want {
			t.Errorf("case %d: Worthwhile = %v, want %v (%+v)", i, got, tc.want, tc.plan)
		}
	}
}

func TestPlanMigrationPricesPermutation(t *testing.T) {
	spec := testSpec()
	baseline, err := partition.NewProfile(spec, 7, 2500)
	if err != nil {
		t.Fatal(err)
	}
	regions := testRegions(spec.TotalBytes())
	old, err := partition.SolveLP(baseline, regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(baseline, 0.12, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Live = permuted traffic.
	g, _ := trace.NewGenerator(spec, 44)
	if err := g.ShiftHotSet(321); err != nil {
		t.Fatal(err)
	}
	tr, _ := NewTracker(spec, TrackerOptions{TopK: 512})
	feed(tr, g, 1500)
	prof, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	next, err := partition.SolveLP(prof, regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := det.SegShares(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	aware, err := PlanMigration(prof, old, next, 32, shares)
	if err != nil {
		t.Fatal(err)
	}
	blind, err := PlanMigration(prof, old, next, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("identity-aware speedup %.2f vs shape-blind %.2f", aware.Speedup, blind.Speedup)
	// The shape-blind estimate cannot see the permutation: it prices the
	// stale placement as nearly optimal. The identity-aware one must see a
	// large win — that asymmetry is the whole reason SegShares exists.
	if aware.Speedup < blind.Speedup+0.5 {
		t.Fatalf("identity-aware pricing (%.2f) not clearly above shape-blind (%.2f)", aware.Speedup, blind.Speedup)
	}
	if !aware.Worthwhile(0.05, 10000) {
		t.Fatalf("permutation recovery not worthwhile: %+v", aware)
	}
}

func TestPlanMigrationValidation(t *testing.T) {
	spec := testSpec()
	baseline, _ := partition.NewProfile(spec, 7, 500)
	regions := testRegions(spec.TotalBytes())
	dec, _ := partition.SolveLP(baseline, regions, 32)
	if _, err := PlanMigration(baseline, nil, dec, 32, nil); err == nil {
		t.Error("nil old decision should error")
	}
	if _, err := PlanMigration(baseline, dec, nil, 32, nil); err == nil {
		t.Error("nil next decision should error")
	}
	other, _ := partition.NewProfile(trace.Uniform(1, 1000, 16, 2), 1, 100)
	odec, err := partition.SolveLP(other, regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanMigration(baseline, odec, dec, 32, nil); err == nil {
		t.Error("table-count mismatch should error")
	}
}

func TestEstimateSharesValidation(t *testing.T) {
	spec := testSpec()
	baseline, _ := partition.NewProfile(spec, 7, 500)
	regions := testRegions(spec.TotalBytes())
	dec, _ := partition.SolveLP(baseline, regions, 32)
	vols := partition.AccessVolumes(spec, 32)
	if _, _, err := partition.EstimateShares(dec, vols[:1], nil); err == nil {
		t.Error("vol/table mismatch should error")
	}
	bad := make([][]float64, len(spec.Tables))
	for i := range bad {
		bad[i] = []float64{1} // wrong segment count
	}
	if _, _, err := partition.EstimateShares(dec, vols, bad); err == nil {
		t.Error("share/segment mismatch should error")
	}
}

func BenchmarkTrackerObserve(b *testing.B) {
	spec := testSpec()
	tr, err := NewTracker(spec, TrackerOptions{TopK: 512})
	if err != nil {
		b.Fatal(err)
	}
	g, err := trace.NewGenerator(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-generate samples so the generator cost stays out of the loop.
	samples := make([]trace.Sample, 256)
	for i := range samples {
		samples[i] = g.Sample()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(samples[i%len(samples)])
	}
}

func ExampleController() {
	spec := trace.Uniform(2, 5000, 16, 4)
	baseline, _ := partition.NewProfile(spec, 7, 500)
	regions := []partition.Region{
		{Name: "R", CapBytes: spec.TotalBytes(), BW: 8},
		{Name: "B", CapBytes: spec.TotalBytes() / 4, BW: 120},
	}
	dec, _ := partition.SolveLP(baseline, regions, 16)
	pl, _ := partition.Build(baseline, dec)
	ctrl, _ := NewController(Options{
		Spec: spec, Placement: pl, Batch: 16,
		Adopt: func(*partition.Placement) error { return nil },
	})
	g, _ := trace.NewGenerator(spec, 1)
	for i := 0; i < 100; i++ {
		ctrl.Observe(g.Sample())
	}
	res := ctrl.Step()
	fmt.Println("fired:", res.Drift.Fired)
	// Output: fired: false
}
