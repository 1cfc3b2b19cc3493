package adapt

import (
	"math"
	"sync"
	"testing"

	"recross/internal/nmp"
	"recross/internal/partition"
	"recross/internal/stats"
	"recross/internal/trace"
)

func testSpec() trace.ModelSpec {
	return trace.ModelSpec{Name: "adapt-test", Tables: []trace.TableSpec{
		{Name: "adapt-hot", Rows: 50000, VecLen: 16, Pooling: 8, Prob: 1, Skew: 1.2},
		{Name: "adapt-mild", Rows: 20000, VecLen: 16, Pooling: 8, Prob: 1, Skew: 0.9},
	}}
}

func testRegions(total int64) []partition.Region {
	scaled := total * 3 / 2
	return []partition.Region{
		{Name: "R", Level: nmp.LevelRank, CapBytes: scaled * 16 / 32, BW: 8},
		{Name: "G", Level: nmp.LevelBankGroup, CapBytes: scaled * 12 / 32, BW: 40},
		{Name: "B", Level: nmp.LevelBank, CapBytes: scaled * 4 / 32, BW: 120},
	}
}

// feed observes samples draws of g and returns each table's exact
// access histogram over them, the truth the sketch is checked against.
func feed(tr *Tracker, g *trace.Generator, samples int) []*stats.Histogram {
	hists := make([]*stats.Histogram, len(tr.spec.Tables))
	for i := range hists {
		hists[i] = stats.NewHistogram()
	}
	for i := 0; i < samples; i++ {
		s := g.Sample()
		tr.Observe(s)
		for _, op := range s {
			for _, idx := range op.Indices {
				hists[op.Table].Add(idx)
			}
		}
	}
	return hists
}

func TestSketchRetainsHeavyHitters(t *testing.T) {
	spec := testSpec()
	tr, err := NewTracker(spec, TrackerOptions{TopK: 512})
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewGenerator(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	hists := feed(tr, g, 1500)
	snaps := tr.Snapshot()
	for ti, hist := range hists {
		retained := make(map[int64]int64, len(snaps[ti].Keys))
		for k, key := range snaps[ti].Keys {
			retained[key] = snaps[ti].Counts[k]
		}
		// Every one of the true top-20 keys must be in the sketch, and its
		// estimate must not undercount (Space-Saving never underestimates).
		for _, key := range hist.HotKeys(20) {
			est, ok := retained[key]
			if !ok {
				t.Fatalf("table %d: true heavy hitter %d evicted from sketch", ti, key)
			}
			if est < hist.Count(key) {
				t.Fatalf("table %d key %d: estimate %d < true count %d", ti, key, est, hist.Count(key))
			}
		}
	}
}

func TestSketchSnapshotDescendingAndTotalExact(t *testing.T) {
	spec := testSpec()
	tr, _ := NewTracker(spec, TrackerOptions{TopK: 64})
	g, _ := trace.NewGenerator(spec, 7)
	hists := feed(tr, g, 400)
	for ti, sn := range tr.Snapshot() {
		if want := hists[ti].Total(); sn.Total != want {
			t.Fatalf("table %d: sketch total %d != true total %d", ti, sn.Total, want)
		}
		for k := 1; k < len(sn.Counts); k++ {
			if sn.Counts[k] > sn.Counts[k-1] {
				t.Fatalf("table %d: snapshot counts not descending at %d", ti, k)
			}
		}
		if len(sn.Keys) > 64 {
			t.Fatalf("table %d: sketch holds %d keys, cap 64", ti, len(sn.Keys))
		}
	}
}

func TestSketchDecayHalves(t *testing.T) {
	spec := testSpec()
	tr, _ := NewTracker(spec, TrackerOptions{TopK: 128})
	g, _ := trace.NewGenerator(spec, 11)
	feed(tr, g, 200)
	before := tr.Snapshot()
	samplesBefore := tr.Samples()
	tr.Decay()
	after := tr.Snapshot()
	for ti := range before {
		if after[ti].Total != before[ti].Total/2 {
			t.Fatalf("table %d: total %d after decay, want %d", ti, after[ti].Total, before[ti].Total/2)
		}
	}
	if tr.Samples() != samplesBefore/2 {
		t.Fatalf("samples %d after decay, want %d", tr.Samples(), samplesBefore/2)
	}
	// Repeated decay with no traffic must drain the sketch to empty.
	for i := 0; i < 40; i++ {
		tr.Decay()
	}
	for ti, sn := range tr.Snapshot() {
		if len(sn.Keys) != 0 || sn.Total != 0 {
			t.Fatalf("table %d: sketch not drained after decay: %d keys, total %d", ti, len(sn.Keys), sn.Total)
		}
	}
}

func TestTrackerProfileFeedsSolverAndBuild(t *testing.T) {
	spec := testSpec()
	tr, _ := NewTracker(spec, TrackerOptions{TopK: 512})
	g, _ := trace.NewGenerator(spec, 21)
	feed(tr, g, 1200)
	prof, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	// The sketch profile must capture the head concentration: the skewed
	// table's hottest 1% should cover far more than 1% of accesses.
	if cov := prof.CDFs[0].At(0.01); cov < 0.2 {
		t.Fatalf("sketch CDF head coverage %.3f, want > 0.2 for skew 1.2", cov)
	}
	regions := testRegions(spec.TotalBytes())
	dec, err := partition.SolveLP(prof, regions, 32)
	if err != nil {
		t.Fatalf("sketch profile rejected by solver: %v", err)
	}
	for i := range spec.Tables {
		var sum float64
		for j := range regions {
			sum += dec.RowFrac[i][j]
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("table %d row fractions sum to %g", i, sum)
		}
	}
	if _, err := partition.Build(prof, dec); err != nil {
		t.Fatalf("sketch profile rejected by placement build: %v", err)
	}
}

func TestTrackerConcurrentObserve(t *testing.T) {
	spec := testSpec()
	tr, _ := NewTracker(spec, TrackerOptions{TopK: 256})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			g, err := trace.NewGenerator(spec, seed)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 200; i++ {
				tr.Observe(g.Sample())
			}
		}(int64(100 + w))
	}
	wg.Wait()
	if got := tr.Samples(); got != 800 {
		t.Fatalf("observed %d samples from 4x200 goroutines, want 800", got)
	}
	for ti, sn := range tr.Snapshot() {
		var want int64 = 800 * int64(spec.Tables[ti].Pooling)
		if sn.Total != want {
			t.Fatalf("table %d: total %d, want %d", ti, sn.Total, want)
		}
	}
}

func TestTrackerHot(t *testing.T) {
	spec := testSpec()
	tr, err := NewTracker(spec, TrackerOptions{TopK: 64})
	if err != nil {
		t.Fatal(err)
	}

	// Cold start: no evidence yet, everything is admitted.
	if !tr.Hot(0, 123) {
		t.Fatal("empty sketch should admit everything (cold start)")
	}
	// Out-of-range tables are never hot.
	if tr.Hot(-1, 0) || tr.Hot(len(spec.Tables), 0) {
		t.Fatal("out-of-range table reported hot")
	}

	// A stream dominated by one key: that key is hot, strangers are not.
	s := trace.Sample{{Table: 0, Kind: trace.Sum,
		Indices: make([]int64, 8), Weights: make([]float32, 8)}}
	for i := 0; i < 100; i++ {
		tr.Observe(s) // 800 accesses to row 0 of table 0
	}
	if !tr.Hot(0, 0) {
		t.Fatal("dominant key should be hot")
	}
	if tr.Hot(0, 999) {
		t.Fatal("never-seen key reported hot")
	}
	// Table 1 saw nothing: still cold-start-admitting.
	if !tr.Hot(1, 7) {
		t.Fatal("untouched table should still admit (its sketch is empty)")
	}

	// A key observed once against an 800-strong total is retained (the
	// sketch has spare capacity) but far below the total/k threshold.
	one := trace.Sample{{Table: 0, Kind: trace.Sum,
		Indices: []int64{42}, Weights: []float32{1}}}
	tr.Observe(one)
	if tr.Hot(0, 42) {
		t.Fatal("1-of-801 key should be below the total/k admission bar")
	}
}
