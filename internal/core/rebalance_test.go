package core

import (
	"reflect"
	"testing"

	"recross/internal/coldstore"
	"recross/internal/partition"
	"recross/internal/trace"
)

// shiftSpec returns the mini spec under a different model name: same table
// shapes and skews, but an independent popularity permutation — i.e. the
// same service after its hot set drifted (§4.5's access-frequency change).
func shiftSpec() trace.ModelSpec {
	s := miniSpec()
	s.Name = "mini-core-after-drift"
	for i := range s.Tables {
		s.Tables[i].Name = s.Name + string(rune('a'+i))
	}
	return s
}

func TestRebalanceRecoversFromDrift(t *testing.T) {
	cfg := miniConfig()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The live workload after the drift: different rows are hot now.
	drifted := shiftSpec()
	g, err := trace.NewGenerator(drifted, 777)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Batch(8)
	// Retarget the ops at the original table indices (same shapes).
	for si := range b {
		for oi := range b[si] {
			b[si][oi].Table = b[si][oi].Table % len(cfg.Spec.Tables)
		}
	}

	stale, err := r.Run(b)
	if err != nil {
		t.Fatal(err)
	}

	// Re-profile on the drifted distribution and rebalance.
	prof, err := partition.NewProfile(drifted, 12345, 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Rebalance(prof); err != nil {
		t.Fatal(err)
	}
	fresh, err := r.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stale placement: %d cycles (hits %d), rebalanced: %d cycles (hits %d)",
		stale.Cycles, stale.RowHits, fresh.Cycles, fresh.RowHits)
	if fresh.Cycles >= stale.Cycles {
		t.Fatalf("rebalancing did not help: %d -> %d cycles", stale.Cycles, fresh.Cycles)
	}
}

func TestRebalanceValidation(t *testing.T) {
	r, err := New(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Rebalance(nil); err == nil {
		t.Fatal("nil profile should error")
	}
	other, err := partition.NewProfile(trace.Uniform(2, 100, 64, 2), 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Rebalance(other); err == nil {
		t.Fatal("mismatched table count should error")
	}
	wrongShape := miniSpec()
	wrongShape.Tables[0].Rows = 12345
	p2, err := partition.NewProfile(wrongShape, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Rebalance(p2); err == nil {
		t.Fatal("mismatched table shape should error")
	}
}

// TestNewOnSharedPlacement: an instance built on another's placement holds
// that very plan and runs bit-identically to the instance that solved it,
// batch after batch — Run only reads the shared placement.
func TestNewOnSharedPlacement(t *testing.T) {
	solved, err := New(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := miniConfig()
	cfg.Placement = solved.Placement()
	shared, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Placement() != solved.Placement() || shared.Decision() != solved.Decision() ||
		shared.Profile() != solved.Profile() {
		t.Fatal("the instance built on a placement does not hold that plan")
	}
	g, err := trace.NewGenerator(miniSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		b := g.Batch(8)
		want, err := solved.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := shared.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: shared-plan stats %+v, self-solved %+v", i, got, want)
		}
	}
}

// TestAdoptValidation: Adopt installs a placement only when it was solved
// for this instance's regions — nil, another rank count, or a cold tier
// present on one side only are rejected, by Adopt and by New alike.
func TestAdoptValidation(t *testing.T) {
	r, err := New(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Adopt(nil); err == nil {
		t.Error("nil placement accepted")
	}
	oneRank := miniConfig()
	oneRank.Ranks = 1
	cold := miniConfig()
	cold.ColdTier = &coldstore.Config{CapBytes: 64 << 20}
	for name, cfg := range map[string]Config{"ranks": oneRank, "cold": cold} {
		other, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Adopt(other.Placement()); err == nil {
			t.Errorf("%s: placement solved for other regions adopted", name)
		}
		if err := other.Adopt(r.Placement()); err == nil {
			t.Errorf("%s: placement solved for other regions adopted (reverse)", name)
		}
		cfg.Placement = r.Placement()
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New built on a placement solved for other regions", name)
		}
	}
	twin, err := New(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Adopt(twin.Placement()); err != nil || r.Placement() != twin.Placement() {
		t.Fatalf("twin placement: err %v, installed %v", err, r.Placement() == twin.Placement())
	}
}

func TestColdRowsRetireToCoarseRegions(t *testing.T) {
	// §4.5 embedding updates: rows never seen in profiling (new inserts)
	// are treated as cold data. With a model larger than the combined
	// B+G capacity (100M rows x 256 B = 25.6 GB vs 16 GB), the
	// never-observed tail must overflow into the capacity-optimized
	// R-region, so cold rows land predominantly outside B.
	spec := trace.ModelSpec{Name: "cold-tail", Tables: []trace.TableSpec{{
		Name: "big", Rows: 100_000_000, VecLen: 64, Pooling: 8, Prob: 1, Skew: 1.1,
	}}}
	cfg := DefaultConfig(spec)
	cfg.Batch = 4
	cfg.ProfileSamples = 300
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inB := 0
	const n = 2000
	for i := 0; i < n; i++ {
		// Sample the far tail, essentially never profiled.
		row := int64(50_000_000) + int64(i)*9973
		region, _ := r.pl.Locate(0, row)
		if region == RegionB {
			inB++
		}
	}
	if frac := float64(inB) / n; frac > 0.25 {
		t.Fatalf("%.0f%% of cold rows landed in the B-region, want mostly outside", 100*frac)
	}
}

func TestRunTrainingWritesBack(t *testing.T) {
	r, err := New(miniConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, _ := trace.NewGenerator(miniSpec(), 3)
	b := g.Batch(4)
	inference, err := r.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	training, err := r.RunTraining(b)
	if err != nil {
		t.Fatal(err)
	}
	if training.DRAM.WRs == 0 {
		t.Fatal("training step issued no writes")
	}
	// One write per distinct touched row, each of `bursts` columns.
	if training.DRAM.WRs%int64(4) != 0 {
		t.Fatalf("WR bursts (%d) not a multiple of the vector burst count", training.DRAM.WRs)
	}
	if training.Cycles <= inference.Cycles {
		t.Fatalf("training (%d) not slower than inference (%d) despite write-back",
			training.Cycles, inference.Cycles)
	}
	// The write-back volume roughly equals the gather volume but must
	// squeeze through the single channel DQ (~64 B per tBL), while the
	// gathers enjoyed cross-level parallelism — so an order of magnitude
	// of overhead is expected at small batches, but not more.
	if training.Cycles > inference.Cycles*12 {
		t.Fatalf("write-back overhead implausible: %d vs %d", training.Cycles, inference.Cycles)
	}
}

// TestRunTrainingDeterministic: two fresh identical systems must agree on
// every training step's cycle count and DRAM command stats — write-backs
// are emitted in first-touch order, not map order.
func TestRunTrainingDeterministic(t *testing.T) {
	var systems [2]*ReCross
	var gens [2]*trace.Generator
	for i := range systems {
		r, err := New(miniConfig())
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = r
		gens[i], _ = trace.NewGenerator(miniSpec(), 11)
	}
	for step := 0; step < 8; step++ {
		a, err := systems[0].RunTraining(gens[0].Batch(16))
		if err != nil {
			t.Fatal(err)
		}
		b, err := systems[1].RunTraining(gens[1].Batch(16))
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles || !reflect.DeepEqual(a.DRAM, b.DRAM) {
			t.Fatalf("step %d diverged: cycles %d vs %d, DRAM %+v vs %+v",
				step, a.Cycles, b.Cycles, a.DRAM, b.DRAM)
		}
	}
}
