package core

import (
	"reflect"
	"testing"

	"recross/internal/arch"
	"recross/internal/trace"
)

// TestSchedulerIdentityProduction runs production-sized batches — Criteo
// Kaggle(64, 80), 32 samples each — through Run and RunTraining on the fast
// arbiter and on the Reference scan scheduler (RefScheduler) and requires
// identical RunStats. The memctrl differential fuzzer covers small
// channels; this holds the same contract at the size the benchmark and the
// server run, writes included.
func TestSchedulerIdentityProduction(t *testing.T) {
	spec := trace.CriteoKaggle(64, 80)
	cfg := DefaultConfig(spec)
	cfg.ProfileSamples = 500
	fast, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Placement = fast.Placement()
	cfg.RefScheduler = true
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewGenerator(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		run  func(*ReCross, trace.Batch) (*arch.RunStats, error)
	}{{"Run", (*ReCross).Run}, {"RunTraining", (*ReCross).RunTraining}}
	for i := 0; i < 4; i++ {
		b := g.Batch(32)
		for _, m := range runs {
			want, err := m.run(ref, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.run(fast, b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d %s: fast %+v\nreference %+v", i, m.name, got, want)
			}
		}
	}
}
