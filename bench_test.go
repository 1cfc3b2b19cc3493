// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (DESIGN.md §2 maps each to its experiment). Benchmarks
// run the scaled-down Quick workload so `go test -bench=.` completes in
// minutes; the recross-bench command runs the same experiments at full
// paper fidelity.
package recross

import (
	"testing"

	"recross/internal/core"
	"recross/internal/experiments"
)

// recrossBatch builds the ReCross system and the 32-sample Criteo-Kaggle
// batch that BenchmarkRecrossRun and its siblings measure.
func recrossBatch(tb testing.TB, ref bool) (*core.ReCross, Batch) {
	tb.Helper()
	spec := CriteoKaggle(64, 80)
	cfg := core.DefaultConfig(spec)
	cfg.ProfileSamples = 500
	cfg.RefScheduler = ref
	sys, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := NewGenerator(spec, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return sys, gen.Batch(32)
}

func benchRecrossRun(b *testing.B, ref, train bool) {
	b.Helper()
	sys, batch := recrossBatch(b, ref)
	run := sys.Run
	if train {
		run = sys.RunTraining
	}
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := run(batch)
		if err != nil {
			b.Fatal(err)
		}
		cycles += int64(rs.Cycles)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(cycles)/secs, "simcycles/s")
	}
}

// BenchmarkRecrossRun measures one batch through the full ReCross timing
// model on the fast arbiter — the serving layer's per-batch cost.
func BenchmarkRecrossRun(b *testing.B) { benchRecrossRun(b, false, false) }

// BenchmarkRecrossRunTraining is the same batch through RunTraining: the
// gathers plus the gradient write-back, so the scheduler's write path shows.
func BenchmarkRecrossRunTraining(b *testing.B) { benchRecrossRun(b, false, true) }

// BenchmarkRecrossRunReference is the same batch on the Reference scan
// scheduler (RefScheduler); the ratio to BenchmarkRecrossRun is the fast
// arbiter's end-to-end speedup.
func BenchmarkRecrossRunReference(b *testing.B) { benchRecrossRun(b, true, false) }

func benchTable(b *testing.B, run func(experiments.Config) (*experiments.Table, error)) {
	b.Helper()
	cfg := experiments.Quick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFig03AccessCDF regenerates the cumulative access-frequency
// curves of the Criteo Kaggle tables (paper Fig. 3).
func BenchmarkFig03AccessCDF(b *testing.B) { benchTable(b, experiments.Fig3) }

// BenchmarkFig04LoadImbalance regenerates the per-op load-imbalance ratios
// by NMP level for 2/4/8 ranks (paper Fig. 4).
func BenchmarkFig04LoadImbalance(b *testing.B) { benchTable(b, experiments.Fig4) }

// BenchmarkFig05LevelScaling regenerates the NMP-level speedup vs internal
// bandwidth comparison (paper Fig. 5).
func BenchmarkFig05LevelScaling(b *testing.B) { benchTable(b, experiments.Fig5) }

// BenchmarkFig06Timeline regenerates the SALP command timeline (paper
// Fig. 6).
func BenchmarkFig06Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty timeline")
		}
	}
}

// BenchmarkFig09VectorLength regenerates the speedup sweep over embedding
// vector lengths (paper Fig. 9).
func BenchmarkFig09VectorLength(b *testing.B) { benchTable(b, experiments.Fig9) }

// BenchmarkFig10BatchSize regenerates the speedup sweep over batch sizes
// (paper Fig. 10).
func BenchmarkFig10BatchSize(b *testing.B) { benchTable(b, experiments.Fig10) }

// BenchmarkFig11RankCount regenerates the speedup sweep over rank counts
// (paper Fig. 11).
func BenchmarkFig11RankCount(b *testing.B) { benchTable(b, experiments.Fig11) }

// BenchmarkFig12Ablation regenerates the SAP/BWP/LAS optimization
// breakdown (paper Fig. 12).
func BenchmarkFig12Ablation(b *testing.B) { benchTable(b, experiments.Fig12) }

// BenchmarkFig13Imbalance regenerates the load-imbalance comparison of
// ReCross against the baselines (paper Fig. 13).
func BenchmarkFig13Imbalance(b *testing.B) { benchTable(b, experiments.Fig13) }

// BenchmarkFig14Configs regenerates the ReCross configuration exploration
// (paper Fig. 14).
func BenchmarkFig14Configs(b *testing.B) { benchTable(b, experiments.Fig14) }

// BenchmarkFig15Energy regenerates the energy breakdown and savings
// comparison (paper Fig. 15).
func BenchmarkFig15Energy(b *testing.B) { benchTable(b, experiments.Fig15) }

// BenchmarkTab03Area regenerates the per-architecture area-overhead table
// (paper Table 3).
func BenchmarkTab03Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.Table3(); len(tb.Rows) != 5 {
			b.Fatal("table 3 wrong shape")
		}
	}
}

// benchSelected runs every experiment recross-bench selects for args, at
// quick scale.
func benchSelected(b *testing.B, args ...string) {
	exps, err := experiments.Select(args)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, e := range exps {
			if _, err := e.Run(experiments.Quick()); err != nil {
				b.Fatalf("%s: %v", e.Name, err)
			}
		}
	}
}

// BenchmarkSuite runs the paper's complete evaluation end to end (quick
// scale) — the one-shot "reproduce the paper" measurement.
func BenchmarkSuite(b *testing.B) { benchSelected(b) }

// BenchmarkExtensions runs the beyond-paper extension studies (refresh,
// channels, subarrays, training, latency, DDR4) at quick scale.
func BenchmarkExtensions(b *testing.B) { benchSelected(b, "ext") }
