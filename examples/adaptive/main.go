// The adaptive example demonstrates the online workload profiler +
// adaptive repartitioner (internal/adapt) end to end, with the control
// loop stepped manually so every phase is visible:
//
//  1. Serve a stationary skewed workload — the drift score stays low.
//  2. Permute the Zipf hot set (same distribution shape, different hot
//     rows) — the detector sees live mass landing on rows the deployed
//     placement ranked cold, fires, and the replanner re-runs the
//     partitioner on the sketched profile.
//  3. The priced migration passes the hysteresis gate and is adopted:
//     every replica hot-swaps its placement at a batch boundary, with
//     no pause in serving.
//  4. Post-adoption answers are still bit-identical to the functional
//     embedding layer — repartitioning moves rows, never values.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"recross"
)

func main() {
	// A heavily skewed spec with enough gather volume that the per-batch
	// load dominates the regions' fixed psum-collection cost — the regime
	// where placement matters and a hot-set shift makes the deployed
	// placement wrong. (With a tiny workload the latency bound is pinned
	// at the fixed cost and no repartition can ever pay; the gate would
	// correctly reject everything.)
	spec := recross.ModelSpec{Name: "adaptive-demo", Tables: []recross.TableSpec{
		{Name: "hot-a", Rows: 60000, VecLen: 64, Pooling: 48, Prob: 1, Skew: 1.3},
		{Name: "hot-b", Rows: 30000, VecLen: 64, Pooling: 32, Prob: 1, Skew: 1.2},
	}}
	cfg := recross.Config{Spec: spec, ProfileSamples: 1500, Batch: 32}

	fmt.Println("building a 2-replica adaptive ReCross pool...")
	cfg.Adapt = &recross.AdaptOptions{
		Threshold:       0.12,
		Windows:         2,
		Cooldown:        time.Millisecond, // demo: adopt as soon as the gate clears
		MinGain:         0.02,
		AmortizeBatches: 1_000_000,
		MinSamples:      400,
	}
	stack, err := recross.NewStack(recross.ReCross, cfg, 2, recross.ServeOptions{
		MaxBatch: 32,
		MaxDelay: 200 * time.Microsecond,
	})
	check(err)
	srv, ctrl := stack.Server, stack.Adapt
	defer srv.Close()

	layer, err := recross.NewLayer(spec)
	check(err)
	gen, err := recross.NewGenerator(spec, 42)
	check(err)

	// Phase 1: stationary traffic. The controller is stepped manually
	// (no Start) so the run is deterministic; production callers just
	// call ctrl.Start() and let the background loop tick.
	fmt.Println("\nphase 1: stationary traffic")
	for w := 0; w < 4; w++ {
		serveWindow(srv, gen, 400)
		res := ctrl.Step()
		fmt.Printf("  window %d: drift score %.3f (threshold 0.12)\n", w, res.Drift.Score)
		if res.Adopted {
			fmt.Println("  unexpected adoption on stationary traffic")
			os.Exit(1)
		}
	}

	// Phase 2: permute the hot set mid-run. The distribution's *shape* is
	// unchanged — only which rows are hot — so a histogram-only monitor
	// would see nothing. The detector compares row identities against the
	// deployed placement's own ranking and fires.
	fmt.Println("\nphase 2: hot-set permutation (same shape, new hot rows)")
	check(gen.ShiftHotSet(424242))
	adopted := false
	for w := 0; w < 10 && !adopted; w++ {
		serveWindow(srv, gen, 400)
		res := ctrl.Step()
		fmt.Printf("  window %d: drift score %.3f", w, res.Drift.Score)
		switch {
		case res.Adopted:
			fmt.Printf("  -> replanned, plan adopted (%.0f rows, %.2fx predicted speedup)\n",
				float64(res.Plan.RowsMoved), res.Plan.Speedup)
			adopted = true
		case res.Replanned && res.Plan != nil:
			fmt.Printf("  -> replanned, gate held (%.2fx)\n", res.Plan.Speedup)
		default:
			fmt.Println()
		}
	}
	if !adopted {
		fmt.Println("no adoption; try more windows or a lower -min-gain")
		os.Exit(1)
	}

	// Phase 3: the swap must be invisible to correctness — answers still
	// match the functional embedding layer bit for bit.
	fmt.Println("\nphase 3: verifying post-adoption answers against the functional layer")
	for i := 0; i < 50; i++ {
		sample := gen.Sample()
		res, err := srv.Lookup(context.Background(), sample)
		check(err)
		want, err := layer.ReduceSample(sample)
		check(err)
		for k := range want {
			if !recross.AlmostEqual(res.Vectors[k], want[k], 0) {
				fmt.Println("MISMATCH after repartition")
				os.Exit(1)
			}
		}
	}
	fmt.Println("  50/50 samples bit-identical")

	m := ctrl.Metrics()
	fmt.Printf("\nadapt metrics: %d windows, %d triggers, %d replans, %d repartitions, %d rows migrated\n",
		m.Windows, m.Triggers, m.Replans, m.Adoptions, m.RowsMigrated)
}

// serveWindow pushes n samples through the server; the admission path
// feeds the controller's frequency sketches via the Observer tap.
func serveWindow(srv *recross.Server, gen *recross.Generator, n int) {
	for i := 0; i < n; i++ {
		if _, err := srv.Lookup(context.Background(), gen.Sample()); err != nil {
			check(err)
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptive:", err)
		os.Exit(1)
	}
}
