// The coldtier example demonstrates the flash-backed cold tier end to end
// on a table set ~4x larger than the DRAM it is allowed to occupy:
//
//  1. The partitioner places the tables across FOUR levels — the R/G/B
//     DRAM regions clamped to a residency budget, plus the flash-backed
//     cold region priced by the device timing model — where the
//     DRAM-only configuration cannot fit at all.
//  2. A skewed trace serves from the store: hot rows from DRAM, the cold
//     tail through the page-granular backing file behind the host page
//     cache (watch the recross_coldstore_* counters).
//  3. A hot-set permutation makes yesterday's DRAM rows cold and flash
//     rows hot; the adaptive controller's gate adopts a repartition that
//     promotes newly-hot rows out of flash and demotes cooled ones in,
//     and the store repacks its pages from the sketch counts.
//  4. Answers stay bit-identical to an all-DRAM functional reference
//     throughout — the tiers move rows, never values.
package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"recross"
)

const budgetBytes = 5 << 20

func main() {
	spec := recross.ModelSpec{Name: "coldtier-demo", Tables: []recross.TableSpec{
		{Name: "big-a", Rows: 60000, VecLen: 64, Pooling: 48, Prob: 1, Skew: 1.3},
		{Name: "big-b", Rows: 30000, VecLen: 64, Pooling: 32, Prob: 1, Skew: 1.2},
	}}
	var totalBytes int64
	for _, t := range spec.Tables {
		totalBytes += t.Rows * int64(t.VecLen) * 4
	}
	cfg := recross.Config{Spec: spec, ProfileSamples: 1500, Batch: 32, Cold: &recross.ColdTierConfig{
		CapBytes:            64 << 20,
		ResidentBudgetBytes: budgetBytes,
		InStorageReduce:     true,
	}}

	fmt.Printf("table set: %.1f MB; DRAM residency budget: %.1f MB (%.1fx oversubscribed)\n",
		float64(totalBytes)/(1<<20), float64(budgetBytes)/(1<<20), float64(totalBytes)/float64(budgetBytes))

	// Phase 1: placement across the four levels.
	sys, err := recross.NewSystem(recross.ReCross, cfg)
	check(err)
	rc := sys.(*recross.ReCrossSystem)
	pl := rc.Placement()
	used := pl.UsedSlots()
	fmt.Println("\nphase 1: tier occupancy")
	for j, r := range pl.Regions() {
		bytes := used[j] * pl.VecBytes()
		fmt.Printf("  region %-2s %-5s %8.2f MB used / %8.2f MB cap  (bw %6.1f B/cyc)\n",
			r.Name, r.Level, float64(bytes)/(1<<20), float64(r.CapBytes)/(1<<20), r.BW)
	}

	fmt.Println("\nbuilding a 2-replica adaptive pool with the cold tier attached...")
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

	ref, err := recross.NewLayer(spec) // all-DRAM functional reference
	check(err)
	gen, err := recross.NewGenerator(spec, 42)
	check(err)

	// Phase 2: stationary skewed traffic through the cold-backed data
	// plane.
	fmt.Println("\nphase 2: stationary traffic (hot rows DRAM, cold tail flash)")
	for w := 0; w < 3; w++ {
		serveWindow(srv, gen, 400)
		if res := ctrl.Step(); res.Adopted {
			fmt.Println("  unexpected adoption on stationary traffic")
			os.Exit(1)
		}
	}
	printColdstore(srv, "  ")

	// Phase 3: permute the hot set — flash rows heat up, DRAM rows cool.
	fmt.Println("\nphase 3: hot-set permutation; waiting for the gate to adopt")
	check(gen.ShiftHotSet(424242))
	adopted := false
	for w := 0; w < 10 && !adopted; w++ {
		serveWindow(srv, gen, 400)
		res := ctrl.Step()
		fmt.Printf("  window %d: drift score %.3f", w, res.Drift.Score)
		switch {
		case res.Adopted:
			fmt.Printf("  -> adopted (%.2fx predicted)\n", res.Plan.Speedup)
			adopted = true
		case res.Replanned && res.Plan != nil:
			fmt.Printf("  -> replanned, gate held (%.2fx)\n", res.Plan.Speedup)
		default:
			fmt.Println()
		}
	}
	if !adopted {
		fmt.Println("no adoption; try more windows or a lower MinGain")
		os.Exit(1)
	}
	m := ctrl.Metrics()
	fmt.Printf("  boundary crossings: %d rows promoted flash->DRAM, %d rows demoted DRAM->flash\n",
		m.ColdPromotedRows, m.ColdDemotedRows)

	// Phase 4: tiering must be invisible to correctness.
	fmt.Println("\nphase 4: verifying answers against the all-DRAM reference")
	for i := 0; i < 50; i++ {
		sample := gen.Sample()
		res, err := srv.Lookup(context.Background(), sample)
		check(err)
		want, err := ref.ReduceSample(sample)
		check(err)
		for k := range want {
			if !recross.AlmostEqual(res.Vectors[k], want[k], 0) {
				fmt.Println("MISMATCH against the all-DRAM reference")
				os.Exit(1)
			}
		}
	}
	fmt.Println("  50/50 samples bit-identical")
	printColdstore(srv, "  ")
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

// printColdstore writes out what the server's /metrics endpoint serves —
// the cold tier's real observable surface — and prints the
// recross_coldstore_* counters.
func printColdstore(srv *recross.Server, indent string) {
	var body strings.Builder
	_, err := srv.MetricSet().WriteTo(&body)
	check(err)
	for _, line := range strings.Split(body.String(), "\n") {
		if strings.HasPrefix(line, "recross_coldstore_") {
			fmt.Println(indent + line)
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "coldtier:", err)
		os.Exit(1)
	}
}
