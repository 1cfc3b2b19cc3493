package recross_test

import (
	"fmt"
	"os"
	"text/tabwriter"

	"recross"
	"recross/internal/partition"
)

// Build the paper's workload and inspect its scale.
func ExampleCriteoKaggle() {
	spec := recross.CriteoKaggle(64, 80)
	fmt.Println(len(spec.Tables), "tables")
	fmt.Printf("%.1f GB of embeddings\n", float64(spec.TotalBytes())/(1<<30))
	// Output:
	// 26 tables
	// 7.5 GB of embeddings
}

// Run one batch through ReCross and check the reduction offloaded fully:
// no gathered vector crossed to the host.
func ExampleNewSystem() {
	spec := recross.ModelSpec{Name: "example"}
	for i := 0; i < 4; i++ {
		spec.Tables = append(spec.Tables, recross.TableSpec{
			Name: fmt.Sprintf("example-t%d", i), Rows: 50000, VecLen: 64,
			Pooling: 8, Prob: 1, Skew: 1.1,
		})
	}
	sys, err := recross.NewSystem(recross.ReCross, recross.Config{
		Spec: spec, ProfileSamples: 200,
	})
	if err != nil {
		panic(err)
	}
	gen, err := recross.NewGenerator(spec, 7)
	if err != nil {
		panic(err)
	}
	stats, err := sys.Run(gen.Batch(4))
	if err != nil {
		panic(err)
	}
	fmt.Println("arch:", sys.Name())
	fmt.Println("finished:", stats.Cycles > 0)
	fmt.Println("host gather bursts:", stats.DRAM.BurstsToHost)
	// Output:
	// arch: recross
	// finished: true
	// host gather bursts: 0
}

// Verify the cross-level NMP reduction against the flat host reference.
func ExampleReCrossSystem_ReduceBatch() {
	spec := recross.ModelSpec{Name: "verify", Tables: []recross.TableSpec{
		{Name: "verify-t0", Rows: 1000, VecLen: 16, Pooling: 4, Prob: 1, Skew: 1},
	}}
	rc, err := recross.NewReCross(recross.DefaultReCrossConfig(spec))
	if err != nil {
		panic(err)
	}
	layer, err := recross.NewLayer(spec)
	if err != nil {
		panic(err)
	}
	gen, _ := recross.NewGenerator(spec, 3)
	batch := gen.Batch(2)
	nmp, err := rc.ReduceBatch(layer, batch)
	if err != nil {
		panic(err)
	}
	ref, err := layer.ReduceSample(batch[0])
	if err != nil {
		panic(err)
	}
	diff := float64(0)
	for j := range ref[0] {
		d := float64(nmp[0][0][j] - ref[0][j])
		if d < 0 {
			d = -d
		}
		if d > diff {
			diff = d
		}
	}
	fmt.Println("NMP result matches host reference:", diff < 1e-4)
	// Output:
	// NMP result matches host reference: true
}

// Run one batch of the paper's workload through every architecture and
// compare latency, row-buffer behaviour and energy. The same table is
// `recross-sim -arch all`.
func ExampleArches() {
	// The paper's workload: 26 Criteo tables, 64-element vectors. A
	// pooling of 16 rather than 80 keeps the example fast.
	spec := recross.CriteoKaggle(64, 16)
	fmt.Printf("workload: %s, %d tables, %.1f GB of embeddings\n",
		spec.Name, len(spec.Tables), float64(spec.TotalBytes())/(1<<30))

	// One profile shared by the architectures that need offline stats.
	profile, err := recross.NewProfile(spec, 12345, 500)
	if err != nil {
		panic(err)
	}
	cfg := recross.Config{Spec: spec, Profile: profile, ProfileSamples: 500}
	gen, err := recross.NewGenerator(spec, 777)
	if err != nil {
		panic(err)
	}
	batch := gen.Batch(8)
	fmt.Printf("batch: %d samples, %d embedding lookups\n\n", len(batch), batch.Lookups())

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "architecture\tcycles\tspeedup\trow hits\tenergy (mJ)")
	var cpuCycles float64
	for _, a := range recross.Arches() {
		sys, err := recross.NewSystem(a, cfg)
		if err != nil {
			panic(err)
		}
		stats, err := sys.Run(batch)
		if err != nil {
			panic(err)
		}
		if a == recross.CPU {
			cpuCycles = float64(stats.Cycles)
		}
		hitRate := float64(stats.RowHits) / float64(stats.RowHits+stats.RowMisses)
		fmt.Fprintf(w, "%s\t%d\t%.2fx\t%.0f%%\t%.4f\n",
			sys.Name(), stats.Cycles, cpuCycles/float64(stats.Cycles),
			100*hitRate, stats.Energy.Total()*1e3)
	}
	w.Flush()
	// Output:
	// workload: criteo-kaggle, 26 tables, 7.5 GB of embeddings
	// batch: 8 samples, 1408 embedding lookups
	//
	// architecture  cycles  speedup  row hits  energy (mJ)
	// cpu           27673   1.00x    0%        0.0306
	// tensordimm    20176   1.37x    0%        0.0367
	// recnmp        16816   1.65x    0%        0.0272
	// trim-g        14048   1.97x    2%        0.0216
	// trim-b        14080   1.97x    2%        0.0216
	// recross       13457   2.06x    56%       0.0201
}

// Show how the bandwidth-aware partitioning LP (paper §4.3) splits the
// Criteo-Kaggle tables across ReCross's R-, G- and B-regions, with the
// capacity-only greedy partitioner of the Fig. 12 ablation for contrast.
func ExampleReCrossSystem_Decision() {
	spec := recross.CriteoKaggle(64, 32)
	rc, err := recross.NewReCross(recross.DefaultReCrossConfig(spec))
	if err != nil {
		panic(err)
	}

	regions := rc.Regions()
	fmt.Println("ReCross memory regions (2-rank channel, 1/4/4 PEs, R:G:B = 16:12:4):")
	for _, r := range regions {
		fmt.Printf("  %s-region (%s level): %5.1f GB capacity, %5.1f B/cycle internal bandwidth\n",
			r.Name, r.Level, float64(r.CapBytes)/(1<<30), r.BW)
	}

	dec := rc.Decision()
	fmt.Printf("\nLP decision: estimated batch latency bound T = %.0f cycles\n", dec.T)
	fmt.Println("estimated per-region gathered bytes per batch:")
	for j, r := range regions {
		t := 0.0
		if r.BW > 0 {
			t = dec.Load[j] / r.BW
		}
		fmt.Printf("  %s: %10.0f bytes  ->  %8.0f cycles at its bandwidth\n", r.Name, dec.Load[j], t)
	}

	fmt.Println("\nper-table row placement (fraction of rows per region):")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "table\trows\tskew\tR\tG\tB")
	for i, t := range spec.Tables {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.4f\t%.4f\t%.4f\n",
			t.Name, t.Rows, t.Skew,
			dec.RowFrac[i][0], dec.RowFrac[i][1], dec.RowFrac[i][2])
	}
	w.Flush()

	greedy, err := partition.Greedy(rc.Profile(), regions, 32)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ncrude greedy partitioning for contrast: estimated T = %.0f cycles (LP: %.0f)\n",
		greedy.T, dec.T)

	pl := rc.Placement()
	fmt.Printf("mapping-table overhead: %.1f MB (34 bits per row, %.2f%% of the model)\n",
		float64(pl.MappingBits())/8/(1<<20),
		100*float64(pl.MappingBits()/8)/float64(spec.TotalBytes()))
	// Output:
	// ReCross memory regions (2-rank channel, 1/4/4 PEs, R:G:B = 16:12:4):
	//   R-region (rank level):  16.0 GB capacity,  16.0 B/cycle internal bandwidth
	//   G-region (bank-group level):  12.0 GB capacity,  42.7 B/cycle internal bandwidth
	//   B-region (bank level):   4.0 GB capacity,  42.7 B/cycle internal bandwidth
	//
	// LP decision: estimated batch latency bound T = 49152 cycles
	// estimated per-region gathered bytes per batch:
	//   R:          0 bytes  ->         0 cycles at its bandwidth
	//   G:     655360 bytes  ->     15360 cycles at its bandwidth
	//   B:    2097152 bytes  ->     49152 cycles at its bandwidth
	//
	// per-table row placement (fraction of rows per region):
	// table  rows     skew  R       G       B
	// C1     1460     1.00  0.0000  0.0000  1.0000
	// C2     583      1.08  0.0000  0.0000  1.0000
	// C3     8000000  1.16  0.0000  0.6090  0.3910
	// C4     2202608  1.24  0.0000  0.8995  0.1005
	// C5     305      1.32  0.0000  0.0000  1.0000
	// C6     24       1.40  0.0000  0.0000  1.0000
	// C7     12517    1.00  0.0000  0.9501  0.0499
	// C8     633      1.08  0.0000  0.0000  1.0000
	// C9     3        1.16  0.0000  0.0000  1.0000
	// C10    93145    1.24  0.0000  0.6400  0.3600
	// C11    5683     1.32  0.0000  0.0000  1.0000
	// C12    8000000  1.40  0.0000  0.9000  0.1000
	// C13    3194     1.00  0.0000  0.0000  1.0000
	// C14    27       1.08  0.0000  0.0000  1.0000
	// C15    14992    1.16  0.0000  0.3500  0.6500
	// C16    5461306  1.24  0.0000  0.3599  0.6401
	// C17    10       1.32  0.0000  0.0000  1.0000
	// C18    5652     1.40  0.0000  0.0000  1.0000
	// C19    2173     1.00  0.0000  0.0000  1.0000
	// C20    4        1.08  0.0000  0.0000  1.0000
	// C21    7046547  1.16  0.0000  0.9990  0.0010
	// C22    18       1.24  0.0000  0.0000  1.0000
	// C23    15       1.32  0.0000  0.0000  1.0000
	// C24    286181   1.40  0.0000  0.4990  0.5010
	// C25    105      1.00  0.0000  0.0000  1.0000
	// C26    142572   1.08  0.0000  0.9900  0.0100
	//
	// crude greedy partitioning for contrast: estimated T = 50936 cycles (LP: 49152)
	// mapping-table overhead: 126.8 MB (34 bits per row, 1.66% of the model)
}

// Run training steps (gathers plus gradient write-back), let the hot rows
// drift, and recover the stale placement with the §4.5 dynamic
// rebalancing: re-profile, re-solve the partitioning LP, rewrite the
// mapping tables.
func ExampleReCrossSystem_Rebalance() {
	// Two phases of one service: the same table shapes, but a different
	// popularity permutation, so different rows are hot.
	service := func(phase string) recross.ModelSpec {
		s := recross.ModelSpec{Name: "service-" + phase}
		for i := 0; i < 8; i++ {
			s.Tables = append(s.Tables, recross.TableSpec{
				Name: s.Name + fmt.Sprintf("-t%d", i), Rows: 400000, VecLen: 64,
				Pooling: 16, Prob: 1, Skew: 1.05 + 0.05*float64(i%4),
			})
		}
		return s
	}
	before, after := service("v1"), service("v2")

	rc, err := recross.NewReCross(recross.DefaultReCrossConfig(before))
	if err != nil {
		panic(err)
	}
	step := func(phase string, workload recross.ModelSpec, seed int64) {
		gen, err := recross.NewGenerator(workload, seed)
		if err != nil {
			panic(err)
		}
		rs, err := rc.RunTraining(gen.Batch(16))
		if err != nil {
			panic(err)
		}
		hit := float64(rs.RowHits) / float64(rs.RowHits+rs.RowMisses)
		fmt.Printf("%-28s %8d cycles  %5d writes  row-hit %4.0f%%\n",
			phase, rs.Cycles, rs.DRAM.WRs/4, 100*hit)
	}

	fmt.Println("training steps (gathers + gradient write-back):")
	step("phase 1 (placement fresh)", before, 100)
	step("phase 1 (steady state)", before, 101)

	fmt.Println("\n-- popularity drift: different rows are hot now --")
	step("phase 2 (placement stale)", after, 200)

	prof, err := recross.NewProfile(after, 4242, 800)
	if err != nil {
		panic(err)
	}
	if err := rc.Rebalance(prof); err != nil {
		panic(err)
	}
	fmt.Println("-- rebalanced: mapping tables rewritten from a fresh profile --")
	step("phase 2 (placement fresh)", after, 201)
	// Output:
	// training steps (gathers + gradient write-back):
	// phase 1 (placement fresh)       68256 cycles   1286 writes  row-hit   69%
	// phase 1 (steady state)          67874 cycles   1282 writes  row-hit   70%
	//
	// -- popularity drift: different rows are hot now --
	// phase 2 (placement stale)       79160 cycles   1309 writes  row-hit   39%
	// -- rebalanced: mapping tables rewritten from a fresh profile --
	// phase 2 (placement fresh)       69197 cycles   1304 writes  row-hit   66%
}
