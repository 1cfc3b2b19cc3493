// recross-trace generates synthetic embedding access traces and reports
// their statistical shape: per-table access coverage of the hottest rows
// and in-batch reuse, behind the paper's Fig. 3. Fig. 4's per-op load
// imbalance is printed by `recross-bench fig4`.
//
// Usage:
//
//	recross-trace [-samples 2000 -pooling 80 -veclen 64] [-dump N]
//	recross-trace -export trace.txt -batch 32     # write a batch to a file
//	recross-trace -replay trace.txt -arch recross # simulate a trace file
//
// With -dump N the first N raw lookups are printed (table, index, weight).
// The trace file format is line-oriented text (see internal/trace);
// externally produced traces in the same format replay identically.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"recross"
	"recross/internal/partition"
	"recross/internal/stats"
	"recross/internal/trace"
)

func main() {
	samples := flag.Int("samples", 2000, "samples to generate")
	pooling := flag.Int("pooling", 80, "gathers per embedding operation")
	veclen := flag.Int("veclen", 64, "embedding vector length")
	seed := flag.Int64("seed", 1, "generator seed")
	dump := flag.Int("dump", 0, "print the first N raw lookups")
	export := flag.String("export", "", "write a generated batch to this file")
	batch := flag.Int("batch", 32, "batch size for -export")
	replay := flag.String("replay", "", "simulate a previously exported trace file")
	archName := flag.String("arch", "recross", "architecture for -replay")
	flag.Parse()

	spec := recross.CriteoKaggle(*veclen, *pooling)
	gen, err := recross.NewGenerator(spec, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "recross-trace:", err)
		os.Exit(1)
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fail(err)
		}
		b := gen.Batch(*batch)
		if err := trace.WriteBatch(f, b); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d samples (%d lookups) to %s\n", len(b), b.Lookups(), *export)
		return
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fail(err)
		}
		b, err := trace.ReadBatch(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		if err := trace.ValidateBatch(b, spec); err != nil {
			fail(err)
		}
		sys, err := recross.NewSystem(recross.Arch(*archName), recross.Config{Spec: spec})
		if err != nil {
			fail(err)
		}
		rs, err := sys.Run(b)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s replayed %d samples (%d lookups): %d cycles (%.2f us), %d row hits, %.4f mJ\n",
			sys.Name(), len(b), b.Lookups(), rs.Cycles,
			float64(rs.Cycles)/2.4/1e3, rs.RowHits, rs.Energy.Total()*1e3)
		return
	}

	if *dump > 0 {
		n := 0
		for n < *dump {
			for _, op := range gen.Sample() {
				for k, idx := range op.Indices {
					if n >= *dump {
						break
					}
					fmt.Printf("table=%-4s index=%-9d weight=%.4f\n",
						spec.Tables[op.Table].Name, idx, op.Weights[k])
					n++
				}
			}
		}
		return
	}

	hists := partition.CountDraws(gen, *samples)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "table\trows\tskew\taccesses\tdistinct\ttop-1%\ttop-20%")
	for i, t := range spec.Tables {
		cdf, err := stats.AccessCDF(hists[i], int(t.Rows))
		if err != nil {
			fmt.Fprintln(os.Stderr, "recross-trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%d\t%d\t%.2f\t%.2f\n",
			t.Name, t.Rows, t.Skew, hists[i].Total(), hists[i].Distinct(),
			cdf.At(0.01), cdf.At(0.20))
	}
	w.Flush()

	var totalAccesses, totalDistinct int64
	for _, h := range hists {
		totalAccesses += h.Total()
		totalDistinct += int64(h.Distinct())
	}
	fmt.Printf("\n%d samples -> %d lookups, %d distinct rows touched (reuse factor %.2f)\n",
		*samples, totalAccesses, totalDistinct,
		float64(totalAccesses)/float64(totalDistinct))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "recross-trace:", err)
	os.Exit(1)
}
