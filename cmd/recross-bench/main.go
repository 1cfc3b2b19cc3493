// recross-bench regenerates every table and figure of the paper's
// evaluation section (§5), and the extension studies beyond it, and prints
// them as text tables; EXPERIMENTS.md records a captured run next to the
// paper's numbers.
//
// Usage:
//
//	recross-bench [flags] [experiment ...]
//
// With no argument it runs the paper's evaluation in paper order: fig3
// fig4 fig5 fig6 fig9 fig10 fig11 fig12 fig13 fig14 fig15 table3. A lone
// "ext" runs the extension studies (ext-refresh ext-channels
// ext-subarrays ext-training ext-latency ext-ddr4), a lone "all" runs
// both, and otherwise each argument names one experiment.
// experiments.Experiments is the list.
//
// Flags:
//
//	-quick        scaled-down workload (seconds instead of minutes)
//	-csv DIR      also write each table as DIR/<experiment>.csv
//	-batch N      batch size (default 32)
//	-pooling N    gathers per embedding operation (default 80)
//	-veclen N     embedding vector length (default 64)
//	-ranks N      ranks per channel (default 2)
//	-json         machine-readable output: one JSON document on stdout
//	              (progress moves to stderr)
//	-cpuprofile FILE  write a CPU profile of the run
//	-memprofile FILE  write a heap profile at exit
//
// Performance measurement lives in benchmark/ (see benchmark/README.md);
// this command only reproduces the paper's evaluation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"recross/internal/experiments"
)

// jsonResult is one experiment's machine-readable output. Tables carry
// their header and cell grid verbatim; text-only experiments (fig6)
// carry Text instead.
type jsonResult struct {
	Name    string     `json:"name"`
	Title   string     `json:"title,omitempty"`
	Note    string     `json:"note,omitempty"`
	Cols    []string   `json:"cols,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Text    string     `json:"text,omitempty"`
	Seconds float64    `json:"seconds"`
}

// jsonDoc is the top-level -json document.
type jsonDoc struct {
	VecLen  int          `json:"veclen"`
	Pooling int          `json:"pooling"`
	Batch   int          `json:"batch"`
	Ranks   int          `json:"ranks"`
	Quick   bool         `json:"quick"`
	Results []jsonResult `json:"results"`
}

func main() {
	quick := flag.Bool("quick", false, "scaled-down workload")
	csvDir := flag.String("csv", "", "also write each table as <dir>/<experiment>.csv")
	jsonOut := flag.Bool("json", false, "emit one JSON document on stdout instead of text tables")
	batch := flag.Int("batch", 0, "batch size (0 = default)")
	pooling := flag.Int("pooling", 0, "gathers per op (0 = default)")
	veclen := flag.Int("veclen", 0, "embedding vector length (0 = default)")
	ranks := flag.Int("ranks", 0, "ranks per channel (0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	finishProfiles := startProfiles(*cpuprofile, *memprofile)
	defer finishProfiles()

	cfg := experiments.Paper()
	if *quick {
		cfg = experiments.Quick()
	}
	if *batch > 0 {
		cfg.Batch = *batch
	}
	if *pooling > 0 {
		cfg.Pooling = *pooling
	}
	if *veclen > 0 {
		cfg.VecLen = *veclen
	}
	if *ranks > 0 {
		cfg.Ranks = *ranks
	}

	exps, err := experiments.Select(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	doc := jsonDoc{
		VecLen: cfg.VecLen, Pooling: cfg.Pooling, Batch: cfg.Batch,
		Ranks: cfg.Ranks, Quick: *quick,
	}
	if *jsonOut {
		fmt.Fprintf(os.Stderr, "recross-bench: veclen=%d pooling=%d batch=%d ranks=%d quick=%v\n",
			cfg.VecLen, cfg.Pooling, cfg.Batch, cfg.Ranks, *quick)
	} else {
		fmt.Printf("recross-bench: veclen=%d pooling=%d batch=%d ranks=%d quick=%v\n\n",
			cfg.VecLen, cfg.Pooling, cfg.Batch, cfg.Ranks, *quick)
	}
	for _, e := range exps {
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		took := time.Since(start).Seconds()
		tb, isTable := res.(*experiments.Table)
		if *jsonOut {
			jr := jsonResult{Name: e.Name, Seconds: took}
			if isTable {
				jr.Title, jr.Note, jr.Cols, jr.Rows = tb.Title, tb.Note, tb.Cols, tb.Rows
			} else {
				jr.Text = fmt.Sprint(res)
			}
			doc.Results = append(doc.Results, jr)
			fmt.Fprintf(os.Stderr, "%s done in %.1fs\n", e.Name, took)
		} else {
			fmt.Println(res)
			fmt.Printf("(%s took %.1fs)\n\n", e.Name, took)
		}
		if *csvDir != "" && isTable {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, e.Name+".csv")
			if err := os.WriteFile(path, []byte(tb.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// startProfiles starts the optional CPU profile and returns the function
// that stops it and writes the optional heap profile.
func startProfiles(cpu, mem string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize the retained-heap picture
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
}
