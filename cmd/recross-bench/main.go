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
//	-json         one JSON document on stdout (progress moves to stderr);
//	              a table's labels are JSON strings, its values numbers
//	-cpuprofile FILE  write a CPU profile of the run
//	-memprofile FILE  write a heap profile at exit
//
// A non-zero -batch, -pooling, -veclen or -ranks applies; a bad one, like
// an unknown experiment, exits 2 before any experiment runs.
//
// Performance measurement lives in benchmark/ (see benchmark/README.md);
// this command only reproduces the paper's evaluation.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"recross/internal/experiments"
)

// jsonResult is one experiment's machine-readable output: a table, or
// for text-only experiments (fig6) Text.
type jsonResult struct {
	Name string `json:"name"`
	*experiments.Table
	Text    string  `json:"text,omitempty"`
	Seconds float64 `json:"seconds"`
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

// usageError marks a bad command line: a flag, a workload dimension or an
// experiment name. It exits 2 before any experiment runs.
type usageError struct{ error }

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "recross-bench:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("recross-bench", flag.ExitOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "scaled-down workload")
	csvDir := fs.String("csv", "", "also write each table as <dir>/<experiment>.csv")
	jsonOut := fs.Bool("json", false, "emit one JSON document on stdout instead of text tables")
	batch := fs.Int("batch", 0, "batch size (0 = default)")
	pooling := fs.Int("pooling", 0, "gathers per op (0 = default)")
	veclen := fs.Int("veclen", 0, "embedding vector length (0 = default)")
	ranks := fs.Int("ranks", 0, "ranks per channel (0 = default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	_ = fs.Parse(args) // ExitOnError: a parse error never returns

	cfg := experiments.Paper()
	if *quick {
		cfg = experiments.Quick()
	}
	for _, f := range []struct{ dst, v *int }{
		{&cfg.Batch, batch}, {&cfg.Pooling, pooling}, {&cfg.VecLen, veclen}, {&cfg.Ranks, ranks},
	} {
		if *f.v != 0 {
			*f.dst = *f.v
		}
	}
	if err := cfg.Validate(); err != nil {
		return usageError{err}
	}
	exps, err := experiments.Select(fs.Args())
	if err != nil {
		return usageError{err}
	}
	finishProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, finishProfiles()) }()

	doc := jsonDoc{VecLen: cfg.VecLen, Pooling: cfg.Pooling, Batch: cfg.Batch, Ranks: cfg.Ranks, Quick: *quick}
	header := fmt.Sprintf("recross-bench: veclen=%d pooling=%d batch=%d ranks=%d quick=%v",
		cfg.VecLen, cfg.Pooling, cfg.Batch, cfg.Ranks, *quick)
	if *jsonOut {
		fmt.Fprintln(stderr, header)
	} else {
		fmt.Fprintf(stdout, "%s\n\n", header)
	}
	for _, e := range exps {
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		took := time.Since(start).Seconds()
		tb, isTable := res.(*experiments.Table)
		if *jsonOut {
			text, _ := res.(string)
			doc.Results = append(doc.Results, jsonResult{Name: e.Name, Table: tb, Text: text, Seconds: took})
			fmt.Fprintf(stderr, "%s done in %.1fs\n", e.Name, took)
		} else {
			fmt.Fprintln(stdout, res)
			fmt.Fprintf(stdout, "(%s took %.1fs)\n\n", e.Name, took)
		}
		if *csvDir != "" && isTable {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*csvDir, e.Name+".csv"), []byte(tb.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	if !*jsonOut {
		return nil
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// startProfiles starts the optional CPU profile and returns the function
// that stops it, closes its file and writes the optional heap profile.
func startProfiles(cpu, mem string) (func() error, error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		var err error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			err = cpuFile.Close()
		}
		if mem == "" {
			return err
		}
		f, ferr := os.Create(mem)
		if ferr != nil {
			return errors.Join(err, ferr)
		}
		runtime.GC() // materialize the retained-heap picture
		return errors.Join(err, pprof.WriteHeapProfile(f), f.Close())
	}, nil
}
