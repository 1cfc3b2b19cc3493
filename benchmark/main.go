// Command benchmark is this repository's benchmark: five workloads on two
// clocks (simulated DRAM cycles and host wall time), end-to-end metrics
// with fixed regression bounds, and a traced run that measures every layer
// from outside. See README.md beside this file.
//
//	go run -C benchmark . --workload serve_hot --seed 1 --seconds 16 --trace 0
//	go run -C benchmark .                      # all workloads, both runs each
//	go run -C benchmark . -repeat 5            # medians and quartiles
//	go run -C benchmark . -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 16

type metrics map[string]float64

func (m metrics) merge(o metrics) {
	for k, v := range o {
		m[k] = v
	}
}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int    // how many times the untraced run sets up (median reported)
	outDir   string // trace files and cold-store scratch go here
}

// dur is the given share of the run's measuring time.
func (rc runConfig) dur(share float64) time.Duration {
	return time.Duration(share * rc.seconds * float64(time.Second))
}

func (rc runConfig) tracePath() string {
	return filepath.Join(rc.outDir, "trace-"+rc.workload+".json")
}

// result is what one run reports.
type result struct {
	attempted, failed, mismatched int
	metrics                       metrics
	rec                           *recorder // traced runs: spans to write out
}

// medianSetup builds the workload's system at least k times, and up to
// 3k times while the builds together have taken under two seconds, closing
// all but the last, and returns the median build time in seconds. One
// build is tens of milliseconds to a second, so a single reading would
// carry whatever else the machine was doing at that moment.
func medianSetup(k int, build func() (closer func() error, err error)) (float64, error) {
	var secs []float64
	var total time.Duration
	var closer func() error
	for i := 0; i < k || (i < 3*k && total < 2*time.Second); i++ {
		if closer != nil {
			if err := closer(); err != nil {
				return 0, fmt.Errorf("setup teardown: %w", err)
			}
			debug.FreeOSMemory() // so repeated set-ups do not stack up in peak_rss_mb
		}
		t0 := time.Now()
		var err error
		if closer, err = build(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		total += d
		secs = append(secs, d.Seconds())
	}
	return median(secs), nil
}

// runWorkload runs one workload in this process and completes the metric
// set: process-level figures, and 0 for every layer that did no work.
func runWorkload(rc runConfig) (*result, error) {
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	base := runtime.NumGoroutine()
	var res *result
	var err error
	switch rc.workload {
	case "sim_infer", "sim_train":
		res, err = runSimWorkload(rc, rc.workload == "sim_train")
	default:
		res, err = runServeWorkload(rc)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rc.workload, err)
	}
	leaked := leakedGoroutines(base)
	if rc.trace {
		res.metrics["process.goroutines_leaked"] = float64(leaked)
		res.metrics["loadgen.failed_share"] = float64(res.failed) / float64(res.attempted)
		if err := res.rec.write(rc.tracePath(), rc.workload, rc.seed); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	} else {
		res.metrics["peak_rss_mb"] = peakRSSMiB()
	}
	out := metrics{}
	for _, d := range defsFor(rc.trace) {
		v, ok := res.metrics[d.Name]
		if !ok && !rc.trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", rc.workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", rc.workload, d.Name, v)
		}
		out[d.Name] = v
	}
	res.metrics = out
	if leaked > 0 {
		return res, fmt.Errorf("%s: %d goroutines still running two seconds after Close", rc.workload, leaked)
	}
	return res, nil
}

// correct reports whether the run's outputs were right and its failures
// within the allowed share.
func (r *result) correct() bool {
	return r.mismatched == 0 && float64(r.failed) <= maxFailedShare*float64(r.attempted)
}

// reportLine is the single JSON object a run prints last.
type reportLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// defsFor returns the metrics a run reports: end-to-end untraced,
// per-layer traced.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func (r *result) line(trace bool) reportLine {
	defs := defsFor(trace)
	l := reportLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		l.Metrics[d.Name] = metricValue{r.metrics[d.Name], d.Unit}
	}
	return l
}

func main() {
	var (
		workload = flag.String("workload", "", "one workload runs in this process; several (a,b) or none run each in its own process, untraced then traced")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "single workload: 0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
		out      = flag.String("out", "", "directory for results.json, trace files and scratch (default: out/ beside the benchmark's sources)")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times and print median and quartiles per metric")
		compare  = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as the metric tables in spec.go define it, and exit")
	)
	flag.Parse()
	if *spec {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if *out == "" {
		*out = "out"
		if _, err := os.Stat("benchmark/go.mod"); err == nil { // started from the repository root
			*out = "benchmark/out"
		}
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare old.json new.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	names := strings.Split(*workload, ",")
	if *workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if !knownWorkload(n) {
			fatal(fmt.Errorf("unknown workload %q", n))
		}
	}

	if len(names) == 1 && *repeat == 1 {
		rc := runConfig{workload: names[0], seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 3, outDir: *out}
		res, err := runWorkload(rc)
		if res == nil {
			fatal(err)
		}
		printMetrics(os.Stdout, rc.workload, res.metrics, rc.trace)
		line, _ := json.Marshal(res.line(rc.trace))
		fmt.Println(string(line))
		if err != nil {
			fatal(err)
		}
		if !res.correct() {
			fatal(fmt.Errorf("%s: %d of %d operations failed (%d wrong answers)", rc.workload, res.failed, res.attempted, res.mismatched))
		}
		return
	}
	if err := runAll(names, *seed, *seconds, *repeat, *out); err != nil {
		fatal(err)
	}
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// printMetrics writes one "workload metric value unit" row per metric.
func printMetrics(w *os.File, workload string, m metrics, trace bool) {
	defs := defsFor(trace)
	names := make([]string, 0, len(defs))
	units := map[string]string{}
	for _, d := range defs {
		names = append(names, d.Name)
		units[d.Name] = d.Unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-13s %-40s %16.6g %s\n", workload, n, m[n], units[n])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
