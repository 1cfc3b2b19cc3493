package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// series is one metric's readings over the repeats of a set.
type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

// spread is the inter-quartile distance as a share of the median.
func (s series) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

type workloadResults struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer"`
}

// resultsFile is what a full set writes: the numbers, and enough about the
// machine and the settings to know what they can be compared with.
type resultsFile struct {
	GoVersion  string                      `json:"go_version"`
	NProc      int                         `json:"nproc"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	Commit     string                      `json:"commit"`
	Seed       int64                       `json:"seed"`
	Seconds    float64                     `json:"seconds"`
	Repeat     int                         `json:"repeat"`
	Workloads  map[string]*workloadResults `json:"workloads"`
	// Definitions repeats spec.go's tables: each metric's unit, direction,
	// bound and clock, or its layer and the end-to-end metric it should move.
	Definitions struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []metricDef   `json:"per_layer"`
	} `json:"definitions"`
}

// runAll runs every named workload `repeat` times, each run in its own
// process (so peak_rss_mb and leaked goroutines are that workload's alone):
// first untraced for the end-to-end metrics, then traced for the layers.
func runAll(names []string, seed int64, seconds float64, repeat int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	file := resultsFile{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(), Seed: seed, Seconds: seconds, Repeat: repeat,
		Workloads: map[string]*workloadResults{},
	}
	file.Definitions.Workloads, file.Definitions.EndToEnd, file.Definitions.PerLayer = workloads, endToEnd, perLayer
	runs := map[string]map[bool]map[string][]float64{} // workload -> traced -> metric -> readings
	var untraced time.Duration
	var bad []string
	for rep := 0; rep < repeat; rep++ {
		for _, name := range names {
			wr := file.Workloads[name]
			if wr == nil {
				wr = &workloadResults{Correct: true}
				file.Workloads[name] = wr
				runs[name] = map[bool]map[string][]float64{false: {}, true: {}}
			}
			for _, traced := range []bool{false, true} {
				t0 := time.Now()
				line, err := runChild(self, name, seed, seconds, traced, outDir)
				if !traced {
					untraced += time.Since(t0)
				}
				if err != nil {
					return fmt.Errorf("%s (traced=%v): %w", name, traced, err)
				}
				if !line.Correct {
					wr.Correct = false
					bad = append(bad, fmt.Sprintf("%s: %d of %d operations failed", name, line.Failed, line.Attempted))
				}
				wr.Attempted += line.Attempted
				wr.Failed += line.Failed
				m := metrics{}
				for k, v := range line.Metrics {
					m[k] = v.Value
					runs[name][traced][k] = append(runs[name][traced][k], v.Value)
				}
				if repeat == 1 {
					printMetrics(os.Stdout, name, m, traced)
				}
			}
		}
	}
	for name, wr := range file.Workloads {
		wr.EndToEnd = summarizeRuns(runs[name][false], endToEnd)
		wr.PerLayer = summarizeRuns(runs[name][true], perLayer)
	}
	if repeat > 1 {
		for _, name := range names {
			printSeries(os.Stdout, name, file.Workloads[name].EndToEnd)
			printSeries(os.Stdout, name, file.Workloads[name].PerLayer)
		}
	}
	path := filepath.Join(outDir, "results.json")
	data, _ := json.MarshalIndent(file, "", "  ")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results written to %s; untraced runs took %.1f s of wall time in total\n", path, untraced.Seconds())
	if len(bad) > 0 {
		return fmt.Errorf("incorrect runs: %s", strings.Join(bad, "; "))
	}
	return nil
}

// runChild runs one workload in a fresh process and parses the JSON object
// it prints last.
func runChild(self, name string, seed int64, seconds float64, traced bool, outDir string) (reportLine, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var line reportLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		if runErr != nil {
			return line, runErr
		}
		return line, fmt.Errorf("no result line: %w", err)
	}
	return line, nil // an incorrect run exits 1 but still reports; the caller reads Correct
}

func summarizeRuns(readings map[string][]float64, defs []metricDef) map[string]series {
	out := map[string]series{}
	for _, d := range defs {
		r := readings[d.Name]
		if len(r) == 0 {
			continue
		}
		q1, q3 := quartiles(r)
		out[d.Name] = series{Unit: d.Unit, Median: median(r), Q1: q1, Q3: q3, Runs: r}
	}
	return out
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them; a single reading is its
// own quartiles.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func printSeries(w io.Writer, workload string, m map[string]series) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := m[n]
		fmt.Fprintf(w, "%-13s %-40s median %14.6g  q1 %14.6g  q3 %14.6g  spread %5.1f%%  %s\n",
			workload, n, s.Median, s.Q1, s.Q3, 100*s.spread(), s.Unit)
	}
}

// commit names the source revision when the checkout is a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compareFiles prints one row per (workload, end-to-end metric) and
// reports whether any got worse by more than its bound.
//
// A reading is worse when the new median is worse than the old by more
// than the bound. Otherwise, when either side's spread exceeds the bound
// the row is unresolved, unless every new run beats every old run. A row
// is better when the gain exceeds both sides' spread, and same otherwise.
func compareFiles(w io.Writer, oldPath, newPath string) (anyWorse bool, err error) {
	oldF, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, wl := range workloads {
		o, n := oldF.Workloads[wl.Name], newF.Workloads[wl.Name]
		if o == nil || n == nil {
			continue
		}
		for _, d := range endToEnd {
			os, ns := o.EndToEnd[d.Name], n.EndToEnd[d.Name]
			verdict := judge(d, os, ns)
			anyWorse = anyWorse || verdict == "worse"
			fmt.Fprintf(w, "%-13s %-24s %14.6g %14.6g %9.4f %6.1f%%  %s\n",
				wl.Name, d.Name, os.Median, ns.Median, ns.Median/os.Median, 100*d.Bound, verdict)
		}
		oc, nc := o.PerLayer["sim.cycles_checksum"], n.PerLayer["sim.cycles_checksum"]
		verdict := "identical simulated behaviour"
		if oc.Median != nc.Median {
			verdict = "simulated behaviour changed"
		}
		fmt.Fprintf(w, "%-13s %-24s %14.0f %14.0f %9s %7s  %s\n", wl.Name, "sim.cycles_checksum", oc.Median, nc.Median, "", "", verdict)
		if !n.Correct {
			anyWorse = true
			fmt.Fprintf(w, "%-13s %-24s %d of %d operations failed in the new runs: worse\n", wl.Name, "failed", n.Failed, n.Attempted)
		}
	}
	return anyWorse, nil
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func judge(d metricDef, old, new series) string {
	if old.Median == 0 {
		return "unresolved"
	}
	worsening := (new.Median - old.Median) / math.Abs(old.Median) // > 0 is worse
	if d.Better == "higher" {
		worsening = -worsening
	}
	noise := old.spread()
	if s := new.spread(); s > noise {
		noise = s
	}
	switch {
	case worsening > d.Bound:
		return "worse"
	case noise > d.Bound:
		if allBetter(d, old.Runs, new.Runs) {
			return "better"
		}
		return "unresolved"
	case worsening < 0 && -worsening > noise && new.Median != old.Median:
		return "better"
	}
	return "same"
}

// allBetter reports whether every new reading beats every old one.
func allBetter(d metricDef, old, new []float64) bool {
	for _, n := range new {
		for _, o := range old {
			if (d.Better == "lower" && n >= o) || (d.Better == "higher" && n <= o) {
				return false
			}
		}
	}
	return len(old) > 0 && len(new) > 0
}
