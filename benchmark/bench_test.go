package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSpecMatchesContractFile keeps BENCHMARK.json and the tables in
// spec.go the same, and both inside the limits the contract sets.
func TestSpecMatchesContractFile(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from spec.go; regenerate it with `go run -C benchmark . -spec > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("too many or too few workloads or metrics for the contract")
	}
}

// TestSmoke runs every workload at a twentieth of its length, untraced
// and traced: each named metric comes out once and finite, a layer that
// should be idle on a workload did no work there, and the layer that should
// dominate did.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ten real stacks; about half a minute")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rc := runConfig{workload: w.Name, seed: 1, seconds: defaultSeconds / 20.0, setups: 1, outDir: t.TempDir()}
			for _, traced := range []bool{false, true} {
				rc.trace = traced
				res, err := runWorkload(rc)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() || res.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d operations failed, %d wrong answers", traced, res.failed, res.attempted, res.mismatched)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics reported, %d defined", traced, len(res.metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.metrics[d.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("traced=%v: metric %s missing or not finite (%v)", traced, d.Name, v)
					}
					if !traced && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, v)
					}
				}
				if !traced {
					continue
				}
				if _, err := os.Stat(rc.tracePath()); err != nil {
					t.Errorf("no trace file: %v", err)
				}
				m := res.metrics
				for name, v := range m {
					idle := (strings.HasPrefix(name, "coldstore.") && w.Name != "serve_cold") ||
						((strings.HasPrefix(name, "wire.") || strings.HasPrefix(name, "cluster.")) && w.Name != "cluster_wire")
					if idle && v != 0 {
						t.Errorf("%s = %v on %s, where that layer should be idle", name, v, w.Name)
					}
				}
				switch w.Name {
				case "serve_cold":
					if m["coldstore.device_reads_per_lookup"] <= 0 || m["embedding.rowcache_hit_share"] >= 0.8 {
						t.Errorf("cold tier not exercised: %v device reads per lookup, row cache hit share %v",
							m["coldstore.device_reads_per_lookup"], m["embedding.rowcache_hit_share"])
					}
				case "cluster_wire":
					if m["cluster.subrequests_per_lookup"] <= 1 || m["wire.bytes_per_lookup"] <= 0 {
						t.Errorf("cluster not exercised: %v sub-requests and %v wire bytes per lookup",
							m["cluster.subrequests_per_lookup"], m["wire.bytes_per_lookup"])
					}
				case "sim_train":
					if m["dram.wrs_per_sample"] <= 0 {
						t.Error("training wrote nothing back")
					}
				}
				if m["process.goroutines_leaked"] != 0 {
					t.Errorf("%v goroutines leaked", m["process.goroutines_leaked"])
				}
			}
		})
	}
}

// TestOpenLoopTimesFromDue stalls the generator for 50 ms: the requests
// that were due during the stall are sent late, and their latency must
// include the wait although the system answered each at once.
func TestOpenLoopTimesFromDue(t *testing.T) {
	calls := 0
	sleep := func(d time.Duration) {
		calls++
		if calls == 20 {
			d += 50 * time.Millisecond
		}
		time.Sleep(d)
	}
	p := openLoop(200, 500*time.Millisecond, 0, func(context.Context, int) error { return nil }, sleep)
	s := summarize(p)
	if s.sent != 100 || s.failed != 0 {
		t.Fatalf("sent %d, failed %d; want 100, 0", s.sent, s.failed)
	}
	if s.lateMax < 40 {
		t.Errorf("generator lateness %.1f ms, want about 50", s.lateMax)
	}
	waited := 0
	for _, r := range p.ops {
		if lat := time.Duration(r.done - r.due); lat > 10*time.Millisecond {
			waited++
			if time.Duration(r.done-r.sent) > 5*time.Millisecond {
				t.Errorf("an instant answer took %v from send", time.Duration(r.done-r.sent))
			}
		}
	}
	// 200/s for 50 ms: about ten requests were due while the generator slept.
	if waited < 5 || waited > 15 {
		t.Errorf("%d requests carry the stall in their latency, want about 10", waited)
	}
	if s.p50 > 5 {
		t.Errorf("median %.2f ms moved by a stall that touched a tenth of the requests", s.p50)
	}
}

func TestOpenLoopRefusesOverCap(t *testing.T) {
	release := make(chan struct{})
	done := make(chan *phase)
	go func() {
		done <- openLoop(20000, 50*time.Millisecond, 0, func(context.Context, int) error {
			<-release
			return nil
		}, time.Sleep)
	}()
	time.Sleep(150 * time.Millisecond)
	close(release)
	s := summarize(<-done)
	if s.failed != s.sent-maxInFlight {
		t.Errorf("%d of %d refused, want all beyond the first %d", s.failed, s.sent, maxInFlight)
	}
}

func TestPercentiles(t *testing.T) {
	for n, want := range map[int]float64{9: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 5000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v: need ten samples beyond the percentile", n, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of an empty sample must be 0")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which is what the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2, 5, 4})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v; Python gives 1.5, 4.5", q1, q3)
	}
}

// TestCompareFiles compares a results file with itself (nothing worse, a
// row per workload and metric) and with a copy whose serve_hot latency
// rose by half (one row worse).
func TestCompareFiles(t *testing.T) {
	one := func(v float64) series { return series{Median: v, Q1: v, Q3: v, Runs: []float64{v}} }
	file := resultsFile{Workloads: map[string]*workloadResults{}}
	for _, w := range workloads {
		wr := &workloadResults{Correct: true, EndToEnd: map[string]series{}, PerLayer: map[string]series{"sim.cycles_checksum": one(42)}}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = one(10)
		}
		file.Workloads[w.Name] = wr
	}
	write := func(name string) string {
		path := t.TempDir() + "/" + name
		data, _ := json.Marshal(file)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json")
	var out bytes.Buffer
	worse, err := compareFiles(&out, oldPath, oldPath)
	if err != nil || worse {
		t.Fatalf("a file against itself: worse=%v err=%v", worse, err)
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(workloads)*(len(endToEnd)+1) {
		t.Errorf("%d rows, want a header and one per workload and metric plus checksum:\n%s", rows, out.String())
	}
	file.Workloads["serve_hot"].EndToEnd["lookup_p50_ms"] = one(15)
	out.Reset()
	worse, err = compareFiles(&out, oldPath, write("new.json"))
	if err != nil || !worse || strings.Count(out.String(), "worse") != 1 {
		t.Errorf("a 50 %% slower lookup_p50_ms must be the one worse row: worse=%v err=%v\n%s", worse, err, out.String())
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lookup_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "lookups_per_s", Better: "higher", Bound: 0.10}
	one := func(v float64) series { return series{Median: v, Q1: v, Q3: v, Runs: []float64{v}} }
	noisy := func(v float64, runs ...float64) series {
		q1, q3 := quartiles(runs)
		return series{Median: v, Q1: q1, Q3: q3, Runs: runs}
	}
	for _, c := range []struct {
		d        metricDef
		old, new series
		want     string
	}{
		{lower, one(4), one(4.5), "worse"},
		{lower, one(4), one(4.3), "same"},
		{lower, one(4), one(3), "better"},
		{higher, one(1000), one(880), "worse"},
		{higher, one(1000), one(1200), "better"},
		{lower, noisy(4, 3, 4, 5, 6), one(4.1), "unresolved"},
		{lower, noisy(4, 3.5, 4, 5, 6), noisy(3, 2.9, 3, 3.1, 3.2), "better"},
	} {
		if got := judge(c.d, c.old, c.new); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.d.Name, c.old.Median, c.new.Median, got, c.want)
		}
	}
}
