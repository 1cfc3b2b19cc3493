package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestFlagsGolden: the flag set's names and default strings are the
// command's public surface; testdata/flags.golden pins all 58.
func TestFlagsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	var o options
	fs := flag.NewFlagSet("recross-serve", flag.ContinueOnError)
	bind(fs, &o)
	var got strings.Builder
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		fmt.Fprintf(&got, "%s=%s\n", f.Name, f.DefValue)
		// Bound straight onto the config: the live value must read back
		// as the default before any parsing.
		if f.Value.String() != f.DefValue {
			t.Errorf("-%s: bound value %q != default %q", f.Name, f.Value, f.DefValue)
		}
	})
	if n != 58 {
		t.Errorf("%d flags, want 58", n)
	}
	if got.String() != string(want) {
		t.Errorf("flag names/defaults drifted from testdata/flags.golden:\n%s", got.String())
	}
}

// TestRunComposedSmoke: every optional stage on at once — cold tier,
// replica chaos, int8 storage — in one loadgen process; no request may
// fail, the resolved config must be printed and the report must carry the
// cold tier's line. -cold-cap-mb is left at its default, which sizes the
// tier to the whole ~8 GB model the 8 MiB DRAM budget displaces.
func TestRunComposedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2-replica Criteo-Kaggle stack")
	}
	var stdout, stderr bytes.Buffer
	dir := t.TempDir()
	err := run(strings.Fields("-loadgen -duration 300ms -replicas 2 -cold -cold-budget-mb 8 -cold-dir "+dir+
		" -chaos-latency 0.05 -chaos-panic 0.01 -precision int8"), &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stdout.String()
	if !regexp.MustCompile(`completed  [1-9]`).MatchString(out) {
		t.Errorf("report shows no completed requests:\n%s", out)
	}
	if m := regexp.MustCompile(`failed (\d+), errors (\d+)`).FindStringSubmatch(out); m != nil && (m[1] != "0" || m[2] != "0") {
		t.Errorf("requests failed under composed chaos:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^  cold       [1-9]\d* device page reads, page-cache hit rate [0-9.]+, 0 fallbacks, breaker closed$`).MatchString(out) {
		t.Errorf("report lacks the cold line:\n%s", out)
	}
	// The resolved config prints the derived capacity: the model's bytes
	// rounded up to MiB.
	if !regexp.MustCompile(` -cold-cap-mb=[1-9]\d{3,} `).MatchString(stderr.String()) {
		t.Errorf("config dump lacks the model-sized -cold-cap-mb:\n%s", stderr.String())
	}
	for _, want := range []string{" -cold=true", " -chaos-panic=0.01", " -precision=int8", " -cold-budget-mb=8"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("config dump lacks %q:\n%s", want, stderr.String())
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("cold backing file survived close: %v", left)
	}
}

// TestRunRejects: flag and composition errors surface as errors from
// run, not process exits.
func TestRunRejects(t *testing.T) {
	for _, args := range []string{
		"-no-such-flag",
		"-precision fp8",
		"-chaos-cold-read-err 0.1", // needs -cold
		"-cluster -1",              // a negative node count, not single-node mode
	} {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(args), &stdout, &stderr); err == nil {
			t.Errorf("run(%q) = nil, want an error", args)
		}
	}
	// Peers are binary-wire listeners; the rejection must say which
	// address of the peer to give instead.
	var stdout, stderr bytes.Buffer
	err := run(strings.Fields("-cluster-peers http://127.0.0.1:1"), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-bin-addr") {
		t.Errorf("run(-cluster-peers http://...) = %v, want an error naming -bin-addr", err)
	}
}

// TestRouterBinListenerMetrics: a cluster router serving with -bin-addr
// publishes its binary listener's recross_cluster_wire_*{role="server"}
// series on /metrics, as a single node does.
func TestRouterBinListenerMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2-node Criteo-Kaggle cluster")
	}
	// Both listeners bind port 0 and the test reads the bound addresses
	// back from the log, so no other process can take a probed port first.
	// With a handler of our own installed, a SIGTERM that arrives before
	// run installs its handler is dropped instead of ending the process.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM)
	defer signal.Stop(sigs)

	var stdout bytes.Buffer
	stderr := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(strings.Fields("-cluster 2 -replicas 1 -addr 127.0.0.1:0 -bin-addr 127.0.0.1:0"), &stdout, stderr)
	}()
	httpRe := regexp.MustCompile(`router listening on (\S+)`)
	binRe := regexp.MustCompile(`binary wire listening on (\S+)`)
	var body []byte
	var binAddr string
	for deadline := time.Now().Add(60 * time.Second); body == nil; time.Sleep(20 * time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("run exited before serving: %v\nstderr:\n%s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never served /metrics\nstderr:\n%s", stderr.String())
		}
		logged := stderr.String()
		m, bm := httpRe.FindStringSubmatch(logged), binRe.FindStringSubmatch(logged)
		if m == nil || bm == nil {
			continue
		}
		binAddr = bm[1]
		resp, err := http.Get("http://" + m[1] + "/metrics")
		if err != nil {
			continue
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if c, err := net.Dial("tcp", binAddr); err != nil {
		t.Errorf("binary listener's logged address %s: %v", binAddr, err)
	} else {
		c.Close()
	}
	if !regexp.MustCompile(`(?m)^recross_cluster_wire_frames_in_total\{[^}]*role="server"`).Match(body) {
		t.Errorf("router /metrics lacks the binary listener's role=\"server\" series:\n%s", body)
	}
	for {
		_ = syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run: %v", err)
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// syncBuffer is a bytes.Buffer that run's logging goroutines and the test
// may use at once.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
