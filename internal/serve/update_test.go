package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"recross/internal/arch"
	"recross/internal/trace"
)

// namedFake wraps fakeSys with a distinguishable name, so an applied
// update is observable through the health report's system name.
type namedFake struct {
	fakeSys
	name string
}

func (n *namedFake) Name() string { return n.name }

func TestStageUpdateAppliesAtBatchBoundary(t *testing.T) {
	old := []*namedFake{{name: "v1-a"}, {name: "v1-b"}}
	s := newTestServer(t, Options{
		Systems: []arch.System{old[0], old[1]}, MaxBatch: 1, MaxDelay: time.Microsecond,
	})
	defer s.Close()

	samples := testSamples(t, 8)
	if _, err := s.Lookup(context.Background(), samples[0]); err != nil {
		t.Fatal(err)
	}

	// The replacement systems share a gate: the first post-update batch
	// parks inside v2.Run, holding that replica's outstanding count up so
	// least-outstanding dispatch provably routes the next single to the
	// OTHER replica — both replicas cross a batch boundary, determinism
	// without a timing loop.
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	var applied atomic.Int64
	n := s.StageUpdate(func(id int, sys arch.System) (arch.System, error) {
		applied.Add(1)
		return &namedFake{fakeSys: fakeSys{gate: gate, started: started}, name: "v2"}, nil
	})
	if n != 2 {
		t.Fatalf("staged on %d replicas, want 2", n)
	}
	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(sample trace.Sample) {
			_, err := s.Lookup(context.Background(), sample)
			errc <- err
		}(samples[i])
		<-started // the replica applied the update and is parked in v2.Run
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if applied.Load() != 2 {
		t.Fatalf("update applied on %d replicas, want 2", applied.Load())
	}
	m := s.Metrics()
	if m.UpdatesStaged.Load() != 2 || m.UpdatesApplied.Load() != 2 || m.UpdateFailures.Load() != 0 {
		t.Fatalf("update counters staged=%d applied=%d failed=%d",
			m.UpdatesStaged.Load(), m.UpdatesApplied.Load(), m.UpdateFailures.Load())
	}
	// The swap must be visible in the health report's system names.
	seen := 0
	for _, r := range s.Health().Replicas {
		if r.System == "v2" {
			seen++
		}
	}
	if seen != 2 {
		t.Fatalf("%d replicas report the new system name, want 2", seen)
	}
}

func TestStageUpdateFailureKeepsOldSystem(t *testing.T) {
	s := newTestServer(t, Options{
		Systems: []arch.System{&namedFake{name: "v1"}}, MaxBatch: 1, MaxDelay: time.Microsecond,
	})
	defer s.Close()
	s.StageUpdate(func(id int, sys arch.System) (arch.System, error) {
		return nil, errors.New("synthetic update failure")
	})
	samples := testSamples(t, 4)
	for i := 0; i < 3; i++ {
		if _, err := s.Lookup(context.Background(), samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Metrics().UpdateFailures.Load(); got != 1 {
		t.Fatalf("UpdateFailures = %d, want 1", got)
	}
	if got := s.Metrics().UpdatesApplied.Load(); got != 0 {
		t.Fatalf("UpdatesApplied = %d, want 0", got)
	}
	for _, r := range s.Health().Replicas {
		if r.System != "v1" {
			t.Fatalf("failed update replaced the system: %q", r.System)
		}
	}
	// The replica must still serve.
	if _, err := s.Lookup(context.Background(), samples[3]); err != nil {
		t.Fatalf("replica broken after failed update: %v", err)
	}
}

func TestStageUpdateLatestWins(t *testing.T) {
	gate := make(chan struct{})
	fs := &fakeSys{gate: gate, started: make(chan struct{}, 8)}
	s := newTestServer(t, Options{Systems: []arch.System{fs}, MaxBatch: 1, MaxDelay: time.Microsecond})
	defer s.Close()

	// Park the worker inside a batch so staged updates pile up.
	samples := testSamples(t, 3)
	res1 := make(chan error, 1)
	go func() {
		_, err := s.Lookup(context.Background(), samples[0])
		res1 <- err
	}()
	<-fs.started // worker is inside Run now

	var got atomic.Int64
	s.StageUpdate(func(id int, sys arch.System) (arch.System, error) {
		got.Store(1)
		return sys, nil
	})
	s.StageUpdate(func(id int, sys arch.System) (arch.System, error) {
		got.Store(2)
		return sys, nil
	})
	close(gate)
	if err := <-res1; err != nil {
		t.Fatal(err)
	}
	// Next batch applies exactly the latest staged update.
	if _, err := s.Lookup(context.Background(), samples[1]); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 2 {
		t.Fatalf("applied update %d, want the latest (2)", got.Load())
	}
	if applied := s.Metrics().UpdatesApplied.Load(); applied != 1 {
		t.Fatalf("UpdatesApplied = %d, want 1 (latest wins, earlier replaced)", applied)
	}
}

// TestMetricSetServesRegisteredSeries: a series a subsystem registers in
// the server's set rides /metrics next to the server's own.
func TestMetricSetServesRegisteredSeries(t *testing.T) {
	s := newTestServer(t, Options{Systems: []arch.System{&fakeSys{}}})
	defer s.Close()
	s.MetricSet().IntGauge("custom_series", "A subsystem's gauge.", func() int64 { return 7 }, "stage", "x")
	body := scrape(t, s)
	if !strings.Contains(body, "# TYPE custom_series gauge\ncustom_series{stage=\"x\"} 7\n") {
		t.Fatalf("registered series missing from /metrics:\n%s", body)
	}
	if !strings.Contains(body, "recross_updates_applied_total 0\n") {
		t.Fatalf("update counters missing from /metrics:\n%s", body)
	}
}

// scrape GETs /metrics through the server's handler.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	return rec.Body.String()
}
