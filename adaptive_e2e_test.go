package recross

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// adaptiveSpec is sized so per-batch gather load dominates the regions'
// fixed psum cost — the regime where placement matters and a hot-set
// shift degrades the deployed placement measurably.
func adaptiveSpec() ModelSpec {
	return ModelSpec{Name: "adaptive-e2e", Tables: []TableSpec{
		{Name: "hot-a", Rows: 60000, VecLen: 64, Pooling: 48, Prob: 1, Skew: 1.3},
		{Name: "hot-b", Rows: 30000, VecLen: 64, Pooling: 32, Prob: 1, Skew: 1.2},
	}}
}

// serveWindow pushes waves of traffic through the server and returns the
// window's served cycles per sample, counted over full batches so that it
// is comparable across phases, and how many waves rode one full batch.
// The batcher is work-conserving: a sample flushes at once while some
// replica is idle, and samples coalesce only while every replica is busy.
// The stack stalls every batch (chaos latency), so each wave first sends
// one opener per replica, one at a time, to occupy the pool; then its
// batch samples, already parked on their goroutines, are released at
// once and coalesce until MaxBatch. A wave that arrives after an opener's
// stall ended splits across smaller batches and is not counted. Openers
// are drawn from the same generator, so the adaptive tracker sees one
// traffic stream.
func serveWindow(t *testing.T, srv *Server, gen *Generator, waves, batch int) (cps float64, full int) {
	t.Helper()
	type served struct {
		batch  int
		cycles int64
	}
	var cycles int64
	errs := make(chan error, batch+srv.Replicas())
	lookup := func(s Sample, results chan<- served) {
		res, err := srv.Lookup(context.Background(), s)
		if err != nil {
			errs <- err
			return
		}
		if results != nil {
			results <- served{res.BatchSize, int64(res.ServiceCycles)}
		}
	}
	for w := 0; w < waves; w++ {
		start := make(chan struct{})
		results := make(chan served, batch)
		var wg sync.WaitGroup
		for i := 0; i < batch; i++ {
			wg.Add(1)
			go func(s Sample) {
				defer wg.Done()
				<-start
				lookup(s, results)
			}(gen.Sample())
		}
		for i := 0; i < srv.Replicas(); i++ {
			formed := srv.Metrics().BatchForm.Snapshot().Count
			wg.Add(1)
			go func(s Sample) {
				defer wg.Done()
				lookup(s, nil)
			}(gen.Sample())
			// Dispatched once its batch forms: the batcher routes it to
			// an idle replica before it dequeues anything else.
			for srv.Metrics().BatchForm.Snapshot().Count == formed {
				runtime.Gosched()
			}
		}
		close(start)
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		// A full batch holds the whole wave: one batch, one cycle count.
		if res := <-results; res.batch == batch {
			full++
			cycles += res.cycles
		}
	}
	if full == 0 {
		return 0, 0
	}
	return float64(cycles) / float64(full*batch), full
}

// TestAdaptiveE2E is the acceptance run for the adaptive repartitioning
// subsystem: a 4-replica pool under skewed traffic whose hot set is
// permuted mid-run. The controller must adopt exactly one repartition,
// served cycles per sample must recover to near the pre-shift level,
// answers must stay bit-identical to the functional layer throughout,
// and every adapt series must appear on /metrics.
func TestAdaptiveE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second acceptance run")
	}
	spec := adaptiveSpec()
	cfg := Config{Spec: spec, ProfileSamples: 1500, Batch: 32, Adapt: &AdaptOptions{
		Threshold: 0.12,
		Windows:   2,
		// Cooldown left at the 30s default: it is part of the hysteresis
		// gate, and together with the re-baselined detector and MinGain it
		// must hold adoption to exactly one for this run.
		MinGain:         0.05,
		AmortizeBatches: 1_000_000,
		MinSamples:      400,
	},
		// Every batch stalls (wall time only; simulated cycles are
		// untouched), so serveWindow's openers hold every replica busy
		// while a wave arrives.
		Chaos: &FaultConfig{Rates: FaultRates{Latency: 1}, Stall: 20 * time.Millisecond},
	}
	st, err := NewStack(ReCross, cfg, 4, ServeOptions{
		MaxBatch: 32,
		// Long relative to a wave's concurrent submission: with every
		// replica busy, a wave's batch flushes at MaxBatch, not the timer.
		MaxDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, ctrl := st.Server, st.Adapt
	defer srv.Close()

	layer, err := NewLayer(spec)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	const waves, batch = 14, 32 // 448 measured samples (+56 openers) per control window
	window := func() float64 {
		cps, full := serveWindow(t, srv, gen, waves, batch)
		if full < waves/4 {
			t.Fatalf("only %d of %d waves rode one full batch", full, waves)
		}
		return cps
	}

	// Phase 1: stationary traffic — no adoption, low drift, and a
	// baseline for served cycles per sample.
	var baseline float64
	for w := 0; w < 4; w++ {
		cps := window()
		res := ctrl.Step()
		if res.Adopted {
			t.Fatalf("window %d: adopted a repartition on stationary traffic", w)
		}
		baseline = cps // last stationary window
	}

	// Phase 2: permute the hot set. Exactly one repartition must be
	// adopted within a bounded number of control windows.
	if err := gen.ShiftHotSet(424242); err != nil {
		t.Fatal(err)
	}
	var drifted float64
	adoptedAt := -1
	for w := 0; w < 10; w++ {
		cps := window()
		res := ctrl.Step()
		if res.Err != nil {
			t.Fatalf("window %d: %v", w, res.Err)
		}
		if res.Adopted {
			adoptedAt = w
			break
		}
		drifted = cps // last pre-adoption drifted window
	}
	if adoptedAt < 0 {
		t.Fatalf("no repartition adopted within 10 post-shift windows (metrics %+v)", ctrl.Metrics())
	}
	if drifted <= baseline*1.05 {
		t.Fatalf("shift did not degrade service: baseline %.0f, drifted %.0f cycles/sample", baseline, drifted)
	}

	// Phase 3: settle. No second adoption (the detector re-baselines on
	// the adopted profile), and served cycles recover to within 25% of
	// the stationary baseline.
	var recovered float64
	for w := 0; w < 4; w++ {
		recovered = window()
		if res := ctrl.Step(); res.Adopted {
			t.Fatalf("settle window %d: second adoption", w)
		}
	}
	m := ctrl.Metrics()
	if m.Adoptions != 1 {
		t.Fatalf("adoptions = %d, want exactly 1", m.Adoptions)
	}
	if recovered > baseline*1.25 {
		t.Fatalf("service did not recover: baseline %.0f, drifted %.0f, settled %.0f cycles/sample",
			baseline, drifted, recovered)
	}
	if recovered >= drifted {
		t.Fatalf("settled %.0f cycles/sample not better than drifted %.0f", recovered, drifted)
	}
	if m.RowsMigrated <= 0 || m.BytesMigrated <= 0 {
		t.Fatalf("migration volume not recorded: %+v", m)
	}
	if m.EstimatedGain < 1+0.05 {
		t.Fatalf("estimated gain %.3f below the gate's minimum", m.EstimatedGain)
	}

	// Phase 4: repartitioning moves rows, never values — post-adoption
	// answers are bit-identical to the functional embedding layer.
	for i := 0; i < 40; i++ {
		sample := gen.Sample()
		res, err := srv.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatal(err)
		}
		want, err := layer.ReduceSample(sample)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if !AlmostEqual(res.Vectors[k], want[k], 0) {
				t.Fatalf("sample %d op %d: served vector differs from functional layer after repartition", i, k)
			}
		}
	}

	// Phase 5: every adapt series is exported on /metrics.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"recross_adapt_windows_total",
		"recross_adapt_triggers_total",
		"recross_adapt_replans_total",
		"recross_adapt_repartitions_total 1",
		"recross_adapt_rejected_total",
		"recross_adapt_skipped_total",
		"recross_adapt_errors_total",
		"recross_adapt_rows_migrated_total",
		"recross_adapt_bytes_migrated_total",
		"recross_adapt_drift_score",
		"recross_adapt_drift_ks",
		"recross_adapt_last_speedup",
		"recross_adapt_estimated_gain",
		"recross_adapt_realized_gain",
		"recross_adapt_samples_observed",
	} {
		if !strings.Contains(string(body), series) {
			t.Fatalf("/metrics missing %q", series)
		}
	}
}

// BenchmarkServeObserver measures the serving hot path with and without
// the adaptive observer tap, so the sketch overhead is directly
// comparable (the acceptance bar is <= 5% throughput).
func BenchmarkServeObserver(b *testing.B) {
	spec := ModelSpec{Name: "bench-observe", Tables: []TableSpec{
		{Name: "t0", Rows: 50000, VecLen: 16, Pooling: 16, Prob: 1, Skew: 1.1},
	}}
	for _, mode := range []string{"off", "on"} {
		b.Run("observer="+mode, func(b *testing.B) {
			cfg := Config{Spec: spec, ProfileSamples: 500, Batch: 16}
			if mode == "on" {
				cfg.Adapt = &AdaptOptions{} // observe-only: never stepped
			}
			srv, err := NewServer(ReCross, cfg, 1, ServeOptions{MaxBatch: 16})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			gen, err := NewGenerator(spec, 3)
			if err != nil {
				b.Fatal(err)
			}
			sample := gen.Sample()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Lookup(context.Background(), sample); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
