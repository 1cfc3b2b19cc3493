package recross

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
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

// serveWindow pushes waves×batch samples through the server, each wave
// submitted concurrently so the batcher flushes exactly at MaxBatch —
// every executed batch is a full one, making the simulated service
// cycles comparable across phases. Returns cycles per sample over the
// window (differenced from the cumulative service-cycle histogram).
func serveWindow(t *testing.T, srv *Server, gen *Generator, waves, batch int) float64 {
	t.Helper()
	pre := srv.Metrics().ServiceCycles.Snapshot()
	preSum := pre.Mean * float64(pre.Count)

	errs := make(chan error, batch)
	for w := 0; w < waves; w++ {
		samples := make([]Sample, batch)
		for i := range samples {
			samples[i] = gen.Sample()
		}
		var wg sync.WaitGroup
		for _, s := range samples {
			wg.Add(1)
			go func(s Sample) {
				defer wg.Done()
				if _, err := srv.Lookup(context.Background(), s); err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}(s)
		}
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}

	post := srv.Metrics().ServiceCycles.Snapshot()
	dSum := post.Mean*float64(post.Count) - preSum
	return dSum / float64(waves*batch)
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
	}}
	st, err := NewStack(ReCross, cfg, 4, ServeOptions{
		MaxBatch: 32,
		// Long relative to a wave's concurrent submission: batches flush at
		// MaxBatch, not the timer, so every batch is a full one.
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
	const waves, batch = 14, 32 // 448 samples per control window

	// Phase 1: stationary traffic — no adoption, low drift, and a
	// baseline for served cycles per sample.
	var baseline float64
	for w := 0; w < 4; w++ {
		cps := serveWindow(t, srv, gen, waves, batch)
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
		cps := serveWindow(t, srv, gen, waves, batch)
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
		recovered = serveWindow(t, srv, gen, waves, batch)
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
