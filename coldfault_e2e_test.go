package recross

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestColdFaultE2E is the acceptance run for storage-tier fault tolerance:
// the oversubscribed cold-tier table set (coldSpec, ~4.4x the DRAM budget)
// is served while the backing device injects page corruption and read
// stalls, and every answer stays bit-identical to an all-DRAM functional
// reference — corruption is caught by the per-page CRC32C and repaired
// from the source tables. A scripted sticky device outage then drives the
// circuit breaker open (replicas flip to cold-degraded health, cold rows
// ride the direct-materialization fallback, still bit-exact) and, after
// the device is restored, the background scrubber's probes alone walk the
// breaker half-open -> closed. The run must never wedge; under -race this
// is the whole path's thread-safety proof.
func TestColdFaultE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second acceptance run")
	}
	spec := coldSpec()
	cold := coldTierConfig()
	cold.Retries = 1
	cold.BreakerThreshold = 2
	cold.BreakerProbes = 1
	// Recovery must come from the scrubber observing device health, not
	// from elapsed time: park the cooldown beyond the test.
	cold.BreakerCooldown = time.Hour
	cold.ScrubInterval = time.Millisecond
	var dev *FaultyColdDevice
	cold.WrapDevice = func(d ColdDevice) ColdDevice {
		dev = WrapColdDevice(d, ColdFaultConfig{
			Rates: ColdFaultRates{CorruptPage: 0.05, Stall: 0.02},
			Stall: 200 * time.Microsecond,
			Seed:  9,
		}, nil)
		return dev
	}

	cfg := Config{Spec: spec, ProfileSamples: 1500, Batch: 32, Cold: cold}
	srv, err := NewServer(ReCross, cfg, 2, ServeOptions{
		MaxBatch: 32,
		MaxDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if dev == nil {
		t.Fatal("WrapDevice never invoked — cold store not built")
	}

	ref, err := NewLayer(spec) // all-DRAM functional reference
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	checkBitIdentical := func(phase string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			sample := gen.Sample()
			res, err := srv.Lookup(context.Background(), sample)
			if err != nil {
				t.Fatalf("%s sample %d: %v", phase, i, err)
			}
			want, err := ref.ReduceSample(sample)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if !AlmostEqual(res.Vectors[k], want[k], 0) {
					t.Fatalf("%s sample %d op %d: served vector differs from all-DRAM reference", phase, i, k)
				}
			}
		}
	}

	// Phase 1: corruption and stalls flowing, answers bit-exact, health ok.
	// Repairable faults must not trip the breaker.
	checkBitIdentical("injected-corruption", 40)
	if h := srv.Health(); h.ColdDegraded || h.Status != "ok" {
		t.Fatalf("repairable corruption degraded the tier: %+v", h)
	}

	// Phase 2: sticky device outage. The scrubber's failed probes open the
	// breaker; replicas flip to cold-degraded; answers stay bit-exact via
	// the direct-materialization fallback.
	dev.FailDevice()
	deadline := time.Now().Add(10 * time.Second)
	for !srv.Health().ColdDegraded {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened during sticky outage")
		}
		time.Sleep(time.Millisecond)
	}
	if h := srv.Health(); h.Status != "cold-degraded" {
		t.Fatalf("health status %q during outage, want cold-degraded", h.Status)
	}
	checkBitIdentical("sticky-outage", 40)
	res, err := srv.Lookup(context.Background(), gen.Sample())
	if err != nil {
		t.Fatal(err)
	}
	if !res.ColdDegraded {
		t.Fatal("Result.ColdDegraded false while the breaker is open")
	}
	if srv.Layer().ColdFallbacks() == 0 {
		t.Fatal("no direct-materialization fallbacks during the outage")
	}

	// The degraded state rides /healthz (200 — answers are still correct)
	// and /metrics while the outage lasts.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz %d during cold degradation, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(hb), `"cold_degraded":true`) || !strings.Contains(string(hb), `"cold-degraded"`) {
		t.Fatalf("/healthz body missing cold degradation: %s", hb)
	}

	// Phase 3: restore the device. Only the scrubber can recover it (the
	// cooldown is an hour): its probes walk the breaker open -> half-open
	// -> closed with no request traffic required.
	dev.RestoreDevice()
	for srv.Health().ColdDegraded {
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the device was restored")
		}
		time.Sleep(time.Millisecond)
	}
	if h := srv.Health(); h.Status != "ok" {
		t.Fatalf("health status %q after recovery, want ok", h.Status)
	}
	checkBitIdentical("post-recovery", 40)

	// Phase 4: closed-loop load with injection still flowing — the server
	// must keep answering with bounded latency (never wedge).
	rep, err := Loadgen(srv, LoadgenOptions{
		Spec:     spec,
		Clients:  4,
		Duration: 800 * time.Millisecond,
		TailMass: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("loadgen completed no requests under injection")
	}
	if rep.P99 <= 0 || rep.P99 > 2*time.Second {
		t.Fatalf("p99 %v not bounded under injection", rep.P99)
	}

	// Phase 5: the integrity and breaker series ride /metrics with real
	// transitions behind them: repairs happened, the breaker opened,
	// half-opened and closed exactly through its cycle.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	mb := string(body)
	for _, series := range []string{
		"recross_coldstore_checksum_failures_total",
		"recross_coldstore_repairs_total",
		"recross_coldstore_scrub_pages_total",
		"recross_coldstore_breaker_rejects_total",
		"recross_coldstore_breaker_opens_total",
		"recross_coldstore_breaker_half_opens_total",
		"recross_coldstore_breaker_closes_total",
		"recross_coldstore_breaker_state",
		"recross_requests_cold_degraded_total",
		"recross_cold_degraded_mode",
		"recross_dataplane_cold_fallbacks_total",
	} {
		if !strings.Contains(mb, series) {
			t.Fatalf("/metrics missing %q", series)
		}
	}
	for _, zero := range []string{
		"recross_coldstore_checksum_failures_total 0\n",
		"recross_coldstore_repairs_total 0\n",
		"recross_coldstore_breaker_opens_total 0\n",
		"recross_coldstore_breaker_half_opens_total 0\n",
		"recross_coldstore_breaker_closes_total 0\n",
		"recross_requests_cold_degraded_total 0\n",
	} {
		if strings.Contains(mb, zero) {
			t.Fatalf("series never moved: %s", strings.TrimSpace(zero))
		}
	}
	if !strings.Contains(mb, "recross_coldstore_breaker_state 0\n") {
		t.Fatal("breaker not closed at end of run")
	}
	if !strings.Contains(mb, "recross_cold_degraded_mode 0\n") {
		t.Fatal("cold-degraded gauge still set after recovery")
	}
}
