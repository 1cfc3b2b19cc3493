package recross

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"recross/internal/partition"
)

// coldSpec is ~23 MB of embedding tables; with the 5 MB DRAM residency
// budget below, the table set is ~4.4x larger than the memory it is
// allowed to occupy — the regime the flash-backed cold tier exists for.
func coldSpec() ModelSpec {
	return ModelSpec{Name: "coldtier-e2e", Tables: []TableSpec{
		{Name: "big-a", Rows: 60000, VecLen: 64, Pooling: 48, Prob: 1, Skew: 1.3},
		{Name: "big-b", Rows: 30000, VecLen: 64, Pooling: 32, Prob: 1, Skew: 1.2},
	}}
}

const coldBudgetBytes = 5 << 20

func coldTierConfig() *ColdTierConfig {
	return &ColdTierConfig{
		CapBytes:            64 << 20,
		ResidentBudgetBytes: coldBudgetBytes,
		InStorageReduce:     true,
	}
}

// TestColdTierE2E is the acceptance run for the flash-backed cold tier: a
// table set ~4.4x larger than the DRAM residency budget is served with
// bounded latency, and answers stay bit-identical to an all-DRAM
// functional reference.
func TestColdTierE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second acceptance run")
	}
	spec := coldSpec()
	var totalBytes int64
	for _, tb := range spec.Tables {
		totalBytes += tb.Rows * int64(tb.VecLen) * 4
	}
	if totalBytes < 4*coldBudgetBytes {
		t.Fatalf("spec %d B is under 4x the %d B budget", totalBytes, int64(coldBudgetBytes))
	}

	cfg := Config{Spec: spec, ProfileSamples: 1500, Batch: 32, Cold: coldTierConfig()}
	cfg, err := cfg.profiled(ReCross)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: without the cold region, the budget-clamped DRAM regions
	// cannot hold the tables — both partitioners must fail to fit.
	sys, err := NewSystem(ReCross, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := sys.(*ReCrossSystem)
	regions := rc.Regions()
	if len(regions) != 4 {
		t.Fatalf("cold-tier ReCross has %d regions, want 4", len(regions))
	}
	dramOnly := regions[:3]
	if _, err := partition.SolveLP(rc.Profile(), dramOnly, cfg.Batch); err == nil {
		t.Fatal("LP placed the table set in DRAM alone despite the residency budget")
	}
	if _, err := partition.Greedy(rc.Profile(), dramOnly, cfg.Batch); err == nil {
		t.Fatal("greedy placed the table set in DRAM alone despite the residency budget")
	}

	// With the cold region the set places: DRAM stays within the budget and
	// the cold tier holds the displaced mass.
	used := rc.Placement().UsedSlots()
	vecBytes := rc.Placement().VecBytes()
	var dramUsed int64
	for j := 0; j < 3; j++ {
		dramUsed += used[j] * vecBytes
	}
	if dramUsed > coldBudgetBytes {
		t.Fatalf("DRAM regions hold %d B, budget %d B", dramUsed, int64(coldBudgetBytes))
	}
	if used[3] == 0 {
		t.Fatal("cold region holds no rows")
	}

	// A cold-placed batch must report cold-tier work in its run stats.
	gen0, err := NewGenerator(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Run(gen0.Batch(32))
	if err != nil {
		t.Fatal(err)
	}
	if st.ColdLookups == 0 || st.ColdPageReads == 0 {
		t.Fatalf("batch recorded no cold-tier work: %+v", st)
	}
	if st.ColdCycles == 0 {
		t.Fatal("cold gathers priced at zero cycles")
	}

	stack, err := NewStack(ReCross, cfg, 2, ServeOptions{
		MaxBatch: 32,
		MaxDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := stack.Server
	defer srv.Close()

	// Phase 1: answers served through the cold-backed data plane are
	// bit-identical to an all-DRAM reference: a fresh layer with no cold
	// route.
	ref, err := NewLayer(spec)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 8; w++ {
		serveWave(t, stackLookup(stack), gen, ref, 32)
	}

	// Phase 2: bounded tail latency under tail-heavy load (the -tail-mass
	// knob redirects a quarter of draws at the cold half of the rank space).
	rep, err := Loadgen(srv, LoadgenOptions{
		Spec:     spec,
		Clients:  4,
		Duration: 1200 * time.Millisecond,
		TailMass: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("loadgen completed no requests")
	}
	if rep.P99 <= 0 || rep.P99 > 2*time.Second {
		t.Fatalf("p99 %v not bounded", rep.P99)
	}

	// Phase 3: the coldstore series ride /metrics, with real traffic
	// behind them.
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
		"recross_coldstore_row_reads_total",
		"recross_coldstore_page_hits_total",
		"recross_coldstore_page_misses_total",
		"recross_coldstore_page_reads_total",
		"recross_coldstore_pages_populated_total",
		"recross_coldstore_page_hit_rate",
	} {
		if !strings.Contains(string(body), series) {
			t.Fatalf("/metrics missing %q", series)
		}
	}
	if strings.Contains(string(body), "recross_coldstore_row_reads_total 0\n") {
		t.Fatal("cold store served no row reads")
	}
}
