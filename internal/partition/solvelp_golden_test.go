package partition_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"recross/internal/coldstore"
	"recross/internal/core"
	"recross/internal/kernels"
	"recross/internal/partition"
	"recross/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current tree")

// kaggleLP returns the BWP inputs a default ReCross instance solves for
// CriteoKaggle(vecLen, 80) on ranks ranks: its profile, its R/G/B (and,
// with mod setting a cold tier, flash) regions and its batch. The
// instance is built with the greedy partitioner so only the regions come
// from it; the LP is the caller's to solve. prof may be nil (profiled
// here) or a profile of the same spec to reuse.
func kaggleLP(tb testing.TB, vecLen, ranks int, prof *partition.Profile, mod func(*core.Config)) (*partition.Profile, []partition.Region, int) {
	tb.Helper()
	cfg := core.DefaultConfig(trace.CriteoKaggle(vecLen, 80))
	cfg.Ranks = ranks
	cfg.BWP = false
	if mod != nil {
		mod(&cfg)
	}
	if prof == nil {
		var err error
		if prof, err = partition.NewProfile(cfg.Spec, cfg.Seed, cfg.ProfileSamples); err != nil {
			tb.Fatal(err)
		}
	}
	cfg.Profile = prof
	r, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return prof, r.Regions(), cfg.Batch
}

// int8Cold is an int8 instance whose residency budget forces part of the
// model onto an int8 flash tier.
func int8Cold(c *core.Config) {
	c.Precision = kernels.INT8
	c.ColdTier = &coldstore.Config{CapBytes: 16 << 30, ResidentBudgetBytes: 512 << 20, InStorageReduce: true, Precision: kernels.INT8}
}

// TestSolveLPGolden holds SolveLP on the real Criteo Kaggle profile and
// regions to testdata/solvelp.golden, bit for bit: the hex bits of T and
// of every SegFrac, at three vector lengths by three rank counts plus an
// int8 cold-tier region set. The LP decides every placement, so a solver
// change that means to keep the plan must keep this file; one that means
// to move it re-records with -update and says why.
func TestSolveLPGolden(t *testing.T) {
	var b strings.Builder
	for _, vecLen := range []int{16, 64, 128} {
		var prof *partition.Profile
		for _, ranks := range []int{2, 4, 8} {
			var regions []partition.Region
			var batch int
			prof, regions, batch = kaggleLP(t, vecLen, ranks, prof, nil)
			writeDecision(t, &b, fmt.Sprintf("veclen %d ranks %d", vecLen, ranks), prof, regions, batch)
		}
	}
	prof, regions, batch := kaggleLP(t, 64, 2, nil, int8Cold)
	writeDecision(t, &b, "veclen 64 ranks 2 int8 cold", prof, regions, batch)

	const path = "testdata/solvelp.golden"
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with: go test -run TestSolveLPGolden ./internal/partition -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("solvelp.golden line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("solvelp.golden: %d lines, want %d", len(gl), len(wl))
	}
}

// writeDecision solves one case and writes its T and SegFrac bits.
func writeDecision(t *testing.T, b *strings.Builder, name string, prof *partition.Profile, regions []partition.Region, batch int) {
	t.Helper()
	d, err := partition.SolveLP(prof, regions, batch)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(b, "# %s\nT %016x\n", name, math.Float64bits(d.T))
	for i, segs := range d.SegFrac {
		for s, fr := range segs {
			fmt.Fprintf(b, "%d.%d", i, s)
			for _, f := range fr {
				fmt.Fprintf(b, " %016x", math.Float64bits(f))
			}
			b.WriteByte('\n')
		}
	}
}

// BenchmarkSolveLPKaggle solves the BWP LP every default NewSystem
// solves: the CriteoKaggle(64, 80) profile on a 2-rank instance's regions
// (266 constraints over 781 variables).
func BenchmarkSolveLPKaggle(b *testing.B) {
	prof, regions, batch := kaggleLP(b, 64, 2, nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.SolveLP(prof, regions, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewProfileKaggle times the offline profiling pass every
// default NewSystem runs: CriteoKaggle(64, 80), seed 12345, 2000 samples
// (1.63M draws).
func BenchmarkNewProfileKaggle(b *testing.B) {
	spec := trace.CriteoKaggle(64, 80)
	for i := 0; i < b.N; i++ {
		if _, err := partition.NewProfile(spec, 12345, 2000); err != nil {
			b.Fatal(err)
		}
	}
}
