package recross

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"recross/internal/arch"
	"recross/internal/core"
	"recross/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the root testdata/*.golden files from the current tree")

// goldenSpec is a Criteo Kaggle model small enough that every architecture
// builds and runs four batches in well under a second each.
func goldenSpec() ModelSpec { return CriteoKaggle(32, 10) }

// goldenCold is a cold tier whose residency budget forces part of the
// model onto flash.
func goldenCold() *ColdTierConfig {
	return &ColdTierConfig{CapBytes: 8 << 30, ResidentBudgetBytes: 512 << 20, InStorageReduce: true}
}

// TestRunStatsGolden holds every architecture's timing model to
// testdata/runstats.golden: the full RunStats — cycles, every DRAM counter
// and per-bank slice, ops, hits, node loads, imbalance, op percentiles,
// energy, the cold counters and the binding term — of four batches per
// case. A change that means to move a simulated number re-records with
// -update and says why. Every batch's Bound must name the term equal to
// Cycles, with no consumer finishing and no cold phase ending after it,
// and a batch that spills to flash must be cold-bound.
func TestRunStatsGolden(t *testing.T) {
	base := Config{Spec: goldenSpec(), ProfileSamples: 300, Batch: 8}
	type goldenCase struct {
		name  string
		build func() (System, error)
		train bool
	}
	sys := func(a Arch, mod func(*Config)) func() (System, error) {
		return func() (System, error) {
			cfg := base
			if mod != nil {
				mod(&cfg)
			}
			return NewSystem(a, cfg)
		}
	}
	int8 := func(c *Config) { c.Precision = INT8 }
	cold := func(c *Config) { c.Cold = goldenCold() }
	var cases []goldenCase
	for _, a := range append(Arches(), RankNMP, FAFNIR) {
		cases = append(cases, goldenCase{name: string(a), build: sys(a, nil)})
	}
	cases = append(cases,
		goldenCase{name: "recross-int8", build: sys(ReCross, int8)},
		goldenCase{name: "recross-cold", build: sys(ReCross, cold)},
		goldenCase{name: "train-fp32", build: sys(ReCross, nil), train: true},
		goldenCase{name: "train-int8", build: sys(ReCross, int8), train: true},
		goldenCase{name: "train-cold", build: sys(ReCross, cold), train: true},
		goldenCase{name: "recross-refsched", build: func() (System, error) {
			cfg := DefaultReCrossConfig(base.Spec)
			cfg.ProfileSamples, cfg.Batch = base.ProfileSamples, base.Batch
			cfg.RefScheduler = true
			return NewReCross(cfg)
		}},
		goldenCase{name: "recross-2ch-cold", build: sys(ReCross, func(c *Config) {
			c.Channels = 2
			c.Cold = goldenCold()
		})},
	)

	var sb strings.Builder
	for _, c := range cases {
		s, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		run := s.Run
		if c.train {
			run = s.(*core.ReCross).RunTraining
		}
		gen, err := NewGenerator(base.Spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			rs, err := run(gen.Batch(8))
			if err != nil {
				t.Fatalf("%s batch %d: %v", c.name, i, err)
			}
			checkBound(t, fmt.Sprintf("%s/%d", c.name, i), rs)
			js, err := json.Marshal(rs)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s/%d %s\n", c.name, i, js)
		}
		if cl, ok := s.(interface{ Close() error }); ok {
			cl.Close()
		}
	}
	got := sb.String()

	const path = "testdata/runstats.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, golden has %d (re-record with -update if intended)", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("line %d differs from %s (re-record with -update if intended)\n got: %s\nwant: %s", i+1, path, gl[i], wl[i])
		}
	}
}

// checkBound holds one batch's binding term to its definition: Bound
// names the term equal to Cycles, no consumer's last gather and no cold
// phase ends after Cycles, and a batch that gathers from flash is bound
// by the flash (every spilled Kaggle batch is: one device page read per
// cold gather costs far more than the whole DRAM drain).
func checkBound(t *testing.T, name string, rs *RunStats) {
	t.Helper()
	term := map[arch.Term]sim.Cycle{arch.DrainTerm: rs.Drain, arch.FloorTerm: rs.BusFloor, arch.ColdTerm: rs.ColdCycles}
	if v, ok := term[rs.Bound]; !ok || v != rs.Cycles {
		t.Errorf("%s: Bound %q is %d cycles, Cycles %d (drain %d, bus floor %d, cold %d)",
			name, rs.Bound, v, rs.Cycles, rs.Drain, rs.BusFloor, rs.ColdCycles)
	}
	for c, f := range rs.Finish {
		if f > rs.Cycles {
			t.Errorf("%s: consumer %d finishes at %d, after Cycles %d", name, c, f, rs.Cycles)
		}
	}
	if rs.ColdCycles > rs.Cycles {
		t.Errorf("%s: ColdCycles %d after Cycles %d", name, rs.ColdCycles, rs.Cycles)
	}
	if rs.ColdLookups > 0 && rs.Bound != arch.ColdTerm {
		t.Errorf("%s: %d cold gathers, but bound by %q (cold %d of %d cycles)", name, rs.ColdLookups, rs.Bound, rs.ColdCycles, rs.Cycles)
	}
}
