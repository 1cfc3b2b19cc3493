package recross

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"recross/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/runstats.golden from the current tree")

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
// energy and the cold counters — of four batches per case. A change that
// means to move a simulated number re-records with -update and says why.
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
