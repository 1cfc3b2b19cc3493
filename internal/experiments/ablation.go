package experiments

import (
	"fmt"

	"recross/internal/baseline"
	"recross/internal/core"
	"recross/internal/energy"
	"recross/internal/partition"
	"recross/internal/trace"
)

// Fig12 reproduces the optimization breakdown: ReCross-Base (no SAP, no
// BWP, no LAS, crude greedy partitioning), then +SAP, +BWP, +LAS, each as a
// speedup over the CPU baseline. Paper: 5.4x -> 9.3x -> 13.7x -> 14.4x.
func Fig12(cfg Config) (*Table, error) {
	spec := trace.CriteoKaggle(cfg.VecLen, cfg.Pooling)
	prof, err := partition.NewProfile(spec, cfg.ProfileSeed, cfg.ProfileSamples)
	if err != nil {
		return nil, err
	}
	cpu, err := baseline.NewCPU(baseline.Config{Spec: spec, Ranks: cfg.Ranks})
	if err != nil {
		return nil, err
	}
	g, err := trace.NewGenerator(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	b := g.Batch(cfg.Batch)
	cpuStats, err := cpu.Run(b)
	if err != nil {
		return nil, err
	}

	variants := []struct {
		name          string
		sap, bwp, las bool
	}{
		{"ReCross-Base", false, false, false},
		{"+SAP", true, false, false},
		{"+BWP", true, true, false},
		{"+LAS (full)", true, true, true},
	}
	t := &Table{
		Title: "Fig. 12 — optimization breakdown (speedup over CPU)",
		Note:  "paper: Base 5.4x, +SAP 9.3x, +BWP 13.7x, +LAS 14.4x",
		Cols:  []string{"variant", "speedup", "imbalance", "row-hit-rate"},
	}
	for _, v := range variants {
		rcfg := core.DefaultConfig(spec)
		rcfg.Ranks = cfg.Ranks
		rcfg.Batch = cfg.Batch
		rcfg.Profile = prof
		rcfg.SAP, rcfg.BWP, rcfg.LAS = v.sap, v.bwp, v.las
		rc, err := core.New(rcfg)
		if err != nil {
			return nil, fmt.Errorf("fig12 %s: %w", v.name, err)
		}
		rs, err := rc.Run(b)
		if err != nil {
			return nil, fmt.Errorf("fig12 %s: %w", v.name, err)
		}
		hitRate := float64(rs.RowHits) / float64(rs.RowHits+rs.RowMisses)
		t.AddRow(v.name,
			f2(float64(cpuStats.Cycles)/float64(rs.Cycles)),
			f2(rs.Imbalance), f2(hitRate))
	}
	return t, nil
}

// Fig13 reproduces the load-imbalance ratio comparison of ReCross against
// the baselines (and ReCross without BWP, which the paper singles out as
// worse than TRiM-G).
func Fig13(cfg Config) (*Table, error) {
	set, err := NewArchSet(cfg)
	if err != nil {
		return nil, err
	}
	stats, err := set.RunAll()
	if err != nil {
		return nil, err
	}
	// ReCross without BWP for the extra bar.
	rcfg := core.DefaultConfig(set.Spec)
	rcfg.Ranks = cfg.Ranks
	rcfg.Batch = cfg.Batch
	rcfg.Profile = set.Profile
	rcfg.BWP = false
	noBWP, err := core.New(rcfg)
	if err != nil {
		return nil, err
	}
	b, err := set.Batch()
	if err != nil {
		return nil, err
	}
	noBWPStats, err := noBWP.Run(b)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Fig. 13 — load imbalance ratio (lower is better)",
		Note:  "paper: ReCross lowest; ReCross without BWP worse than TRiM-G",
		Cols:  []string{"architecture", "imbalance"},
	}
	for _, name := range ArchNames {
		t.AddRow(name, f2(stats[name].Imbalance))
	}
	t.AddRow("recross-noBWP", f2(noBWPStats.Imbalance))
	return t, nil
}

// Fig14 reproduces the configuration exploration: ReCross-d and the five
// c1..c5 alternatives of §5.4, reporting speedup over CPU, extra DRAM-chip
// area, and area efficiency (speedup per mm^2). Paper: more PEs barely help
// while area grows, so ReCross-d has the best area efficiency.
func Fig14(cfg Config) (*Table, error) {
	spec := trace.CriteoKaggle(cfg.VecLen, cfg.Pooling)
	prof, err := partition.NewProfile(spec, cfg.ProfileSeed, cfg.ProfileSamples)
	if err != nil {
		return nil, err
	}
	cpu, err := baseline.NewCPU(baseline.Config{Spec: spec, Ranks: cfg.Ranks})
	if err != nil {
		return nil, err
	}
	g, err := trace.NewGenerator(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	b := g.Batch(cfg.Batch)
	cpuStats, err := cpu.Run(b)
	if err != nil {
		return nil, err
	}

	// Configurations: name, BG PEs per rank, bank PEs per rank (§5.4).
	configs := []struct {
		name         string
		nBGPE, nBank int
	}{
		{"ReCross-d (1/4/4, 16:12:4)", 4, 4},
		{"ReCross-c1 (1/4/8, 16:8:8)", 4, 8},
		{"ReCross-c2 (1/4/16, 16:0:16)", 4, 16},
		{"ReCross-c3 (1/8/8, 0:24:8)", 8, 8},
		{"ReCross-c4 (1/8/16, 0:16:16)", 8, 16},
		{"ReCross-c5 (1/8/32, 0:0:32)", 8, 32},
	}
	t := &Table{
		Title: "Fig. 14 — ReCross configuration exploration",
		Note:  "paper: extra PEs barely improve performance; ReCross-d is the area-efficiency sweet spot",
		Cols:  []string{"config", "speedup", "chip-area-mm2", "speedup/mm2"},
	}
	am := energy.DefaultAreaModel()
	type out struct {
		speed, area float64
	}
	results := make([]out, len(configs))
	err = each(len(configs), func(i int) error {
		cc := configs[i]
		rcfg := core.DefaultConfig(spec)
		rcfg.Ranks = cfg.Ranks
		rcfg.Batch = cfg.Batch
		rcfg.Profile = prof
		rcfg.NMPBankGroups = cc.nBGPE
		rcfg.BankPEs = cc.nBank
		rc, err := core.New(rcfg)
		if err != nil {
			return fmt.Errorf("fig14 %s: %w", cc.name, err)
		}
		rs, err := rc.Run(b)
		if err != nil {
			return fmt.Errorf("fig14 %s: %w", cc.name, err)
		}
		results[i] = out{
			speed: float64(cpuStats.Cycles) / float64(rs.Cycles),
			area:  am.ChipArea(cc.nBGPE, cc.nBank, cc.nBank),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, cc := range configs {
		t.AddRow(cc.name, f2(results[i].speed), f2(results[i].area),
			f2(results[i].speed/results[i].area))
	}
	return t, nil
}
