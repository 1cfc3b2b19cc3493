package experiments

import (
	"recross/internal/core"
	"recross/internal/energy"
)

// Fig12 reproduces the optimization breakdown: ReCross-Base (no SAP, no
// BWP, no LAS, crude greedy partitioning), then +SAP, +BWP, +LAS, each as a
// speedup over the CPU baseline. Paper: 5.4x -> 9.3x -> 13.7x -> 14.4x.
func Fig12(cfg Config) (*Table, error) {
	h := kaggle(cfg)
	variants := []struct {
		name          string
		sap, bwp, las bool
	}{
		{"ReCross-Base", false, false, false},
		{"+SAP", true, false, false},
		{"+BWP", true, true, false},
		{"+LAS (full)", true, true, true},
	}
	systems := []Recipe{h.Build("cpu", nil)}
	for _, v := range variants {
		ablate := func(c *core.Config) { c.SAP, c.BWP, c.LAS = v.sap, v.bwp, v.las }
		systems = append(systems, h.Build("recross", ablate))
	}
	stats, err := h.Measure(systems...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Fig. 12 — optimization breakdown (speedup over CPU)",
		Note:  "paper: Base 5.4x, +SAP 9.3x, +BWP 13.7x, +LAS 14.4x",
		Cols:  []string{"variant", "speedup", "imbalance", "row-hit-rate"},
	}
	for i, v := range variants {
		rs := stats[i+1]
		t.AddRow(v.name, f2(speedup(stats[0], rs)), f2(rs.Imbalance), f2(rowHitRate(rs)))
	}
	return t, nil
}

// Fig13 reproduces the load-imbalance ratio comparison of ReCross against
// the baselines (and ReCross without BWP, which the paper singles out as
// worse than TRiM-G).
func Fig13(cfg Config) (*Table, error) {
	h := kaggle(cfg)
	stats, err := h.measureArches()
	if err != nil {
		return nil, err
	}
	noBWP, err := h.Measure(h.Build("recross", func(c *core.Config) { c.BWP = false }))
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
	t.AddRow("recross-noBWP", f2(noBWP[0].Imbalance))
	return t, nil
}

// Fig14 reproduces the configuration exploration: ReCross-d and the five
// c1..c5 alternatives of §5.4, reporting speedup over CPU, extra DRAM-chip
// area, and area efficiency (speedup per mm^2). Paper: more PEs barely help
// while area grows, so ReCross-d has the best area efficiency.
func Fig14(cfg Config) (*Table, error) {
	h := kaggle(cfg)
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
	systems := []Recipe{h.Build("cpu", nil)}
	for _, cc := range configs {
		pes := func(c *core.Config) { c.NMPBankGroups, c.BankPEs = cc.nBGPE, cc.nBank }
		systems = append(systems, h.Build("recross", pes))
	}
	stats, err := h.Measure(systems...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Fig. 14 — ReCross configuration exploration",
		Note:  "paper: extra PEs barely improve performance; ReCross-d is the area-efficiency sweet spot",
		Cols:  []string{"config", "speedup", "chip-area-mm2", "speedup/mm2"},
	}
	am := energy.DefaultAreaModel()
	for i, cc := range configs {
		speed := speedup(stats[0], stats[i+1])
		area := am.ChipArea(cc.nBGPE, cc.nBank, cc.nBank)
		t.AddRow(cc.name, f2(speed), f2(area), f2(speed/area))
	}
	return t, nil
}
