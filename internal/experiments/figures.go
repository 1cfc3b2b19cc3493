package experiments

import (
	"fmt"
	"sort"
	"strings"

	"recross/internal/core"
	"recross/internal/dram"
	"recross/internal/memctrl"
	"recross/internal/stats"
	"recross/internal/trace"
)

// Fig3 reproduces the cumulative access-frequency curves of the Criteo
// Kaggle tables: for each table, the share of accesses absorbed by the
// hottest fraction of rows. The paper's observation: a small percentage of
// data (< 20 %) takes up most of the accesses.
func Fig3(cfg Config) (*Table, error) {
	spec := trace.CriteoKaggle(cfg.VecLen, cfg.Pooling)
	prof, err := NewHarness(cfg, spec).profile()
	if err != nil {
		return nil, err
	}
	fracs := []float64{0.001, 0.01, 0.05, 0.10, 0.20}
	t := &Table{
		Title: "Fig. 3 — cumulative access share by hottest row fraction (Criteo Kaggle)",
		Note:  "paper: <20% of rows absorb the vast majority of accesses",
		Cols:  []string{"table", "rows", "0.1%", "1%", "5%", "10%", "20%"},
	}
	for i, tab := range spec.Tables {
		cov := prof.CDFs[i].Coverage(fracs)
		t.AddRow(tab.Name, count(tab.Rows),
			f2(cov[0]), f2(cov[1]), f2(cov[2]), f2(cov[3]), f2(cov[4]))
	}
	return t, nil
}

// Fig4 reproduces the per-operation load-imbalance ratios of the symmetric
// contiguous layout at rank, bank-group and bank granularity for 2-, 4- and
// 8-rank configurations: max per-node lookups of one operation over the
// ideally balanced share (§3.1).
func Fig4(cfg Config) (*Table, error) {
	spec := trace.CriteoKaggle(cfg.VecLen, cfg.Pooling)
	t := &Table{
		Title: "Fig. 4 — mean per-op load imbalance ratio by NMP level",
		Note:  "paper: imbalance worsens with finer NMP granularity",
		Cols:  []string{"ranks", "rank-level", "bankgroup-level", "bank-level"},
	}
	// Table base slots of the contiguous layout.
	base := make([]int64, len(spec.Tables))
	var total int64
	for i, tab := range spec.Tables {
		base[i] = total
		total += tab.Rows
	}
	b, err := NewHarness(cfg, spec).Batch()
	if err != nil {
		return nil, err
	}
	for _, ranks := range []int{2, 4, 8} {
		geo := dram.DDR5(ranks)
		var rankImb, bgImb, bankImb []float64
		for _, s := range b {
			for _, op := range s {
				rankLoad := make([]int64, ranks)
				bgLoad := make([]int64, ranks*geo.BankGroups)
				bankLoad := make([]int64, geo.TotalBanks())
				for _, idx := range op.Indices {
					slot := base[op.Table] + idx
					fb := int(slot % int64(geo.TotalBanks()))
					bankLoad[fb]++
					bgLoad[fb/geo.Banks]++
					rankLoad[fb/geo.BanksPerRank()]++
				}
				rankImb = append(rankImb, stats.ImbalanceRatio(rankLoad))
				bgImb = append(bgImb, stats.ImbalanceRatio(bgLoad))
				bankImb = append(bankImb, stats.ImbalanceRatio(bankLoad))
			}
		}
		t.AddRow(count(ranks),
			f2(stats.Mean(rankImb)), f2(stats.Mean(bgImb)), f2(stats.Mean(bankImb)))
	}
	return t, nil
}

// Fig5 reproduces the normalized speedup and theoretical internal bandwidth
// of the plain rank-, bank-group- and bank-level NMP designs for 2-, 4- and
// 8-rank channels. Speedups are normalized to the rank-level 2-rank point;
// bandwidth is node count times per-node burst cadence. The paper's
// observation: internal bandwidth scales far faster than delivered speedup.
func Fig5(cfg Config) (*Table, error) {
	h := kaggle(cfg)
	tm := dram.DDR5Timing()
	type point struct {
		ranks   int
		level   string
		bwBytes float64
	}
	var pts []point
	var systems []Recipe
	for _, ranks := range []int{2, 4, 8} {
		geo := dram.DDR5(ranks)
		bb := float64(geo.BurstBytes)
		for _, lv := range []struct {
			level, arch string
			bw          float64
		}{
			{"rank", "rank-nmp", float64(ranks) * bb / float64(tm.TCCDS)},
			{"bankgroup", "trim-g", float64(ranks*geo.BankGroups) * bb / float64(tm.TCCDL)},
			{"bank", "bank-nmp", float64(geo.TotalBanks()) * bb / float64(tm.TCCDL)},
		} {
			systems = append(systems, h.Build(lv.arch, func(c *core.Config) { c.Ranks = ranks }))
			pts = append(pts, point{ranks: ranks, level: lv.level, bwBytes: lv.bw})
		}
	}
	stats, err := h.Measure(systems...)
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	t := &Table{
		Title: "Fig. 5 — NMP level scaling: speedup vs internal bandwidth",
		Note:  "normalized to rank-level NMP at 2 ranks",
		Cols:  []string{"ranks", "level", "speedup", "internal-bw"},
	}
	for i, p := range pts {
		t.AddRow(count(p.ranks), p.level,
			f2(speedup(stats[0], stats[i])), f1(p.bwBytes/pts[0].bwBytes))
	}
	return t, nil
}

// Fig6 reproduces the command timeline of four successive accesses to two
// banks under (a) bank-group-level NMP, (b) bank-level NMP, and (c)
// subarray-parallel bank-level NMP, as an ASCII rendering of the recorded
// command trace.
func Fig6() (string, error) {
	type scenario struct {
		name     string
		consumer dram.Consumer
		salp     bool
	}
	scenarios := []scenario{
		{"(a) bank-group-level NMP (serial banks)", dram.ToBankGroupPE, false},
		{"(b) bank-level NMP (serial same-bank rows)", dram.ToBankPE, false},
		{"(c) subarray-parallel bank-level NMP", dram.ToBankPE, true},
	}
	var sb strings.Builder
	sb.WriteString("Fig. 6 — four successive accesses to two banks (2 rows each)\n")
	for _, sc := range scenarios {
		ch, err := dram.NewChannel(dram.DDR5(2), dram.DDR5Timing(), dram.NMPTwoStage)
		if err != nil {
			return "", err
		}
		ch.Record = true
		if sc.salp {
			ch.EnableSALP(0)
			ch.EnableSALP(1)
		}
		ctl, err := memctrl.New(ch, memctrl.LAS, memctrl.DefaultWindow)
		if err != nil {
			return "", err
		}
		rps := ch.Geo.RowsPerSubarray
		// Accesses 1..4: bank0/rowA, bank0/rowB, bank1/rowA, bank1/rowB,
		// with rowB in a different subarray than rowA.
		locs := []dram.Loc{{Bank: 0, Row: 0}, {Bank: 0, Row: rps}, {Bank: 1, Row: 0}, {Bank: 1, Row: rps}}
		reqs := make([]memctrl.Request, len(locs))
		for i, loc := range locs {
			reqs[i].Loc, reqs[i].Cols, reqs[i].Consumer = loc, 4, sc.consumer
		}
		res, err := ctl.Drain(reqs)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "\n%s: finished at cycle %d\n", sc.name, res.Finish)
		sort.SliceStable(ch.Trace, func(a, b int) bool { return ch.Trace[a].At < ch.Trace[b].At })
		for _, ev := range ch.Trace {
			fmt.Fprintf(&sb, "  cycle %4d  %-3s bank %d row %5d (subarray %3d)",
				ev.At, ev.Kind, ev.Loc.Bank, ev.Loc.Row, ch.Geo.Subarray(ev.Loc.Row))
			if ev.Kind == "RD" {
				fmt.Fprintf(&sb, "  data done %d", ev.Done)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String(), nil
}
