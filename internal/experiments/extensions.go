package experiments

import (
	"fmt"

	"recross/internal/arch"
	"recross/internal/core"
	"recross/internal/dram"
	"recross/internal/trace"
)

// The Ext* experiments go beyond the paper's evaluation: sensitivity and
// extension studies over the same infrastructure (refresh overhead,
// multi-channel scaling, subarray-count ablation, online-training
// write-back, and per-op serving latency).

// ExtRefresh measures the cost of DDR5 auto-refresh (tREFI/tRFC), which
// the paper's evaluation does not model, on the CPU baseline and ReCross.
func ExtRefresh(cfg Config) (*Table, error) {
	h := kaggle(cfg)
	names := []string{"cpu", "recross"}
	refresh := func(c *core.Config) { c.Tm = c.Tm.WithRefresh() }
	var systems []Recipe
	for _, name := range names {
		systems = append(systems, h.Build(name, nil), h.Build(name, refresh))
	}
	stats, err := h.Measure(systems...)
	if err != nil {
		return nil, fmt.Errorf("ext-refresh: %w", err)
	}
	t := &Table{
		Title: "Ext: DDR5 auto-refresh overhead (tREFI=3.9us, tRFC=410ns)",
		Note:  "refresh steals the same ~10% from every architecture; orderings unchanged",
		Cols:  []string{"architecture", "no-refresh", "refresh", "overhead"},
	}
	for i, name := range names {
		plain, refreshed := stats[2*i].Cycles, stats[2*i+1].Cycles
		t.AddRow(name, count(plain), count(refreshed), pct(100*(float64(refreshed)/float64(plain)-1)))
	}
	return t, nil
}

// ExtChannels measures multi-channel scaling: tables sharded round-robin
// over 1, 2 and 4 independent channels for the CPU baseline and ReCross.
func ExtChannels(cfg Config) (*Table, error) {
	h := kaggle(cfg)
	names, channels := []string{"cpu", "recross"}, []int{1, 2, 4}
	var systems []Recipe
	for _, name := range names {
		for _, ch := range channels {
			systems = append(systems, h.Sharded(name, ch, nil))
		}
	}
	stats, err := h.Measure(systems...)
	if err != nil {
		return nil, fmt.Errorf("ext-channels: %w", err)
	}
	t := &Table{
		Title: "Ext: multi-channel scaling (tables sharded round-robin)",
		Note:  "cycles per batch; each channel has its own controller and PEs",
		Cols:  []string{"architecture", "1ch", "2ch", "4ch", "4ch-speedup"},
	}
	for i, name := range names {
		row := stats[i*len(channels) : (i+1)*len(channels)]
		cells := []any{name}
		for _, rs := range row {
			cells = append(cells, count(rs.Cycles))
		}
		t.AddRow(append(cells, f2(speedup(row[0], row[len(row)-1])))...)
	}
	return t, nil
}

// ExtSubarrays ablates the subarray count of the B-region banks: SALP's
// benefit depends on how many rows a bank can hold open concurrently.
func ExtSubarrays(cfg Config) (*Table, error) {
	h := kaggle(cfg)
	counts := []int{16, 64, 256}
	systems := make([]Recipe, len(counts))
	for i, subs := range counts {
		systems[i] = h.Build("recross", func(c *core.Config) { c.Subarrays = subs })
	}
	stats, err := h.Measure(systems...)
	if err != nil {
		return nil, fmt.Errorf("ext-subarrays: %w", err)
	}
	t := &Table{
		Title: "Ext: ReCross sensitivity to subarrays per bank",
		Note:  "paper uses 256 (Table 2); fewer subarrays means fewer concurrently open rows",
		Cols:  []string{"subarrays", "cycles", "row-hit-rate"},
	}
	for i, subs := range counts {
		t.AddRow(count(subs), count(stats[i].Cycles), f2(rowHitRate(stats[i])))
	}
	return t, nil
}

// training runs ReCross's online-training step where measure runs
// inference.
type training struct{ *core.ReCross }

func (t training) Run(b trace.Batch) (*arch.RunStats, error) { return t.RunTraining(b) }

// ExtTraining measures the online-training step of §4.5: embedding gathers
// plus host write-back of every touched row, versus inference only. Both
// run on one system, inference first.
func ExtTraining(cfg Config) (*Table, error) {
	h := kaggle(cfg)
	s, err := h.Build("recross", nil)()
	if err != nil {
		return nil, err
	}
	inf, err := h.Measure(built(s))
	if err != nil {
		return nil, err
	}
	tr, err := h.Measure(built(training{s.(*core.ReCross)}))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Ext: online-training step (gathers + gradient write-back) on ReCross",
		Note:  "updates are host writes to the mapped rows (§4.5); one write per distinct touched row",
		Cols:  []string{"phase", "cycles", "DRAM-writes", "overhead"},
	}
	t.AddRow("inference", count(inf[0].Cycles), count(inf[0].DRAM.WRs), "-")
	t.AddRow("training", count(tr[0].Cycles), count(tr[0].DRAM.WRs),
		pct(100*(float64(tr[0].Cycles)/float64(inf[0].Cycles)-1)))
	return t, nil
}

// ExtLatency reports per-operation serving latency percentiles (P50/P99)
// for every architecture — the tail-latency view recommendation serving
// cares about.
func ExtLatency(cfg Config) (*Table, error) {
	stats, err := kaggle(cfg).measureArches()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Ext: per-op serving latency (DRAM cycles, 2.4 per ns)",
		Note:  "first instruction arrival to last gather delivered, per embedding op",
		Cols:  []string{"architecture", "P50", "P99", "P99-us"},
	}
	for _, name := range ArchNames {
		rs := stats[name]
		t.AddRow(name, count(rs.OpP50), count(rs.OpP99), f2(float64(rs.OpP99)/2.4/1e3))
	}
	return t, nil
}

// ExtDDR4 compares ReCross on DDR4-3200 against DDR5-4800 (§2.2: DDR4 has
// half the bank groups, a slower clock, and half the per-channel capacity),
// reporting wall-clock time so the different command clocks compare fairly.
func ExtDDR4(cfg Config) (*Table, error) {
	// DDR4's 2-rank channel holds 16 GB; use vector length 32 so the
	// Kaggle model (3.8 GB) fits both generations comfortably.
	vecLen := min(cfg.VecLen, 32)
	h := NewHarness(cfg, trace.CriteoKaggle(vecLen, cfg.Pooling))
	// A 64-bit DDR5 channel is two independent 32-bit sub-channels
	// (Fig. 2); the simulator models one sub-channel, so the fair
	// per-channel comparison runs DDR5 as two of them.
	gens := []struct {
		name        string
		geo         dram.Geometry
		tm          dram.Timing
		subChannels int
	}{
		{"ddr4-3200 (1x64-bit)", dram.DDR4(cfg.Ranks), dram.DDR4Timing(), 1},
		{"ddr5-4800 (2x32-bit)", dram.DDR5(cfg.Ranks), dram.DDR5Timing(), 2},
	}
	systems := make([]Recipe, len(gens))
	for i, gn := range gens {
		generation := func(c *core.Config) { c.Geo, c.Tm = &gn.geo, gn.tm }
		systems[i] = h.Sharded("recross", gn.subChannels, generation)
	}
	stats, err := h.Measure(systems...)
	if err != nil {
		return nil, fmt.Errorf("ext-ddr4: %w", err)
	}
	t := &Table{
		Title: "Ext: ReCross on DDR4-3200 vs DDR5-4800",
		Note:  fmt.Sprintf("veclen=%d; DDR4 has 4 bank groups/rank and a 1.6 GHz command clock", vecLen),
		Cols:  []string{"generation", "cycles", "us", "row-hit-rate"},
	}
	for i, gn := range gens {
		rs := stats[i]
		us := float64(rs.Cycles) / gn.tm.ClockGHz() / 1e3
		t.AddRow(gn.name, count(rs.Cycles), f2(us), f2(rowHitRate(rs)))
	}
	return t, nil
}
