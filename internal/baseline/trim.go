package baseline

import (
	"recross/internal/arch"
	"recross/internal/dram"
	"recross/internal/stats"
	"recross/internal/trace"
)

// TRiMG is the bank-group-level NMP of Park et al. (MICRO'21): one PE per
// bank group inside the DRAM chip. Vectors interleave across all bank
// groups; within a group the banks share the local I/O gating (tCCD_L).
type TRiMG struct{ base }

// NewTRiMG builds the architecture.
func NewTRiMG(cfg Config) (*TRiMG, error) {
	b, err := newBase(cfg, dram.NMPTwoStage, false)
	if err != nil {
		return nil, err
	}
	return &TRiMG{b}, nil
}

// Name implements arch.System.
func (t *TRiMG) Name() string { return "trim-g" }

// Run implements arch.System.
func (t *TRiMG) Run(b trace.Batch) (*arch.RunStats, error) {
	err := t.pass.Gather(b, func(table int, idx int64) error {
		return t.read(t.banks, t.lay.slot(table, idx), t.lay.bursts, dram.ToBankGroupPE)
	})
	if err != nil {
		return nil, err
	}
	// Per-op partial sums drain from the bank-group PEs over the chip DQ,
	// pipelined with the gathers.
	return t.pass.Finish(arch.Tally{
		ResultBursts: int(t.pass.Ops) * t.lay.bursts,
		PsumFolds:    t.pass.BGPsums,
		NodeLoads:    t.pass.Loads(dram.ToBankGroupPE),
	})
}

// TRiMB is the bank-level NMP variant of TRiM: one PE per bank, plus the
// paper's hot-entry replication — the hottest HotReplicaFraction of each
// table's rows (0.05 %, §5.1) are copied into ReplicaDegree banks, and
// successive accesses to a replicated row round-robin across its copies.
// (ReCross §3.1 notes that the scheme's effectiveness hinges on the number
// of replicas and the replicated share, and that steering adds control
// overhead.)
type TRiMB struct {
	base
	// replicaSlot[table][row] is the per-bank slot of a replicated row,
	// chosen by a profiling pass.
	replicaSlot []map[int64]int64
	replicaRows int64
	// rr[table][row] is the round-robin pointer over a row's replicas.
	rr []map[int64]int
}

// HotReplicaFraction is TRiM's replicated share of each table.
const HotReplicaFraction = 0.0005

// ReplicaDegree is the number of banks each hot entry is copied into.
const ReplicaDegree = 8

// NewTRiMB builds the architecture. prof supplies the access histograms the
// hot-entry selection needs (TRiM profiles hot entries offline, like
// ReCross profiles distributions).
func NewTRiMB(cfg Config, hists []*stats.Histogram) (*TRiMB, error) {
	return newTRiMB(cfg, hists, false)
}

// newTRiMB is NewTRiMB, on the memctrl.Reference scheduler when reference
// is set.
func newTRiMB(cfg Config, hists []*stats.Histogram, reference bool) (*TRiMB, error) {
	b, err := newBase(cfg, dram.NMPTwoStage, reference)
	if err != nil {
		return nil, err
	}
	t := &TRiMB{base: b}
	tables := cfg.Spec.Tables
	t.replicaSlot = make([]map[int64]int64, len(tables))
	t.rr = make([]map[int64]int, len(tables))
	for i, tab := range tables {
		t.replicaSlot[i] = make(map[int64]int64)
		t.rr[i] = make(map[int64]int)
		if hists == nil || i >= len(hists) {
			continue
		}
		n := int(float64(tab.Rows) * HotReplicaFraction)
		if n < 1 {
			n = 1
		}
		for _, row := range hists[i].HotKeys(n) {
			t.replicaSlot[i][row] = t.replicaRows
			t.replicaRows++
		}
	}
	return t, nil
}

// Name implements arch.System.
func (t *TRiMB) Name() string { return "trim-b" }

// Run implements arch.System.
func (t *TRiMB) Run(b trace.Batch) (*arch.RunStats, error) {
	geo := t.geo
	nBanks := geo.TotalBanks()
	vecPerRow := geo.ColumnsPerRow() / t.lay.bursts
	// Replicas live in reserved rows of every bank; the regular layout is
	// shifted below them.
	replicaRowsPerBank := int(t.replicaRows)/vecPerRow + 1

	err := t.pass.Gather(b, func(table int, idx int64) error {
		rslot, hot := t.replicaSlot[table][idx]
		if !hot {
			loc, err := arch.Stripe(geo, t.banks, t.lay.slot(table, idx), t.lay.bursts)
			if err != nil {
				return err
			}
			loc.Row += replicaRowsPerBank * geo.RowsPerSubarray % geo.RowsPerBank()
			if loc.Row >= geo.RowsPerBank() {
				loc.Row -= geo.RowsPerBank() // wrap below replicas
			}
			t.pass.Read(loc, t.lay.bursts, dram.ToBankPE)
			return nil
		}
		// Round-robin across the row's ReplicaDegree copies, which are
		// spread through the bank space at a deterministic stride.
		k := t.rr[table][idx]
		t.rr[table][idx] = (k + 1) % ReplicaDegree
		home := int(rslot) % nBanks
		r, bg, bk := geo.BankLoc((home + k*(nBanks/ReplicaDegree)) % nBanks)
		row := int(rslot) / vecPerRow
		t.pass.Read(dram.Loc{
			Rank: r, BG: bg, Bank: bk,
			Row: (row%geo.Subarrays)*geo.RowsPerSubarray + row/geo.Subarrays,
			Col: (int(rslot) % vecPerRow) * t.lay.bursts,
		}, t.lay.bursts, dram.ToBankPE)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Per-op partial sums drain bank PE -> bank-group gating -> chip DQ:
	// with a PE in every bank, nearly every bank contributes a psum to
	// every operation — the §3.3 cost of flat fine-grained NMP.
	return t.pass.Finish(arch.Tally{
		ResultBursts: int(t.pass.Ops) * t.lay.bursts,
		PsumFolds:    t.pass.BankPsums + t.pass.BGPsums,
		NodeLoads:    t.pass.Loads(dram.ToBankPE),
	})
}
