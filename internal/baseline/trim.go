package baseline

import (
	"recross/internal/arch"
	"recross/internal/dram"
	"recross/internal/memctrl"
	"recross/internal/sim"
	"recross/internal/stats"
	"recross/internal/trace"
)

// TRiMG is the bank-group-level NMP of Park et al. (MICRO'21): one PE per
// bank group inside the DRAM chip. Vectors interleave across all bank
// groups; within a group the banks share the local I/O gating (tCCD_L).
type TRiMG struct {
	cfg   Config
	geo   dram.Geometry
	lay   *layout
	alloc []int
}

// NewTRiMG builds the architecture.
func NewTRiMG(cfg Config) (*TRiMG, error) {
	cfg = cfg.withDefaults()
	geo := cfg.geometry()
	lay, err := newLayout(cfg.Spec, geo)
	if err != nil {
		return nil, err
	}
	return &TRiMG{cfg: cfg, geo: geo, lay: lay, alloc: allBanks(geo)}, nil
}

// Name implements arch.System.
func (t *TRiMG) Name() string { return "trim-g" }

// Run implements arch.System.
func (t *TRiMG) Run(b trace.Batch) (*arch.RunStats, error) {
	var reqs []memctrl.Request
	var lookups, ops, bgPsums int64
	var opID int32
	var seq int64
	instr := arch.InstrCycles(dram.NMPTwoStage, t.lay.bursts)
	touched := make([]bool, t.geo.Ranks*t.geo.BankGroups)
	dqBusy := make([]int64, t.geo.Ranks) // psum bursts crossing each chip DQ
	for _, s := range b {
		for _, op := range s {
			op = arch.DedupOp(op)
			for i := range touched {
				touched[i] = false
			}
			for _, idx := range op.Indices {
				lookups++
				loc, err := arch.Stripe(t.geo, t.alloc, t.lay.slot(op.Table, idx), t.lay.bursts)
				if err != nil {
					return nil, err
				}
				touched[t.geo.FlatBG(loc)] = true
				reqs = append(reqs, memctrl.Request{
					Loc: loc, Cols: t.lay.bursts,
					Consumer: dram.ToBankGroupPE,
					Arrival:  sim.Cycle(seq) * instr, Op: opID,
				})
				seq++
			}
			for fbg, v := range touched {
				if v {
					bgPsums++
					dqBusy[fbg/t.geo.BankGroups] += int64(t.lay.bursts)
				}
			}
			ops++
			opID++
		}
	}
	spec := arch.ChannelSpec{Geo: t.geo, Tm: t.cfg.Tm, Mode: dram.NMPTwoStage, Policy: memctrl.FRFCFS, OpWindow: arch.NMPOpWindow}
	finish, st, res, err := arch.RunChannel(spec, reqs, int(ops)*t.lay.bursts)
	if err != nil {
		return nil, err
	}
	// Per-op partial sums drain from the bank-group PEs over the chip DQ,
	// pipelined with the gathers (which bypass the chip DQ entirely).
	finish = arch.PsumFloor(t.cfg.Tm, finish, nil, dqBusy)
	return finishRun(t.cfg, t.geo, finish, st, res, lookups, 0, bgPsums,
		t.lay.vecLen, append([]int64(nil), st.PerBGRDs...), 0), nil
}

// TRiMB is the bank-level NMP variant of TRiM: one PE per bank, plus the
// paper's hot-entry replication — the hottest HotReplicaFraction of each
// table's rows (0.05 %, §5.1) are copied into ReplicaDegree banks, and
// successive accesses to a replicated row round-robin across its copies.
// (ReCross §3.1 notes that the scheme's effectiveness hinges on the number
// of replicas and the replicated share, and that steering adds control
// overhead.)
type TRiMB struct {
	cfg   Config
	geo   dram.Geometry
	lay   *layout
	alloc []int
	// hot[table] is the replicated row set, built from a profiling pass.
	hot []map[int64]bool
	// replicaSlot[table][row] is the per-bank slot of a replica.
	replicaSlot []map[int64]int64
	replicaRows int64
	// rr[table][row] is the round-robin pointer over a row's replicas.
	rr []map[int64]int
	// spec is the channel every Run drains through.
	spec arch.ChannelSpec
}

// HotReplicaFraction is TRiM's replicated share of each table.
const HotReplicaFraction = 0.0005

// ReplicaDegree is the number of banks each hot entry is copied into.
const ReplicaDegree = 8

// NewTRiMB builds the architecture. prof supplies the access histograms the
// hot-entry selection needs (TRiM profiles hot entries offline, like
// ReCross profiles distributions).
func NewTRiMB(cfg Config, hists []*stats.Histogram) (*TRiMB, error) {
	cfg = cfg.withDefaults()
	geo := cfg.geometry()
	lay, err := newLayout(cfg.Spec, geo)
	if err != nil {
		return nil, err
	}
	t := &TRiMB{cfg: cfg, geo: geo, lay: lay, alloc: allBanks(geo),
		spec: arch.ChannelSpec{Geo: geo, Tm: cfg.Tm, Mode: dram.NMPTwoStage, Policy: memctrl.FRFCFS, OpWindow: arch.NMPOpWindow}}
	t.hot = make([]map[int64]bool, len(cfg.Spec.Tables))
	t.replicaSlot = make([]map[int64]int64, len(cfg.Spec.Tables))
	t.rr = make([]map[int64]int, len(cfg.Spec.Tables))
	for i, tab := range cfg.Spec.Tables {
		t.hot[i] = make(map[int64]bool)
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
			t.hot[i][row] = true
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

	var reqs []memctrl.Request
	var lookups, ops, replicated, bankPsums, bgPsums int64
	var opID int32
	var seq int64
	instr := arch.InstrCycles(dram.NMPTwoStage, t.lay.bursts)
	touchedBank := make([]bool, nBanks)
	touchedBG := make([]bool, t.geo.Ranks*t.geo.BankGroups)
	gatingBusy := make([]int64, t.geo.Ranks*t.geo.BankGroups)
	dqBusy := make([]int64, t.geo.Ranks)
	for _, s := range b {
		for _, op := range s {
			op = arch.DedupOp(op)
			for i := range touchedBank {
				touchedBank[i] = false
			}
			for i := range touchedBG {
				touchedBG[i] = false
			}
			for _, idx := range op.Indices {
				lookups++
				var loc dram.Loc
				if rslot, hot := t.replicaSlot[op.Table][idx]; hot {
					// Round-robin across the row's ReplicaDegree copies,
					// which are spread through the bank space at a
					// deterministic stride.
					k := t.rr[op.Table][idx]
					t.rr[op.Table][idx] = (k + 1) % ReplicaDegree
					home := int(rslot) % nBanks
					fb := (home + k*(nBanks/ReplicaDegree)) % nBanks
					r, bg, bk := geo.BankLoc(fb)
					row := int(rslot) / vecPerRow
					loc = dram.Loc{
						Rank: r, BG: bg, Bank: bk,
						Row: (row%geo.Subarrays)*geo.RowsPerSubarray + row/geo.Subarrays,
						Col: (int(rslot) % vecPerRow) * t.lay.bursts,
					}
					replicated++
				} else {
					var err error
					loc, err = arch.Stripe(geo, t.alloc, t.lay.slot(op.Table, idx), t.lay.bursts)
					if err != nil {
						return nil, err
					}
					loc.Row += replicaRowsPerBank * geo.RowsPerSubarray % geo.RowsPerBank()
					if loc.Row >= geo.RowsPerBank() {
						loc.Row -= geo.RowsPerBank() // wrap below replicas
					}
				}
				touchedBank[geo.FlatBank(loc)] = true
				touchedBG[geo.FlatBG(loc)] = true
				reqs = append(reqs, memctrl.Request{
					Loc: loc, Cols: t.lay.bursts,
					Consumer: dram.ToBankPE,
					Arrival:  sim.Cycle(seq) * instr, Op: opID,
				})
				seq++
			}
			for fb, v := range touchedBank {
				if v {
					bankPsums++
					gatingBusy[fb/geo.Banks] += int64(t.lay.bursts)
				}
			}
			for fbg, v := range touchedBG {
				if v {
					bgPsums++
					dqBusy[fbg/geo.BankGroups] += int64(t.lay.bursts)
				}
			}
			ops++
			opID++
		}
	}
	finish, st, res, err := arch.RunChannel(t.spec, reqs, int(ops)*t.lay.bursts)
	if err != nil {
		return nil, err
	}
	// Per-op partial sums drain bank PE -> bank-group gating -> chip DQ:
	// with a PE in every bank, nearly every bank contributes a psum to
	// every operation — the §3.3 cost of flat fine-grained NMP. The
	// collection pipelines with gathers, which use neither bus here.
	finish = arch.PsumFloor(t.cfg.Tm, finish, gatingBusy, dqBusy)
	rs := finishRun(t.cfg, geo, finish, st, res, lookups, 0, bankPsums+bgPsums,
		t.lay.vecLen, append([]int64(nil), st.PerBankRDs...), 0)
	return rs, nil
}
