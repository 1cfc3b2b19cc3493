// Package baseline implements the five comparison architectures of the
// paper's evaluation (§5.1): a 16-core CPU with a 32 MB LLC, TensorDIMM
// (rank-level NMP, vertical partitioning), RecNMP (rank-level NMP,
// horizontal partitioning, 1 MB per-PE hot-entry cache), TRiM-G
// (bank-group-level NMP) and TRiM-B (bank-level NMP with 0.05 % hot-entry
// replication). All share the symmetric contiguous layout the paper
// describes in §3.1: tables allocated contiguously, the row index serving
// as the memory offset, interleaved across the memory nodes.
package baseline

import (
	"fmt"

	"recross/internal/arch"
	"recross/internal/dram"
	"recross/internal/energy"
	"recross/internal/memctrl"
	"recross/internal/trace"
)

// Config is shared by all baseline constructors.
type Config struct {
	Spec   trace.ModelSpec
	Ranks  int
	Tm     dram.Timing
	Energy energy.Params
	// Geo overrides the channel geometry (nil = dram.DDR5(Ranks)).
	Geo *dram.Geometry
}

// geometry resolves the channel geometry for the configured rank count.
func (c Config) geometry() dram.Geometry {
	if c.Geo != nil {
		g := *c.Geo
		g.Ranks = c.Ranks
		return g
	}
	return dram.DDR5(c.Ranks)
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Ranks == 0 {
		c.Ranks = 2
	}
	if c.Tm == (dram.Timing{}) {
		c.Tm = dram.DDR5Timing()
	}
	if c.Energy == (energy.Params{}) {
		c.Energy = energy.Default()
	}
	return c
}

// base is what every baseline shares: the channel geometry, the
// contiguous layout, the channel's bank sets and the gather pass its Run
// places lookups through.
type base struct {
	geo  dram.Geometry
	lay  *layout
	pass *arch.Pass
	// banks lists every flat bank of the channel; rankBanks[r] those of
	// rank r.
	banks     []int
	rankBanks [][]int
}

// newBase resolves cfg's defaults and builds the layout and a pass whose
// channel feeds instructions in mode, drained by FR-FCFS — or, for
// reference, by the memctrl.Reference scan scheduler.
func newBase(cfg Config, mode dram.InstrMode, reference bool) (base, error) {
	cfg = cfg.withDefaults()
	geo := cfg.geometry()
	lay, err := newLayout(cfg.Spec, geo)
	if err != nil {
		return base{}, err
	}
	window := arch.NMPOpWindow
	if mode == dram.Conventional {
		window = arch.CPUOpWindow
	}
	pass, err := arch.NewPass(arch.ChannelSpec{
		Geo: geo, Tm: cfg.Tm, Mode: mode, Policy: memctrl.FRFCFS,
		OpWindow: window, Reference: reference,
	}, cfg.Energy, lay.vecLen)
	if err != nil {
		return base{}, err
	}
	b := base{geo: geo, lay: lay, pass: pass}
	for fb := 0; fb < geo.TotalBanks(); fb++ {
		b.banks = append(b.banks, fb)
	}
	perRank := geo.BanksPerRank()
	for r := 0; r < geo.Ranks; r++ {
		b.rankBanks = append(b.rankBanks, b.banks[r*perRank:(r+1)*perRank])
	}
	return b, nil
}

// read stripes slot over banks and issues it as one gather of cols bursts
// consumed at c.
func (b *base) read(banks []int, slot int64, cols int, c dram.Consumer) error {
	loc, err := arch.Stripe(b.geo, banks, slot, cols)
	if err != nil {
		return err
	}
	b.pass.Read(loc, cols, c)
	return nil
}

// layout is the contiguous symmetric data layout: a single vector-slot
// space striped over every bank of the channel.
type layout struct {
	vecLen int
	bursts int
	base   []int64 // per-table first slot
	total  int64
}

func newLayout(spec trace.ModelSpec, geo dram.Geometry) (*layout, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	vecLen := spec.Tables[0].VecLen
	for _, t := range spec.Tables {
		if t.VecLen != vecLen {
			return nil, fmt.Errorf("baseline: mixed vector lengths unsupported")
		}
	}
	l := &layout{vecLen: vecLen, bursts: arch.Bursts(geo, vecLen)}
	l.base = make([]int64, len(spec.Tables))
	for i, t := range spec.Tables {
		l.base[i] = l.total
		l.total += t.Rows
	}
	capSlots := int64(geo.TotalBanks()) * int64(geo.RowsPerBank()) * int64(geo.ColumnsPerRow()/l.bursts)
	if l.total > capSlots {
		return nil, fmt.Errorf("baseline: model needs %d vector slots, channel holds %d", l.total, capSlots)
	}
	return l, nil
}

// slot returns the global vector slot of (table, row).
func (l *layout) slot(table int, row int64) int64 { return l.base[table] + row }

// Cache access energies (nanojoules per vector hit): a 32 MB LLC read is
// roughly 1.2 nJ, RecNMP's small 1 MB PE cache about 0.15 nJ.
const (
	llcHitNano     = 1.2
	peCacheHitNano = 0.15
)
