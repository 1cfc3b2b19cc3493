// Package core implements ReCross, the paper's primary contribution (§4): a
// cross-level NMP architecture offering rank-, bank-group- and
// subarray-parallel bank-level processing in one DIMM-based memory system,
// fed by the bandwidth-aware partitioner of internal/partition. The memory
// space is split into the R-, G- and B-regions of §4.1; each embedding
// table is spread across them according to its profiled access
// distribution, so the small hot head enjoys subarray-level parallelism
// while the cold tail rests in capacity-optimized rank-level memory.
package core

import (
	"fmt"

	"recross/internal/arch"
	"recross/internal/coldstore"
	"recross/internal/dram"
	"recross/internal/energy"
	"recross/internal/kernels"
	"recross/internal/memctrl"
	"recross/internal/nmp"
	"recross/internal/partition"
	"recross/internal/sim"
	"recross/internal/trace"
)

// Config describes a ReCross instance. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	Spec   trace.ModelSpec
	Ranks  int
	Tm     dram.Timing
	Energy energy.Params

	// NMPBankGroups is the number of bank groups per rank with a
	// bank-group-level PE (default 4 of 8; §5.4's first config knob).
	NMPBankGroups int
	// BankPEs is the number of banks per rank with a bank-level PE,
	// distributed one-per-NMP-bank-group first (default 4, i.e. one per
	// NMP bank group).
	BankPEs int

	// Optimization toggles — the Fig. 12 ablation switches.
	SAP bool // subarray-level parallelism in B-region banks
	BWP bool // LP bandwidth-aware partitioning (false => crude greedy)
	LAS bool // locality-aware scheduling (false => plain FR-FCFS)

	// Batch is the batch size the partitioner optimizes for.
	Batch int
	// ProfileSamples is the length of the offline profiling pass.
	ProfileSamples int
	// Seed seeds the profiling generator.
	Seed int64
	// Profile, when non-nil, supplies a precomputed profile for Spec and
	// skips the internal profiling pass — the experiment harness shares
	// one profile across many configurations.
	Profile *partition.Profile
	// Placement, when non-nil, is a plan already solved and built for these
	// regions: New installs it through Adopt instead of profiling and
	// solving, which is how a serving stack's replicas share one plan.
	Placement *partition.Placement
	// Subarrays overrides the per-bank subarray count (0 = the geometry
	// default of 256); bank capacity is preserved. Used by the SALP
	// sensitivity study.
	Subarrays int
	// Geo overrides the channel geometry (nil = dram.DDR5(Ranks)); pair a
	// DDR4 geometry with dram.DDR4Timing() in Tm.
	Geo *dram.Geometry
	// RefScheduler selects the O(banks)-scan memctrl.Reference scheduler
	// instead of the fast arbiter, kept for benchmarking the arbiter end to
	// end. Results are bit-identical (the memctrl differential fuzzer and
	// TestSchedulerIdentityProduction enforce it).
	RefScheduler bool
	// ColdTier, when non-nil, adds a fourth flash-backed placement region
	// behind the DRAM tree (RegionCold). The partitioner prices it with
	// the tier's timing model, and when ResidentBudgetBytes is set the
	// DRAM regions' capacities are clamped to the budget so the table
	// tail overflows onto flash instead of failing to fit. Its Precision
	// is the flash pages' row format: it packs more rows per device page
	// (raising effective gather bandwidth) and multiplies the tier's
	// capacity by the codec ratio. Only the partitioner and timing
	// fields are read here; the store fields configure coldstore.Open.
	ColdTier *coldstore.Config
	// Precision is the DRAM regions' row storage format. Quantized rows
	// shrink each gather's bus occupancy to the encoded burst count and
	// multiply region capacity by the same ratio; partial sums climbing
	// the PE tree and results returned to the host stay fp32. The zero
	// value is FP32 (the pre-quantization model, bit-identical).
	Precision kernels.Precision
}

// DefaultConfig returns the paper's ReCross-d: 1 rank PE, 4 bank-group PEs
// and 4 bank PEs per rank (R:G:B capacity 16:12:4), all optimizations on.
func DefaultConfig(spec trace.ModelSpec) Config {
	return Config{
		Spec:           spec,
		Ranks:          2,
		Tm:             dram.DDR5Timing(),
		Energy:         energy.Default(),
		NMPBankGroups:  4,
		BankPEs:        4,
		SAP:            true,
		BWP:            true,
		LAS:            true,
		Batch:          32,
		ProfileSamples: 2000,
		Seed:           12345,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	geo := dram.DDR5(c.Ranks)
	if c.Geo != nil {
		geo = *c.Geo
		geo.Ranks = c.Ranks
		if err := geo.Validate(); err != nil {
			return err
		}
	}
	switch {
	case c.Ranks <= 0:
		return fmt.Errorf("core: ranks must be positive, got %d", c.Ranks)
	case c.NMPBankGroups < 0 || c.NMPBankGroups > geo.BankGroups:
		return fmt.Errorf("core: NMP bank groups %d out of [0,%d]", c.NMPBankGroups, geo.BankGroups)
	case c.BankPEs < 0 || c.BankPEs > c.NMPBankGroups*geo.Banks:
		return fmt.Errorf("core: %d bank PEs exceed the %d banks of the NMP bank groups",
			c.BankPEs, c.NMPBankGroups*geo.Banks)
	case c.NMPBankGroups == 0 && c.BankPEs > 0:
		return fmt.Errorf("core: bank PEs require NMP bank groups")
	case c.Batch <= 0:
		return fmt.Errorf("core: batch must be positive, got %d", c.Batch)
	case c.ProfileSamples <= 0:
		return fmt.Errorf("core: profile samples must be positive, got %d", c.ProfileSamples)
	case c.Subarrays < 0 || (c.Subarrays > 0 && geo.RowsPerBank()%c.Subarrays != 0):
		return fmt.Errorf("core: subarray count %d must divide the %d rows per bank",
			c.Subarrays, geo.RowsPerBank())
	case c.ColdTier != nil && c.ColdTier.CapBytes <= 0:
		return fmt.Errorf("core: cold tier needs positive capacity, got %d", c.ColdTier.CapBytes)
	case c.ColdTier != nil && c.ColdTier.ResidentBudgetBytes < 0:
		return fmt.Errorf("core: negative resident budget %d", c.ColdTier.ResidentBudgetBytes)
	case c.Precision > kernels.INT8:
		return fmt.Errorf("core: unknown precision %v", c.Precision)
	case c.ColdTier != nil && c.ColdTier.Precision > kernels.INT8:
		return fmt.Errorf("core: unknown cold precision %v", c.ColdTier.Precision)
	}
	return c.Spec.Validate()
}

// Region indices within a ReCross placement, ordered coarse to fine.
// RegionCold exists only when Config.ColdTier is set; it has no banks in
// the DRAM tree — its gathers route to the flash timing model instead.
const (
	RegionR    = 0
	RegionG    = 1
	RegionB    = 2
	RegionCold = 3
)

// ReCross is a configured instance: region bank sets and the placement
// (which carries its profile and decision), ready to run batches.
type ReCross struct {
	cfg Config
	geo dram.Geometry
	pl  *partition.Placement
	// regionBanks[j] lists the flat banks of region j.
	regionBanks [3][]int
	// bursts is a gather's bus occupancy: the encoded row's burst count
	// under cfg.Precision. psumBursts is an fp32 vector's burst count —
	// partial sums and host results are always full precision.
	bursts     int
	psumBursts int
	vecLen     int
	consumers  [3]dram.Consumer
	// coldSim is the flash tier's per-replica timing model (nil without a
	// cold tier); like the channel sim it is owned by the Run goroutine.
	coldSim *coldstore.Sim

	// pass is the gather pass every run places its lookups through; it
	// owns the reusable channel+scheduler pair (reset in place per run).
	pass *arch.Pass
	// Run and RunTraining scratch, reused across batches under the
	// single-goroutine System contract: cold-tier slots, node loads, and
	// RunTraining's touched-row set in first-touch order.
	coldSlots    []int64
	nodeLoads    []int64
	touchedRows  map[trainKey]bool
	touchedOrder []trainKey
}

// trainKey identifies one touched embedding row in RunTraining.
type trainKey struct {
	table int
	row   int64
}

// New builds an instance on cfg.Placement, or else profiles the workload
// (unless cfg.Profile supplies one), solves the partitioning and builds
// the placement.
func New(cfg Config) (*ReCross, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo := dram.DDR5(cfg.Ranks)
	if cfg.Geo != nil {
		geo = *cfg.Geo
		geo.Ranks = cfg.Ranks
	}
	if cfg.Subarrays > 0 {
		geo.RowsPerSubarray = geo.RowsPerBank() / cfg.Subarrays
		geo.Subarrays = cfg.Subarrays
	}
	vecLen := cfg.Spec.Tables[0].VecLen
	r := &ReCross{
		cfg:        cfg,
		geo:        geo,
		vecLen:     vecLen,
		bursts:     arch.BurstsBytes(geo, cfg.Precision.RowBytes(vecLen)),
		psumBursts: arch.Bursts(geo, vecLen),
		consumers:  [3]dram.Consumer{dram.ToRankPE, dram.ToBankGroupPE, dram.ToBankPE},
	}
	r.assignBanks()
	if cfg.ColdTier != nil {
		r.coldSim = coldstore.NewSim(*cfg.ColdTier, cfg.ColdTier.Precision.RowBytes(vecLen))
	}

	var err error
	pl := cfg.Placement
	if pl == nil {
		prof := cfg.Profile
		if prof == nil {
			if prof, err = partition.NewProfile(cfg.Spec, cfg.Seed, cfg.ProfileSamples); err != nil {
				return nil, err
			}
		}
		if pl, err = r.solve(prof); err != nil {
			return nil, err
		}
	}
	if err = r.Adopt(pl); err != nil {
		return nil, err
	}
	// The channel spec is fixed for the instance's lifetime (Adopt swaps
	// the placement, not the bank regions), so one pass serves every run.
	if r.pass, err = arch.NewPass(r.chanSpec(), cfg.Energy, vecLen); err != nil {
		return nil, err
	}
	return r, nil
}

// chanSpec builds the instance's channel configuration.
func (r *ReCross) chanSpec() arch.ChannelSpec {
	policy := memctrl.FRFCFS
	if r.cfg.LAS {
		policy = memctrl.LAS
	}
	var salpBanks []int
	if r.cfg.SAP {
		salpBanks = r.regionBanks[RegionB]
	}
	return arch.ChannelSpec{
		Geo: r.geo, Tm: r.cfg.Tm, Mode: dram.NMPTwoStage,
		Policy: policy, SALPBanks: salpBanks,
		OpWindow:  arch.NMPOpWindow,
		Reference: r.cfg.RefScheduler,
	}
}

// assignBanks carves the channel into the R-, G- and B-region bank sets:
// within each rank, bank groups [0, NMPBankGroups) are NMP-featured; bank
// PEs are spread round-robin across the NMP groups' banks.
func (r *ReCross) assignBanks() {
	geo := r.geo
	bankPEPerBG := make([]int, r.cfg.NMPBankGroups)
	for i := 0; i < r.cfg.BankPEs; i++ {
		bankPEPerBG[i%r.cfg.NMPBankGroups]++
	}
	for rank := 0; rank < geo.Ranks; rank++ {
		for bg := 0; bg < geo.BankGroups; bg++ {
			for bank := 0; bank < geo.Banks; bank++ {
				fb := geo.FlatBank(dram.Loc{Rank: rank, BG: bg, Bank: bank})
				switch {
				case bg >= r.cfg.NMPBankGroups:
					r.regionBanks[RegionR] = append(r.regionBanks[RegionR], fb)
				case bank < bankPEPerBG[bg]:
					r.regionBanks[RegionB] = append(r.regionBanks[RegionB], fb)
				default:
					r.regionBanks[RegionG] = append(r.regionBanks[RegionG], fb)
				}
			}
		}
	}
}

// Regions returns the three partition regions with capacity and estimated
// internal bandwidth (bytes per cycle), ordered R, G, B.
func (r *ReCross) Regions() []partition.Region {
	geo, tm := r.geo, r.cfg.Tm
	bb := float64(geo.BurstBytes)
	B := float64(r.bursts)
	vecBytes := B * bb

	// Effective per-node vector cadence, assuming mostly row misses for R
	// and G (cold/warm data) and row-buffer reuse with subarray handover
	// for the SALP B-region (hot data).
	missVec := float64(tm.TRC) // one tRC per vector on a conventional bank
	if t := B * float64(tm.TCCDL); t > missVec {
		missVec = t
	}
	salpVec := float64((B-1)*float64(tm.TCCDL)) + float64(tm.TRA)
	if !r.cfg.SAP {
		salpVec = missVec
	}

	mk := func(banks []int, perNodeBW float64, nodes int) float64 {
		if len(banks) == 0 || nodes == 0 {
			return 0
		}
		bankBound := float64(len(banks)) * vecBytes / missVec
		nodeBound := perNodeBW * float64(nodes)
		if bankBound < nodeBound {
			return bankBound
		}
		return nodeBound
	}

	// R: one PE per rank, serialized on the chip DQ at tCCD_S.
	rBW := mk(r.regionBanks[RegionR], bb/float64(tm.TCCDS), geo.Ranks)
	// G: one PE per NMP bank group, local gating at tCCD_L.
	gBW := mk(r.regionBanks[RegionG], bb/float64(tm.TCCDL), r.cfg.NMPBankGroups*geo.Ranks)
	// B: one PE per SALP bank at the subarray-parallel vector cadence.
	var bBW float64
	if n := len(r.regionBanks[RegionB]); n > 0 {
		bBW = float64(n) * vecBytes / salpVec
	}

	// Fixed per-batch psum-collection time on each region's shared bus
	// (§3.3): every op flushes one partial sum from each touched
	// lower-level PE. Bank-group psums cross the chip DQ (the R-region's
	// resource), bank psums cross their group's gating (the G-region's).
	var fixedR, fixedG float64
	for _, t := range r.cfg.Spec.Tables {
		opsPerBatch := t.Prob * float64(r.cfg.Batch)
		bgPsums := float64(minInt(r.cfg.NMPBankGroups*geo.Ranks, t.Pooling))
		bankPsums := float64(minInt(r.cfg.BankPEs*geo.Ranks, t.Pooling))
		fixedR += opsPerBatch * bgPsums * B * float64(tm.TCCDS) / float64(geo.Ranks)
		if r.cfg.NMPBankGroups > 0 {
			fixedG += opsPerBatch * bankPsums * B * float64(tm.TCCDL) /
				float64(r.cfg.NMPBankGroups*geo.Ranks)
		}
	}

	capOf := func(banks []int) int64 { return int64(len(banks)) * geo.BankBytes() }
	// Quantized DRAM rows shrink each gather to the encoded burst count:
	// the regions hold proportionally more vectors and move proportionally
	// fewer bytes per access. The ratio is in burst counts (what the bus
	// actually issues), so fp32 stays exactly 1.
	comp := float64(r.psumBursts) / float64(r.bursts)
	regions := []partition.Region{
		{Name: "R", Level: nmp.LevelRank, CapBytes: capOf(r.regionBanks[RegionR]), BW: rBW, FixedCycles: fixedR, Compression: comp},
		{Name: "G", Level: nmp.LevelBankGroup, CapBytes: capOf(r.regionBanks[RegionG]), BW: gBW, FixedCycles: fixedG, Compression: comp},
		{Name: "B", Level: nmp.LevelBank, CapBytes: capOf(r.regionBanks[RegionB]), BW: bBW, Compression: comp},
	}
	if r.cfg.ColdTier == nil {
		return regions
	}
	// Fourth tier: clamp DRAM to the resident budget (proportionally, so
	// the R:G:B shape survives), then append the flash region priced by
	// the cold timing model. It is last on purpose — the placement's fill
	// order sends only a segment's coldest slice there.
	cold := r.cfg.ColdTier
	if budget := cold.ResidentBudgetBytes; budget > 0 {
		var total int64
		for _, reg := range regions {
			total += reg.CapBytes
		}
		if total > budget {
			f := float64(budget) / float64(total)
			for j := range regions {
				regions[j].CapBytes = int64(f * float64(regions[j].CapBytes))
			}
		}
	}
	// The cold tier packs encoded rows into device pages with no burst
	// rounding, so its ratio is the codec's exact byte ratio.
	return append(regions, partition.Region{
		Name:        "C",
		Level:       nmp.LevelCold,
		CapBytes:    cold.CapBytes,
		BW:          coldstore.DefaultModel().EffectiveBW(cold.Precision.RowBytes(r.vecLen), cold.InStorageReduce),
		Compression: cold.Precision.Ratio(r.vecLen),
	})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Decision exposes the placement's partitioning decision (for the
// experiment harness).
func (r *ReCross) Decision() *partition.Decision { return r.pl.Decision() }

// Placement exposes the row placement: the instance's whole partitioning
// plan, shared read-only with every instance built or adopted onto it.
func (r *ReCross) Placement() *partition.Placement { return r.pl }

// Profile exposes the profile the placement was solved for.
func (r *ReCross) Profile() *partition.Profile { return r.pl.Profile() }

// Geometry returns the channel geometry.
func (r *ReCross) Geometry() dram.Geometry { return r.geo }

// Name implements arch.System.
func (r *ReCross) Name() string { return "recross" }

// PEBreakdown returns (rank PEs, bank-group PEs, bank PEs, SALP banks) for
// the area model.
func (r *ReCross) PEBreakdown() (rank, bg, bank, salp int) {
	salpBanks := 0
	if r.cfg.SAP {
		salpBanks = r.cfg.BankPEs
	}
	return 1, r.cfg.NMPBankGroups, r.cfg.BankPEs, salpBanks
}

// Run implements arch.System: one batch through the timing model.
func (r *ReCross) Run(b trace.Batch) (*arch.RunStats, error) {
	r.coldSlots = r.coldSlots[:0]
	if err := r.pass.Gather(b, r.land); err != nil {
		return nil, err
	}
	// Imbalance across all PEs, each node's load expressed as busy cycles
	// at its own data cadence: rank PEs, then BG PEs, then bank PEs.
	tm := r.cfg.Tm
	loads := r.nodeLoads[:0]
	for _, l := range r.pass.Loads(dram.ToRankPE) {
		loads = append(loads, l*int64(tm.TCCDS))
	}
	for bgi, l := range r.pass.Loads(dram.ToBankGroupPE) {
		if l > 0 || r.isNMPBG(bgi) {
			loads = append(loads, l*int64(tm.TCCDL))
		}
	}
	bankLoads := r.pass.Loads(dram.ToBankPE)
	for _, fb := range r.regionBanks[RegionB] {
		loads = append(loads, bankLoads[fb]*int64(tm.TCCDL))
	}
	r.nodeLoads = loads
	psums := r.pass.Ops * int64(r.geo.Ranks*(1+r.cfg.NMPBankGroups+r.cfg.BankPEs))
	return r.finish(psums, loads)
}

// land places one lookup: a gather from its region's banks, consumed by
// that region's PE level, or a slot on the flash tier. Partial sums climb
// the tree — B-region bank PEs through their bank group's gating (shared
// with G-region gathers), NMP bank-group PEs over the chip DQ (shared with
// R-region gathers) to the rank PE; with only 1+4+4 PEs per rank that
// traffic is small, the §3.3 advantage of reducing data promptly at every
// level.
func (r *ReCross) land(table int, idx int64) error {
	region, slot := r.pl.Locate(table, idx)
	if region == RegionCold {
		if r.coldSim == nil {
			return fmt.Errorf("core: cold placement without a cold tier")
		}
		r.coldSlots = append(r.coldSlots, slot)
		return nil
	}
	loc, err := arch.Stripe(r.geo, r.regionBanks[region], slot, r.bursts)
	if err != nil {
		return fmt.Errorf("core: region %d: %w", region, err)
	}
	r.pass.Read(loc, r.bursts, r.consumers[region])
	return nil
}

// finish prices the run's cold slots on the flash Sim and closes the pass.
// Cold gathers bypass the DRAM channel; the flash phase overlaps the DRAM
// phase (cold reads issue with the batch and partial sums merge host-side),
// so the batch finishes at the slower of the two. The rank summarizer
// returns one fp32 vector per op to the host — only for ops that touched
// DRAM at all; fully-cold ops return over the flash link, which the cold
// Sim prices.
func (r *ReCross) finish(psumFolds int64, nodeLoads []int64) (*arch.RunStats, error) {
	var coldCycles sim.Cycle
	var coldReads, coldHits int64
	if r.coldSim != nil {
		coldCycles, coldReads, coldHits = r.coldSim.Batch(r.coldSlots, int(r.pass.OffOps))
	}
	rs, err := r.pass.Finish(arch.Tally{
		ResultBursts: int(r.pass.DRAMOps) * r.psumBursts,
		PsumFolds:    psumFolds,
		NodeLoads:    nodeLoads,
		ColdCycles:   coldCycles,
	})
	if err != nil {
		return nil, err
	}
	rs.ColdLookups, rs.ColdPageReads, rs.ColdPageHits = int64(len(r.coldSlots)), coldReads, coldHits
	return rs, nil
}

func (r *ReCross) isNMPBG(flatBG int) bool {
	return flatBG%r.geo.BankGroups < r.cfg.NMPBankGroups
}
