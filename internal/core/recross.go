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
	// over a fresh channel per run — the pre-fast-path behavior, kept for
	// benchmarking the arbiter end to end. Results are bit-identical (the
	// memctrl differential fuzzer enforces it).
	RefScheduler bool
	// ColdTier, when non-nil, adds a fourth flash-backed placement region
	// behind the DRAM tree (RegionCold). The partitioner prices it with
	// the tier's timing model, and when ResidentBudgetBytes is set the
	// DRAM regions' capacities are clamped to the budget so the table
	// tail overflows onto flash instead of failing to fit.
	ColdTier *coldstore.TierSpec
	// Precision is the DRAM regions' row storage format. Quantized rows
	// shrink each gather's bus occupancy to the encoded burst count and
	// multiply region capacity by the same ratio; partial sums climbing
	// the PE tree and results returned to the host stay fp32. The zero
	// value is FP32 (the pre-quantization model, bit-identical).
	Precision kernels.Precision
	// ColdPrecision is the flash tier's page row format: it packs more
	// rows per device page (raising effective gather bandwidth) and
	// multiplies the tier's capacity by the codec ratio.
	ColdPrecision kernels.Precision
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
	case c.ColdPrecision > kernels.INT8:
		return fmt.Errorf("core: unknown cold precision %v", c.ColdPrecision)
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

	// Run scratch, reused across batches under the single-goroutine
	// System contract: the channel+scheduler pair (reset in place per
	// run), the op deduplicator, and the request/accumulator buffers.
	// Steady-state Run allocates only the returned RunStats.
	chsim *arch.ChannelSim
	dedup arch.Deduper
	scr   runScratch
}

// runScratch holds Run's and RunTraining's reusable buffers.
type runScratch struct {
	reqs           []memctrl.Request
	coldSlots      []int64
	rankLoad       []int64
	bgLoad         []int64
	bankLoad       []int64
	touchedBank    []bool
	touchedBG      []bool
	bankPsumBursts []int64
	bgPsumBursts   []int64
	gatingBusy     []int64
	dqBusy         []int64
	touchedRows    map[trainKey]bool
	touchedOrder   []trainKey
}

// trainKey identifies one touched embedding row in RunTraining.
type trainKey struct {
	table int
	row   int64
}

// resetI64 returns s resized to n and zeroed, growing its backing array
// only when needed.
func resetI64(s *[]int64, n int) []int64 {
	if cap(*s) < n {
		*s = make([]int64, n)
	}
	v := (*s)[:n]
	for i := range v {
		v[i] = 0
	}
	return v
}

func resetBool(s *[]bool, n int) []bool {
	if cap(*s) < n {
		*s = make([]bool, n)
	}
	v := (*s)[:n]
	for i := range v {
		v[i] = false
	}
	return v
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
		r.coldSim = coldstore.NewSim(*cfg.ColdTier, cfg.ColdPrecision.RowBytes(vecLen))
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
	// the placement, not the bank regions), so one reusable channel+
	// scheduler pair serves every run.
	if r.chsim, err = arch.NewChannelSim(r.chanSpec()); err != nil {
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

// runChannel drains one run's requests: through the retained ChannelSim
// normally, or through a fresh channel + Reference scheduler when the
// RefScheduler benchmark knob is set (the pre-fast-path cost model).
func (r *ReCross) runChannel(reqs []memctrl.Request, resultBursts int) (sim.Cycle, dram.Stats, memctrl.Result, error) {
	if r.cfg.RefScheduler {
		return arch.RunChannel(r.chanSpec(), reqs, resultBursts)
	}
	return r.chsim.Run(reqs, resultBursts)
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
	salpVec := (B-1)*float64(tm.TCCDL) + float64(tm.TRA)
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
	spec := r.cfg.ColdTier.WithDefaults()
	if budget := spec.ResidentBudgetBytes; budget > 0 {
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
	coldRowBytes := r.cfg.ColdPrecision.RowBytes(r.vecLen)
	return append(regions, partition.Region{
		Name:        "C",
		Level:       nmp.LevelCold,
		CapBytes:    spec.CapBytes,
		BW:          spec.Model.EffectiveBW(coldRowBytes, spec.InStorageReduce),
		Compression: r.cfg.ColdPrecision.Ratio(r.vecLen),
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
	geo := r.geo
	scr := &r.scr
	reqs := scr.reqs[:0]
	var lookups, ops, dramOps int64
	var opID int32
	var seq int64
	instr := arch.InstrCycles(dram.NMPTwoStage, r.bursts)

	// Per-PE-node load accumulators for the imbalance metric: rank PEs,
	// then BG PEs, then bank PEs.
	rankLoad := resetI64(&scr.rankLoad, geo.Ranks)
	bgLoad := resetI64(&scr.bgLoad, geo.Ranks*geo.BankGroups)
	bankLoad := resetI64(&scr.bankLoad, geo.TotalBanks())

	// Per-op touched PEs, for the partial-sum collection cost (§3.3).
	var bankPsums, bgPsums int64
	touchedBank := resetBool(&scr.touchedBank, geo.TotalBanks())
	touchedBG := resetBool(&scr.touchedBG, geo.Ranks*geo.BankGroups)
	bankPsumBursts := resetI64(&scr.bankPsumBursts, geo.Ranks*geo.BankGroups) // per gating
	bgPsumBursts := resetI64(&scr.bgPsumBursts, geo.Ranks)                    // per chip DQ

	// Cold-tier gathers bypass the DRAM channel entirely: their placement
	// slots collect here and are priced by the flash Sim after the drain.
	coldSlots := scr.coldSlots[:0]
	var coldOps int64

	for _, s := range b {
		for _, op := range s {
			op = r.dedup.Dedup(op)
			for i := range touchedBank {
				touchedBank[i] = false
			}
			for i := range touchedBG {
				touchedBG[i] = false
			}
			opCold, opDRAM := false, false
			for _, idx := range op.Indices {
				lookups++
				region, slot := r.pl.Locate(op.Table, idx)
				if region == RegionCold {
					if r.coldSim == nil {
						return nil, fmt.Errorf("core: cold placement without a cold tier")
					}
					coldSlots = append(coldSlots, slot)
					opCold = true
					continue
				}
				opDRAM = true
				loc, err := arch.Stripe(geo, r.regionBanks[region], slot, r.bursts)
				if err != nil {
					return nil, fmt.Errorf("core: region %d: %w", region, err)
				}
				switch region {
				case RegionR:
					rankLoad[loc.Rank] += int64(r.bursts)
				case RegionG:
					bgLoad[geo.FlatBG(loc)] += int64(r.bursts)
					touchedBG[geo.FlatBG(loc)] = true
				default:
					bankLoad[geo.FlatBank(loc)] += int64(r.bursts)
					touchedBank[geo.FlatBank(loc)] = true
					touchedBG[geo.FlatBG(loc)] = true
				}
				reqs = append(reqs, memctrl.Request{
					Loc: loc, Cols: r.bursts,
					Consumer: r.consumers[region],
					Arrival:  sim.Cycle(seq) * instr, Op: opID,
				})
				seq++
			}
			for fb, v := range touchedBank {
				if v {
					bankPsums++
					// Partial sums are fp32 regardless of storage precision.
					bankPsumBursts[fb/geo.Banks] += int64(r.psumBursts)
				}
			}
			for fbg, v := range touchedBG {
				if v {
					bgPsums++
					bgPsumBursts[fbg/geo.BankGroups] += int64(r.psumBursts)
				}
			}
			if opCold {
				coldOps++
			}
			if opDRAM {
				dramOps++
			}
			ops++
			opID++
		}
	}
	scr.reqs = reqs
	scr.coldSlots = coldSlots

	// The rank summarizer returns one vector per op to the host — only for
	// ops that touched DRAM at all; fully-cold ops return over the flash
	// link, which the cold Sim prices.
	finish, st, res, err := r.runChannel(reqs, int(dramOps)*r.psumBursts)
	if err != nil {
		return nil, err
	}
	// Partial sums climb the tree: B-region bank PEs through their bank
	// group's gating (shared with G-region gathers), NMP bank-group PEs
	// over the chip DQ (shared with R-region gathers) to the rank PE.
	// With only 1+4+4 PEs per rank this traffic is small — the §3.3
	// advantage of reducing data promptly at every level.
	gatingBusy := resetI64(&scr.gatingBusy, geo.Ranks*geo.BankGroups)
	for fbg := range gatingBusy {
		gatingBusy[fbg] = bgLoad[fbg] + bankPsumBursts[fbg]
	}
	dqBusy := resetI64(&scr.dqBusy, geo.Ranks)
	for rank := range dqBusy {
		dqBusy[rank] = rankLoad[rank] + bgPsumBursts[rank]
	}
	finish = arch.PsumFloor(r.cfg.Tm, finish, gatingBusy, dqBusy)

	// The flash phase overlaps the DRAM phase (cold reads issue with the
	// batch and partial sums merge host-side), so the batch finishes at
	// the slower of the two.
	var coldCycles sim.Cycle
	var coldReads, coldHits int64
	if len(coldSlots) > 0 {
		coldCycles, coldReads, coldHits = r.coldSim.Batch(coldSlots, int(coldOps))
		if coldCycles > finish {
			finish = coldCycles
		}
	}

	// Imbalance across all PEs, each node's load expressed as busy cycles
	// at its own data cadence.
	var nodeLoads []int64
	tm := r.cfg.Tm
	for _, l := range rankLoad {
		nodeLoads = append(nodeLoads, l*int64(tm.TCCDS))
	}
	for bgi, l := range bgLoad {
		if l > 0 || r.isNMPBG(bgi) {
			nodeLoads = append(nodeLoads, l*int64(tm.TCCDL))
		}
	}
	for _, fb := range r.regionBanks[RegionB] {
		nodeLoads = append(nodeLoads, bankLoad[fb]*int64(tm.TCCDL))
	}

	psums := ops * int64(geo.Ranks*(1+r.cfg.NMPBankGroups+r.cfg.BankPEs))
	ops2 := arch.ReduceOps(lookups, psums, r.vecLen)
	p50, p99 := arch.OpPercentiles(res)
	return &arch.RunStats{
		OpP50:         p50,
		OpP99:         p99,
		Cycles:        finish,
		DRAM:          st,
		Ops:           ops2,
		RowHits:       res.RowHits,
		RowMisses:     res.RowMisses,
		Lookups:       lookups,
		NodeLoads:     nodeLoads,
		Imbalance:     arch.LoadsToImbalance(nodeLoads),
		Energy:        energy.Account(r.cfg.Energy, st, ops2, finish, geo.Ranks, geo.BurstBytes),
		ColdLookups:   int64(len(coldSlots)),
		ColdPageReads: coldReads,
		ColdPageHits:  coldHits,
		ColdCycles:    coldCycles,
	}, nil
}

func (r *ReCross) isNMPBG(flatBG int) bool {
	return flatBG%r.geo.BankGroups < r.cfg.NMPBankGroups
}
