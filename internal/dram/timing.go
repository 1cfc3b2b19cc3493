package dram

import (
	"fmt"

	"recross/internal/sim"
)

// Timing holds the DRAM timing constraints in I/O clock cycles
// (DDR5-4800 => 2400 MHz, one cycle = 1/2.4 ns). The named values match the
// paper's Table 2; tRRD_S/L, tRTP and the command slot widths use standard
// DDR5 values, and tRA is the new read-to-select constraint ReCross
// introduces for subarray-parallel banks (§4.1, Fig. 6).
type Timing struct {
	TRCD  sim.Cycle // ACT -> RD, same bank
	TCL   sim.Cycle // RD -> first data
	TRP   sim.Cycle // PRE -> ACT, same bank
	TRAS  sim.Cycle // ACT -> PRE, same bank
	TRC   sim.Cycle // ACT -> ACT, same bank (tRAS + tRP)
	TBL   sim.Cycle // burst duration on a data bus
	TCCDS sim.Cycle // RD -> RD, same rank, different bank group
	TCCDL sim.Cycle // RD -> RD, same bank group
	TFAW  sim.Cycle // window for any four ACTs within a rank
	TRRDS sim.Cycle // ACT -> ACT, same rank, different bank group
	TRRDL sim.Cycle // ACT -> ACT, same bank group
	TRTP  sim.Cycle // RD -> PRE, same bank
	TRA   sim.Cycle // read-to-select: gap between global-bitline handovers
	//               across subarrays of one SALP bank
	TWR  sim.Cycle // write recovery: last write data -> PRE, same bank
	TWTR sim.Cycle // write-to-read turnaround, same rank

	// Refresh: every TREFI cycles each rank performs an all-bank refresh
	// blocking it for TRFC cycles. Zero disables refresh (the paper's
	// evaluation does not study it; enable for full-fidelity runs).
	TREFI sim.Cycle
	TRFC  sim.Cycle

	// Command-bus slot widths, in cycles, for conventional DDR commands.
	ActSlots sim.Cycle
	RdSlots  sim.Cycle
	PreSlots sim.Cycle
}

// DDR5Timing returns the paper's Table 2 DDR5-4800 parameters.
func DDR5Timing() Timing {
	return Timing{
		TRCD:  40,
		TCL:   40,
		TRP:   40,
		TRAS:  76,
		TRC:   116,
		TBL:   8,
		TCCDS: 8,
		TCCDL: 12,
		TFAW:  32,
		TRRDS: 4,
		TRRDL: 8,
		TRTP:  12,
		TRA:   12,
		TWR:   36,
		TWTR:  12,

		ActSlots: 2,
		RdSlots:  1,
		PreSlots: 1,
	}
}

// DDR4Timing returns DDR4-3200 parameters in its own 1600 MHz clock cycles
// (one cycle = 0.625 ns — 1.5x the DDR5-4800 cycle of 0.417 ns). Cross-generation
// comparisons must convert cycles to time; see ClockGHz.
func DDR4Timing() Timing {
	return Timing{
		TRCD:  22,
		TCL:   22,
		TRP:   22,
		TRAS:  52,
		TRC:   74,
		TBL:   4,
		TCCDS: 4,
		TCCDL: 8,
		TFAW:  26,
		TRRDS: 4,
		TRRDL: 6,
		TRTP:  8,
		TRA:   8,
		TWR:   24,
		TWTR:  8,

		ActSlots: 2,
		RdSlots:  1,
		PreSlots: 1,
	}
}

// ClockGHz returns the command-clock frequency a timing set's cycles are
// expressed in, inferred from the burst length (DDR5 sub-channel BL16 at
// 2.4 GHz transfers 64 B in 8 cycles; DDR4 BL8 at 1.6 GHz in 4).
func (t Timing) ClockGHz() float64 {
	if t.TBL == 4 {
		return 1.6
	}
	return 2.4
}

// WithRefresh returns the timing with DDR5 auto-refresh enabled:
// tREFI = 3.9 us and tRFC = 410 ns (16 Gb device) at the 2400 MHz clock.
func (t Timing) WithRefresh() Timing {
	t.TREFI = 9360
	t.TRFC = 984
	return t
}

// Validate reports the first inconsistency in the timing parameters.
func (t Timing) Validate() error {
	pos := []struct {
		name string
		v    sim.Cycle
	}{
		{"tRCD", t.TRCD}, {"tCL", t.TCL}, {"tRP", t.TRP}, {"tRAS", t.TRAS},
		{"tRC", t.TRC}, {"tBL", t.TBL}, {"tCCD_S", t.TCCDS}, {"tCCD_L", t.TCCDL},
		{"tFAW", t.TFAW}, {"tRRD_S", t.TRRDS}, {"tRRD_L", t.TRRDL},
		{"tRTP", t.TRTP}, {"tRA", t.TRA}, {"tWR", t.TWR}, {"tWTR", t.TWTR},
		{"ACT slots", t.ActSlots}, {"RD slots", t.RdSlots}, {"PRE slots", t.PreSlots},
	}
	for _, p := range pos {
		if p.v <= 0 {
			return fmt.Errorf("dram: %s must be positive, got %d", p.name, p.v)
		}
	}
	if (t.TREFI == 0) != (t.TRFC == 0) {
		return fmt.Errorf("dram: tREFI and tRFC must be enabled together")
	}
	if t.TREFI < 0 || t.TRFC < 0 || (t.TREFI > 0 && t.TRFC >= t.TREFI) {
		return fmt.Errorf("dram: invalid refresh window tREFI=%d tRFC=%d", t.TREFI, t.TRFC)
	}
	if t.TRC < t.TRAS+t.TRP {
		return fmt.Errorf("dram: tRC (%d) < tRAS + tRP (%d)", t.TRC, t.TRAS+t.TRP)
	}
	if t.TCCDL < t.TCCDS {
		return fmt.Errorf("dram: tCCD_L (%d) < tCCD_S (%d)", t.TCCDL, t.TCCDS)
	}
	if t.TRRDL < t.TRRDS {
		return fmt.Errorf("dram: tRRD_L (%d) < tRRD_S (%d)", t.TRRDL, t.TRRDS)
	}
	return nil
}
