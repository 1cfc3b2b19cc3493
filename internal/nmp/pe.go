package nmp

import "fmt"

// Level identifies where in the DRAM tree a PE sits.
type Level int

const (
	// LevelRank PEs live in the DIMM buffer chip (TensorDIMM/RecNMP and
	// ReCross's R-region).
	LevelRank Level = iota
	// LevelBankGroup PEs live inside the DRAM chip next to a bank group
	// (TRiM-G and ReCross's G-region).
	LevelBankGroup
	// LevelBank PEs live next to a bank (TRiM-B and ReCross's B-region,
	// where the bank is additionally subarray-parallel).
	LevelBank
	// LevelHost means no NMP: data is reduced on the CPU.
	LevelHost
	// LevelCold marks a region backed by the flash cold tier
	// (internal/coldstore) rather than DRAM: gathers are served by page
	// reads from the in-storage device, optionally pre-reduced there
	// (RecSSD-style in-storage reduction).
	LevelCold
)

func (l Level) String() string {
	switch l {
	case LevelRank:
		return "rank"
	case LevelBankGroup:
		return "bank-group"
	case LevelBank:
		return "bank"
	case LevelHost:
		return "host"
	case LevelCold:
		return "cold"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// OpStats counts the arithmetic a PE performs, for the energy model.
type OpStats struct {
	Adds  int64
	Mults int64
}

// Add accumulates other into s.
func (s *OpStats) Add(other OpStats) {
	s.Adds += other.Adds
	s.Mults += other.Mults
}
