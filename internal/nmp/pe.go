package nmp

import (
	"fmt"

	"recross/internal/kernels"
)

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

// ComputeUnit is the cumulative multiply-accumulate datapath of Fig. 7(f):
// an FP32 vector register accumulating weighted gathered vectors. One unit
// serves one in-flight embedding operation.
type ComputeUnit struct {
	acc   []float32
	dirty bool
	stats OpStats
}

// NewComputeUnit returns a unit for vectors of length vecLen.
func NewComputeUnit(vecLen int) (*ComputeUnit, error) {
	if vecLen <= 0 {
		return nil, fmt.Errorf("nmp: vector length must be positive, got %d", vecLen)
	}
	return &ComputeUnit{acc: make([]float32, vecLen)}, nil
}

// VecLen returns the unit's vector width.
func (u *ComputeUnit) VecLen() int { return len(u.acc) }

// Accumulate folds vec into the accumulator under op. For OpWeightedSum the
// vector is scaled by weight first; for OpSum the weight is ignored.
func (u *ComputeUnit) Accumulate(op Opcode, vec []float32, weight float32) error {
	if len(vec) != len(u.acc) {
		return fmt.Errorf("nmp: vector length %d != accumulator %d", len(vec), len(u.acc))
	}
	switch op {
	case OpSum:
		kernels.Add(u.acc, vec)
		u.stats.Adds += int64(len(vec))
	case OpWeightedSum:
		kernels.Axpy(u.acc, vec, weight)
		u.stats.Adds += int64(len(vec))
		u.stats.Mults += int64(len(vec))
	case OpMax:
		if !u.dirty {
			copy(u.acc, vec)
		} else {
			kernels.Max(u.acc, vec)
		}
		u.stats.Adds += int64(len(vec)) // comparators cost like adders
	default:
		return fmt.Errorf("nmp: unknown opcode %d", op)
	}
	u.dirty = true
	return nil
}

// FoldPartial folds an already-reduced partial result from a lower-level
// PE: a plain element-wise add regardless of opcode (the weighting already
// happened below), per §4.1.
func (u *ComputeUnit) FoldPartial(op Opcode, psum []float32) error {
	if len(psum) != len(u.acc) {
		return fmt.Errorf("nmp: psum length %d != accumulator %d", len(psum), len(u.acc))
	}
	if op == OpMax {
		return u.Accumulate(OpMax, psum, 1)
	}
	kernels.Add(u.acc, psum)
	u.stats.Adds += int64(len(psum))
	u.dirty = true
	return nil
}

// AccumulatePsum is the original name of FoldPartial, kept for callers.
func (u *ComputeUnit) AccumulatePsum(op Opcode, psum []float32) error {
	return u.FoldPartial(op, psum)
}

// FoldUnit folds another unit's accumulator directly — the copy-free form
// of FoldPartial(op, src.Result()).
func (u *ComputeUnit) FoldUnit(op Opcode, src *ComputeUnit) error {
	return u.FoldPartial(op, src.acc)
}

// ResultInto copies the accumulated vector into dst (len == VecLen) and
// returns dst — the copy-free-signature form of Result for callers that
// reuse buffers.
func (u *ComputeUnit) ResultInto(dst []float32) []float32 {
	copy(dst, u.acc)
	return dst
}

// Result returns a copy of the accumulated vector. Thin compatibility
// wrapper over ResultInto; hot paths should pass their own buffer.
func (u *ComputeUnit) Result() []float32 {
	return u.ResultInto(make([]float32, len(u.acc)))
}

// Reset clears the accumulator for the next embedding operation.
func (u *ComputeUnit) Reset() {
	kernels.Zero(u.acc)
	u.dirty = false
}

// Stats returns the arithmetic counts since construction.
func (u *ComputeUnit) Stats() OpStats { return u.stats }

// PE is one near-memory processing element: a compute unit plus its level
// and position, as laid out in Fig. 7(c)-(e).
type PE struct {
	Level Level
	// Node is the flat index of the memory node the PE serves (rank index,
	// flat bank-group index, or flat bank index depending on Level).
	Node int
	unit *ComputeUnit
}

// NewPE builds a PE for vectors of length vecLen.
func NewPE(level Level, node, vecLen int) (*PE, error) {
	u, err := NewComputeUnit(vecLen)
	if err != nil {
		return nil, err
	}
	return &PE{Level: level, Node: node, unit: u}, nil
}

// Unit exposes the PE's compute unit.
func (p *PE) Unit() *ComputeUnit { return p.unit }

// RankSummarizer is the DIMM-buffer logic of Fig. 7(b): it dispatches NMP
// instructions to ranks and accumulates the reduced partial sums coming back
// from the rank-level PEs, so only one result vector per operation crosses
// the channel.
type RankSummarizer struct {
	unit  *ComputeUnit
	psums int64
}

// NewRankSummarizer builds a summarizer for vectors of length vecLen.
func NewRankSummarizer(vecLen int) (*RankSummarizer, error) {
	u, err := NewComputeUnit(vecLen)
	if err != nil {
		return nil, err
	}
	return &RankSummarizer{unit: u}, nil
}

// Fold accumulates a rank PE's partial result.
func (r *RankSummarizer) Fold(op Opcode, psum []float32) error {
	if err := r.unit.FoldPartial(op, psum); err != nil {
		return err
	}
	r.psums++
	return nil
}

// FoldUnit accumulates a rank PE's partial result straight from its
// compute unit, without materializing a copy.
func (r *RankSummarizer) FoldUnit(op Opcode, src *ComputeUnit) error {
	if err := r.unit.FoldUnit(op, src); err != nil {
		return err
	}
	r.psums++
	return nil
}

// Result returns the summed vector and resets the summarizer for the next
// operation.
func (r *RankSummarizer) Result() []float32 {
	out := r.unit.Result()
	r.unit.Reset()
	return out
}

// Psums returns how many partial results were folded since construction.
func (r *RankSummarizer) Psums() int64 { return r.psums }
