// Package nmp holds ReCross's near-memory-processing vocabulary: the
// compressed 82-bit NMP instruction of §4.2 (bit-exact encoder/decoder),
// the PE levels of §4.1 (rank, bank group, bank, plus the host and the
// flash cold tier) and the arithmetic counts the energy model prices.
//
// The PEs' reduction itself runs in internal/core (ReCross.ReduceBatch,
// through the embedding layer's kernels); timing is modelled by
// internal/dram and internal/memctrl, which the architecture layers
// (internal/baseline, internal/core) combine with this package.
package nmp

import (
	"fmt"
	"math"
)

// Opcode selects the reduction operation (3-bit field).
type Opcode uint8

const (
	// OpSum is plain element-wise summation.
	OpSum Opcode = iota
	// OpWeightedSum multiplies each gathered vector by its FP32 weight
	// before accumulation (the paper's default, as in RecNMP/TRiM).
	OpWeightedSum
	// OpMax is element-wise max pooling.
	OpMax
)

// DDRCmd is the DRAM command an instruction carries (3-bit field).
type DDRCmd uint8

const (
	CmdACT DDRCmd = iota
	CmdRD
	CmdPRE
)

// Instr is the decoded form of one 82-bit NMP instruction (§4.2). Field
// widths: opcode 3, DDR cmd 3, addr 34, vsize 3, weight 32, batchTag 1,
// lastTag 1, BGTag 1, bankTag 1 (79 bits), plus 3 reserved bits of padding
// to the 82-bit figure the paper quotes.
type Instr struct {
	Opcode Opcode
	Cmd    DDRCmd
	// Addr is the 34-bit physical address of the target embedding vector.
	Addr uint64
	// VSizeLog2 encodes the number of DRAM reads per embedding vector as a
	// power of two (0 => 1 burst ... 7 => 128 bursts).
	VSizeLog2 uint8
	// Weight is the FP32 coefficient for weighted summation.
	Weight float32
	// BatchTag identifies the embedding operation within the in-flight
	// window; instructions of one operation carry the same tag.
	BatchTag bool
	// LastTag marks the final instruction of a batch: the PEs may flush
	// their reduced results to the host.
	LastTag bool
	// BGTag is set when the vector lives outside the R-region, i.e. the
	// instruction must be forwarded below the rank-level PE.
	BGTag bool
	// BankTag is set (only with BGTag) when the vector belongs to a
	// bank-level PE rather than the bank-group PE.
	BankTag bool
}

// Bursts returns the number of DRAM read bursts per vector.
func (in Instr) Bursts() int { return 1 << in.VSizeLog2 }

// Level returns the NMP level the instruction is processed at, following
// the tag semantics of §4.1: BGTag clear => rank PE; BGTag set and bankTag
// clear => bank-group PE; both set => bank PE.
func (in Instr) Level() Level {
	switch {
	case !in.BGTag:
		return LevelRank
	case !in.BankTag:
		return LevelBankGroup
	default:
		return LevelBank
	}
}

// Field widths of the packed instruction.
const (
	opcodeBits = 3
	cmdBits    = 3
	addrBits   = 34
	vsizeBits  = 3
	weightBits = 32
	tagBits    = 4 // batch, last, BG, bank
	padBits    = 3

	// InstrBits is the total packed width (82, matching §4.2).
	InstrBits = opcodeBits + cmdBits + addrBits + vsizeBits + weightBits + tagBits + padBits
)

// Packed is the wire form of an instruction: 82 bits little-endian in the
// low bits of [lo, hi].
type Packed struct {
	Lo uint64
	Hi uint64 // bits 64..81 in the low 18 bits
}

// Encode packs the instruction. It returns an error if any field exceeds
// its width.
func Encode(in Instr) (Packed, error) {
	if in.Opcode >= 1<<opcodeBits {
		return Packed{}, fmt.Errorf("nmp: opcode %d exceeds %d bits", in.Opcode, opcodeBits)
	}
	if in.Cmd >= 1<<cmdBits {
		return Packed{}, fmt.Errorf("nmp: DDR cmd %d exceeds %d bits", in.Cmd, cmdBits)
	}
	if in.Addr >= 1<<addrBits {
		return Packed{}, fmt.Errorf("nmp: addr %#x exceeds %d bits", in.Addr, addrBits)
	}
	if in.VSizeLog2 >= 1<<vsizeBits {
		return Packed{}, fmt.Errorf("nmp: vsize %d exceeds %d bits", in.VSizeLog2, vsizeBits)
	}
	if in.BankTag && !in.BGTag {
		return Packed{}, fmt.Errorf("nmp: bankTag requires BGTag (§4.2)")
	}

	var bits uint128
	pos := 0
	put := func(v uint64, w int) {
		bits.or(v, pos)
		pos += w
	}
	put(uint64(in.Opcode), opcodeBits)
	put(uint64(in.Cmd), cmdBits)
	put(in.Addr, addrBits)
	put(uint64(in.VSizeLog2), vsizeBits)
	put(uint64(math.Float32bits(in.Weight)), weightBits)
	put(b2u(in.BatchTag), 1)
	put(b2u(in.LastTag), 1)
	put(b2u(in.BGTag), 1)
	put(b2u(in.BankTag), 1)
	put(0, padBits)
	return Packed{Lo: bits.lo, Hi: bits.hi}, nil
}

// Decode unpacks a wire instruction. It returns an error if the padding or
// the unused high bits are nonzero (corrupt instruction).
func Decode(p Packed) (Instr, error) {
	if p.Hi>>(InstrBits-64) != 0 {
		return Instr{}, fmt.Errorf("nmp: bits beyond %d set", InstrBits)
	}
	bits := uint128{lo: p.Lo, hi: p.Hi}
	pos := 0
	get := func(w int) uint64 {
		v := bits.extract(pos, w)
		pos += w
		return v
	}
	var in Instr
	in.Opcode = Opcode(get(opcodeBits))
	in.Cmd = DDRCmd(get(cmdBits))
	in.Addr = get(addrBits)
	in.VSizeLog2 = uint8(get(vsizeBits))
	in.Weight = math.Float32frombits(uint32(get(weightBits)))
	in.BatchTag = get(1) != 0
	in.LastTag = get(1) != 0
	in.BGTag = get(1) != 0
	in.BankTag = get(1) != 0
	if get(padBits) != 0 {
		return Instr{}, fmt.Errorf("nmp: nonzero padding")
	}
	if in.BankTag && !in.BGTag {
		return Instr{}, fmt.Errorf("nmp: bankTag without BGTag")
	}
	return in, nil
}

// uint128 is a minimal 128-bit accumulator for the packed layout.
type uint128 struct{ lo, hi uint64 }

func (u *uint128) or(v uint64, pos int) {
	if pos < 64 {
		u.lo |= v << pos
		if pos > 0 && 64-pos < 64 {
			u.hi |= v >> (64 - pos)
		}
	} else {
		u.hi |= v << (pos - 64)
	}
}

func (u *uint128) extract(pos, w int) uint64 {
	var v uint64
	if pos < 64 {
		v = u.lo >> pos
		if pos+w > 64 {
			v |= u.hi << (64 - pos)
		}
	} else {
		v = u.hi >> (pos - 64)
	}
	if w < 64 {
		v &= (1 << w) - 1
	}
	return v
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
