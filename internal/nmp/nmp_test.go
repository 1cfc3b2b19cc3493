package nmp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestInstrBitsIs82(t *testing.T) {
	if InstrBits != 82 {
		t.Fatalf("InstrBits = %d, want 82 (paper §4.2)", InstrBits)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := Instr{
		Opcode:    OpWeightedSum,
		Cmd:       CmdRD,
		Addr:      0x3_DEAD_BEEF,
		VSizeLog2: 2,
		Weight:    1.25,
		BatchTag:  true,
		LastTag:   false,
		BGTag:     true,
		BankTag:   true,
	}
	p, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// Property: any valid instruction round-trips bit-exactly, including NaN
// weights (compared by bit pattern).
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(op, cmd uint8, addr uint64, vs uint8, wbits uint32, batch, last, bg, bank bool) bool {
		in := Instr{
			Opcode:    Opcode(op % 8),
			Cmd:       DDRCmd(cmd % 8),
			Addr:      addr & ((1 << 34) - 1),
			VSizeLog2: vs % 8,
			Weight:    math.Float32frombits(wbits),
			BatchTag:  batch,
			LastTag:   last,
			BGTag:     bg || bank, // bankTag requires BGTag
			BankTag:   bank,
		}
		p, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := Decode(p)
		if err != nil {
			return false
		}
		return out.Opcode == in.Opcode && out.Cmd == in.Cmd &&
			out.Addr == in.Addr && out.VSizeLog2 == in.VSizeLog2 &&
			math.Float32bits(out.Weight) == math.Float32bits(in.Weight) &&
			out.BatchTag == in.BatchTag && out.LastTag == in.LastTag &&
			out.BGTag == in.BGTag && out.BankTag == in.BankTag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsOverflow(t *testing.T) {
	cases := []Instr{
		{Addr: 1 << 34},
		{VSizeLog2: 8},
		{BankTag: true}, // bankTag without BGTag
	}
	for i, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("case %d: expected encode error", i)
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	// Bits beyond the 82-bit width.
	if _, err := Decode(Packed{Hi: 1 << 30}); err == nil {
		t.Error("expected error for bits beyond width")
	}
	// Nonzero padding (bits 79..81).
	if _, err := Decode(Packed{Hi: 1 << (79 - 64)}); err == nil {
		t.Error("expected error for nonzero padding")
	}
}

func TestInstrLevelFromTags(t *testing.T) {
	cases := []struct {
		bg, bank bool
		want     Level
	}{
		{false, false, LevelRank},
		{true, false, LevelBankGroup},
		{true, true, LevelBank},
	}
	for _, c := range cases {
		in := Instr{BGTag: c.bg, BankTag: c.bank}
		if got := in.Level(); got != c.want {
			t.Errorf("tags (%v,%v): level = %v, want %v", c.bg, c.bank, got, c.want)
		}
	}
}

func TestInstrBursts(t *testing.T) {
	if (Instr{VSizeLog2: 0}).Bursts() != 1 || (Instr{VSizeLog2: 4}).Bursts() != 16 {
		t.Fatal("Bursts decoding wrong")
	}
}

func TestLevelString(t *testing.T) {
	names := map[Level]string{
		LevelRank: "rank", LevelBankGroup: "bank-group",
		LevelBank: "bank", LevelHost: "host",
	}
	for l, want := range names {
		if l.String() != want {
			t.Errorf("Level(%d).String() = %q, want %q", l, l.String(), want)
		}
	}
}
