package arch

import (
	"testing"

	"recross/internal/dram"
	"recross/internal/memctrl"
	"recross/internal/trace"
)

func TestBursts(t *testing.T) {
	geo := dram.DDR5(2)
	cases := map[int]int{16: 1, 32: 2, 64: 4, 128: 8, 256: 16, 1: 1}
	for vecLen, want := range cases {
		if got := Bursts(geo, vecLen); got != want {
			t.Errorf("Bursts(%d) = %d, want %d", vecLen, got, want)
		}
	}
}

func TestStripeRoundRobinAcrossBanks(t *testing.T) {
	geo := dram.DDR5(2)
	banks := []int{3, 7, 11}
	seen := map[int]int{}
	for slot := int64(0); slot < 9; slot++ {
		loc, err := Stripe(geo, banks, slot, 4)
		if err != nil {
			t.Fatal(err)
		}
		seen[geo.FlatBank(loc)]++
	}
	for _, fb := range banks {
		if seen[fb] != 3 {
			t.Fatalf("bank %d got %d of 9 slots, want 3", fb, seen[fb])
		}
	}
}

func TestStripeFillsRows(t *testing.T) {
	geo := dram.DDR5(2)
	banks := []int{0}
	vecPerRow := geo.ColumnsPerRow() / 4
	l0, _ := Stripe(geo, banks, 0, 4)
	l1, _ := Stripe(geo, banks, 1, 4)
	lr, _ := Stripe(geo, banks, int64(vecPerRow), 4)
	if l0.Row != 0 || l1.Row != 0 || l0.Col != 0 || l1.Col != 4 {
		t.Fatalf("first-row slots wrong: %+v %+v", l0, l1)
	}
	// Logical row 1 is interleaved into the next subarray.
	if lr.Row != geo.RowsPerSubarray || lr.Col != 0 {
		t.Fatalf("row rollover wrong: %+v, want row %d", lr, geo.RowsPerSubarray)
	}
}

func TestStripeRowsInterleaveSubarrays(t *testing.T) {
	geo := dram.DDR5(2)
	banks := []int{0}
	vecPerRow := int64(geo.ColumnsPerRow() / 4)
	// Consecutive logical rows must land in distinct subarrays so SALP
	// banks can overlap the hot head's activations.
	subs := map[int]bool{}
	for r := int64(0); r < 16; r++ {
		loc, err := Stripe(geo, banks, r*vecPerRow, 4)
		if err != nil {
			t.Fatal(err)
		}
		subs[geo.Subarray(loc.Row)] = true
	}
	if len(subs) != 16 {
		t.Fatalf("16 consecutive rows span %d subarrays, want 16", len(subs))
	}
	// The mapping remains a bijection over the bank's rows.
	seen := map[int]bool{}
	for r := 0; r < geo.RowsPerBank(); r += 317 {
		loc, err := Stripe(geo, banks, int64(r)*vecPerRow, 4)
		if err != nil {
			t.Fatal(err)
		}
		if seen[loc.Row] {
			t.Fatalf("row collision at physical row %d", loc.Row)
		}
		seen[loc.Row] = true
	}
}

func TestStripeErrors(t *testing.T) {
	geo := dram.DDR5(2)
	if _, err := Stripe(geo, nil, 0, 4); err == nil {
		t.Error("empty bank set should error")
	}
	if _, err := Stripe(geo, []int{0}, 0, 0); err == nil {
		t.Error("zero bursts should error")
	}
	// Slot past bank capacity.
	vecPerBank := int64(geo.RowsPerBank()) * int64(geo.ColumnsPerRow()/4)
	if _, err := Stripe(geo, []int{0}, vecPerBank, 4); err == nil {
		t.Error("over-capacity slot should error")
	}
}

func TestInstrCycles(t *testing.T) {
	if got := instrCycles(dram.NMPTwoStage); got != 1 {
		t.Fatalf("two-stage lookup = %d instr cycles, want 1 (82 bits / 94 pins)", got)
	}
	if got := instrCycles(dram.NMPCAOnly); got != 6 {
		t.Fatalf("C/A-only lookup = %d, want 6 (82 bits / 14 pins)", got)
	}
	if got := instrCycles(dram.Conventional); got != 2 {
		t.Fatalf("conventional = %d, want 2", got)
	}
}

func TestRunChannelWithResults(t *testing.T) {
	spec := ChannelSpec{
		Geo: dram.DDR5(2), Tm: dram.DDR5Timing(),
		Mode: dram.NMPTwoStage, Policy: memctrl.FRFCFS,
	}
	reqs := []memctrl.Request{
		{Loc: dram.Loc{Row: 1}, Cols: 4, Consumer: dram.ToBankPE},
	}
	cs, err := NewChannelSim(spec)
	if err != nil {
		t.Fatal(err)
	}
	finish, st, res, err := cs.Run(reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Result traffic overlaps the drain; with this tiny drain it fits.
	if finish < res.Finish {
		t.Fatal("finish cannot precede the drain")
	}
	if st.HostResultTx != 4 {
		t.Fatalf("result bursts = %d, want 4", st.HostResultTx)
	}
	// A result stream longer than the drain extends the finish.
	finish2, _, res2, err := cs.Run(reqs, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if finish2 <= res2.Finish {
		t.Fatal("oversized result stream should extend the finish time")
	}
	if st.RDs != 4 {
		t.Fatalf("RDs = %d, want 4", st.RDs)
	}
}

func TestRunChannelSALPValidation(t *testing.T) {
	spec := ChannelSpec{
		Geo: dram.DDR5(2), Tm: dram.DDR5Timing(),
		Mode: dram.NMPTwoStage, Policy: memctrl.FRFCFS,
		SALPBanks: []int{9999},
	}
	if _, err := NewChannelSim(spec); err == nil {
		t.Fatal("out-of-range SALP bank should error")
	}
}

func TestReduceOps(t *testing.T) {
	ops := reduceOps(100, 10, 64)
	if ops.Adds != 110*64 || ops.Mults != 100*64 {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestCountBatch(t *testing.T) {
	b := trace.Batch{
		{
			{Table: 0, Indices: []int64{1, 2}, Weights: []float32{1, 1}},
			{Table: 1, Indices: []int64{3}, Weights: []float32{1}},
		},
		{
			{Table: 0, Indices: []int64{4}, Weights: []float32{1}},
		},
	}
	lookups, ops := CountBatch(b)
	if lookups != 4 || ops != 3 {
		t.Fatalf("lookups=%d ops=%d, want 4 and 3", lookups, ops)
	}
}
