package memctrl

import (
	"math/rand"
	"testing"

	"recross/internal/dram"
	"recross/internal/sim"
)

func newCtl(t *testing.T, ranks int, mode dram.InstrMode, pol Policy) (*Controller, *dram.Channel) {
	t.Helper()
	ch, err := dram.NewChannel(dram.DDR5(ranks), dram.DDR5Timing(), mode)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ch, pol, DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	return c, ch
}

func TestDrainEmpty(t *testing.T) {
	c, _ := newCtl(t, 2, dram.Conventional, FRFCFS)
	res, err := c.Drain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish != 0 {
		t.Fatalf("finish = %d, want 0", res.Finish)
	}
}

func TestDrainSingleVector(t *testing.T) {
	c, ch := newCtl(t, 2, dram.Conventional, FRFCFS)
	tm := ch.Tm
	res, err := c.Drain([]Request{{
		Loc: dram.Loc{Row: 5}, Cols: 4, Consumer: dram.ToHost,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// ACT at ~0, RD0 at tRCD, RDs every tCCD_L, data tCL+tBL after last.
	want := tm.TRCD + 3*tm.TCCDL + tm.TCL + tm.TBL
	if res.Finish != want {
		t.Fatalf("finish = %d, want %d", res.Finish, want)
	}
	if res.RowMisses != 1 || res.RowHits != 0 {
		t.Fatalf("hits/misses = %d/%d, want 0/1", res.RowHits, res.RowMisses)
	}
	if res.Done[0] != want {
		t.Fatalf("Done[0] = %d, want %d", res.Done[0], want)
	}
}

func TestDrainRowHitReuse(t *testing.T) {
	c, ch := newCtl(t, 2, dram.Conventional, FRFCFS)
	// Two vectors in the same row: second is a pure row hit.
	reqs := []Request{
		{Loc: dram.Loc{Row: 5, Col: 0}, Cols: 2, Consumer: dram.ToHost},
		{Loc: dram.Loc{Row: 5, Col: 2}, Cols: 2, Consumer: dram.ToHost},
	}
	res, err := c.Drain(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowHits != 1 || res.RowMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", res.RowHits, res.RowMisses)
	}
	if ch.St.ACTs != 1 {
		t.Fatalf("ACTs = %d, want 1", ch.St.ACTs)
	}
}

func TestFRFCFSPrefersRowHitOverOlderConflict(t *testing.T) {
	c, _ := newCtl(t, 2, dram.Conventional, FRFCFS)
	// Request 0 (older) conflicts with the row request 1 (newer) hits.
	// Open row 7 first via a warmup request.
	warm, err := c.Drain([]Request{{Loc: dram.Loc{Row: 7}, Cols: 1, Consumer: dram.ToHost}})
	if err != nil {
		t.Fatal(err)
	}
	_ = warm
	reqs := []Request{
		{Loc: dram.Loc{Row: 9}, Cols: 1, Consumer: dram.ToHost, Arrival: 0},
		{Loc: dram.Loc{Row: 7}, Cols: 1, Consumer: dram.ToHost, Arrival: 1},
	}
	res, err := c.Drain(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done[1] >= res.Done[0] {
		t.Fatalf("row-hit request should finish first: done = %v", res.Done)
	}
}

func TestDrainParallelBanksOverlap(t *testing.T) {
	// 8 vectors in 8 different bank groups to bank PEs should drain in far
	// less than 8x the single-vector latency.
	single := func() sim.Cycle {
		c, _ := newCtl(t, 2, dram.NMPTwoStage, FRFCFS)
		res, err := c.Drain([]Request{{Loc: dram.Loc{Row: 1}, Cols: 4, Consumer: dram.ToBankPE}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Finish
	}()
	c, _ := newCtl(t, 2, dram.NMPTwoStage, FRFCFS)
	var reqs []Request
	for bg := 0; bg < 8; bg++ {
		reqs = append(reqs, Request{
			Loc: dram.Loc{BG: bg, Row: 1}, Cols: 4, Consumer: dram.ToBankPE,
		})
	}
	res, err := c.Drain(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish > single*2 {
		t.Fatalf("8 parallel vectors took %d, single took %d: not overlapping", res.Finish, single)
	}
}

func TestDrainSerialSameBankRows(t *testing.T) {
	// 4 vectors in different rows of one conventional bank serialize at
	// roughly tRC each.
	c, ch := newCtl(t, 2, dram.NMPTwoStage, FRFCFS)
	var reqs []Request
	for r := 0; r < 4; r++ {
		reqs = append(reqs, Request{
			Loc: dram.Loc{Row: r * 300}, Cols: 1, Consumer: dram.ToBankPE,
		})
	}
	res, err := c.Drain(reqs)
	if err != nil {
		t.Fatal(err)
	}
	tm := ch.Tm
	if res.Finish < 3*tm.TRC {
		t.Fatalf("4 conflicting rows drained in %d, violates tRC serialization (%d)", res.Finish, 3*tm.TRC)
	}
}

func TestSALPDrainBeatsSerialBank(t *testing.T) {
	run := func(salp bool, pol Policy) sim.Cycle {
		c, ch := newCtl(t, 2, dram.NMPTwoStage, pol)
		if salp {
			ch.EnableSALP(0)
		}
		rps := ch.Geo.RowsPerSubarray
		var reqs []Request
		for i := 0; i < 64; i++ {
			// 64 vectors spread over 64 subarrays of bank 0.
			reqs = append(reqs, Request{
				Loc: dram.Loc{Row: i * rps}, Cols: 4, Consumer: dram.ToBankPE,
			})
		}
		res, err := c.Drain(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Finish
	}
	serial := run(false, FRFCFS)
	salp := run(true, LAS)
	speedup := float64(serial) / float64(salp)
	if speedup < 2 {
		t.Fatalf("SALP speedup on one hot bank = %.2f, want >= 2 (serial %d, salp %d)", speedup, serial, salp)
	}
}

func TestArrivalDelaysIssue(t *testing.T) {
	c, _ := newCtl(t, 2, dram.Conventional, FRFCFS)
	res, err := c.Drain([]Request{{
		Loc: dram.Loc{Row: 1}, Cols: 1, Consumer: dram.ToHost, Arrival: 5000,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish < 5000 {
		t.Fatalf("request finished at %d before its arrival 5000", res.Finish)
	}
}

func TestDrainRejectsBadRequests(t *testing.T) {
	c, _ := newCtl(t, 2, dram.Conventional, FRFCFS)
	bad := [][]Request{
		{{Loc: dram.Loc{Rank: 9}, Cols: 1}},
		{{Loc: dram.Loc{}, Cols: 0}},
		{{Loc: dram.Loc{Col: 126}, Cols: 4}}, // crosses the row end
	}
	for i, reqs := range bad {
		if _, err := c.Drain(reqs); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, FRFCFS, 4); err == nil {
		t.Error("nil channel should error")
	}
	ch, _ := dram.NewChannel(dram.DDR5(2), dram.DDR5Timing(), dram.Conventional)
	if _, err := New(ch, FRFCFS, 0); err == nil {
		t.Error("zero window should error")
	}
}

// Property: every drained request completes, completion times are
// consistent, and per-bank RD counts equal requested columns.
func TestDrainAccountingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		c, ch := newCtl(t, 2, dram.NMPTwoStage, FRFCFS)
		geo := ch.Geo
		n := rng.Intn(60) + 1
		reqs := make([]Request, n)
		totalCols := int64(0)
		for i := range reqs {
			cols := rng.Intn(4) + 1
			reqs[i] = Request{
				Loc: dram.Loc{
					Rank: rng.Intn(geo.Ranks),
					BG:   rng.Intn(geo.BankGroups),
					Bank: rng.Intn(geo.Banks),
					Row:  rng.Intn(geo.RowsPerBank()),
					Col:  rng.Intn(geo.ColumnsPerRow() - cols),
				},
				Cols:     cols,
				Consumer: dram.Consumer(rng.Intn(4)),
				Arrival:  sim.Cycle(rng.Intn(100)),
			}
			totalCols += int64(cols)
		}
		res, err := c.Drain(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowHits+res.RowMisses != int64(n) {
			t.Fatalf("hits+misses = %d, want %d", res.RowHits+res.RowMisses, n)
		}
		if ch.St.RDs != totalCols {
			t.Fatalf("RDs = %d, want %d", ch.St.RDs, totalCols)
		}
		for i, d := range res.Done {
			if d <= 0 {
				t.Fatalf("request %d has no completion time", i)
			}
			if d > res.Finish {
				t.Fatalf("request %d done %d after finish %d", i, d, res.Finish)
			}
			if d < reqs[i].Arrival {
				t.Fatalf("request %d done %d before arrival %d", i, d, reqs[i].Arrival)
			}
		}
	}
}

func BenchmarkDrain1kVectors(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	geo := dram.DDR5(2)
	reqs := make([]Request, 1000)
	for i := range reqs {
		reqs[i] = Request{
			Loc: dram.Loc{
				Rank: rng.Intn(geo.Ranks),
				BG:   rng.Intn(geo.BankGroups),
				Bank: rng.Intn(geo.Banks),
				Row:  rng.Intn(geo.RowsPerBank()),
			},
			Cols:     4,
			Consumer: dram.ToBankPE,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, _ := dram.NewChannel(geo, dram.DDR5Timing(), dram.NMPTwoStage)
		c, _ := New(ch, FRFCFS, DefaultWindow)
		if _, err := c.Drain(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWriteBatchingReducesTurnarounds(t *testing.T) {
	// Writes trickle in between reads (staggered arrivals): the eager
	// policy issues each on arrival, paying a read/write turnaround every
	// time; the watermark policy accumulates them into bursts. (When all
	// requests are available at once, the greedy earliest-first pick
	// clusters writes by itself and the policies converge.)
	build := func() []Request {
		var reqs []Request
		rng := rand.New(rand.NewSource(5))
		geo := dram.DDR5(2)
		for i := 0; i < 200; i++ {
			reqs = append(reqs, Request{
				Loc: dram.Loc{
					Rank: rng.Intn(geo.Ranks), BG: rng.Intn(geo.BankGroups),
					Bank: rng.Intn(geo.Banks), Row: rng.Intn(geo.RowsPerBank()),
				},
				Cols:     4,
				Consumer: dram.ToHost,
				Write:    i%3 == 0, // writes interleaved with reads
				Arrival:  sim.Cycle(i) * 30,
			})
		}
		return reqs
	}
	run := func(hi int) sim.Cycle {
		ch, _ := dram.NewChannel(dram.DDR5(2), dram.DDR5Timing(), dram.Conventional)
		c, _ := New(ch, FRFCFS, DefaultWindow)
		c.WriteHighWatermark = hi
		res, err := c.Drain(build())
		if err != nil {
			t.Fatal(err)
		}
		return res.Finish
	}
	eager := run(1)    // writes interleave whenever ready
	batched := run(16) // watermark draining
	if batched >= eager {
		t.Fatalf("write batching did not help: batched %d vs eager %d", batched, eager)
	}
}

func TestWriteOnlyWorkloadStillDrains(t *testing.T) {
	// With nothing but writes, the deferral must not deadlock.
	ch, _ := dram.NewChannel(dram.DDR5(2), dram.DDR5Timing(), dram.Conventional)
	c, _ := New(ch, FRFCFS, DefaultWindow)
	var reqs []Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, Request{
			Loc: dram.Loc{Bank: i % 4, Row: i}, Cols: 2, Write: true,
		})
	}
	res, err := c.Drain(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if ch.St.WRs != 20 {
		t.Fatalf("WR bursts = %d, want 20", ch.St.WRs)
	}
	if res.Finish <= 0 {
		t.Fatal("no finish time")
	}
}
