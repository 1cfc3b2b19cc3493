package memctrl

import (
	"math/rand"
	"reflect"
	"testing"

	"recross/internal/dram"
	"recross/internal/sim"
)

// The differential guard: the fast arbiter (Controller.Drain) must be
// bit-identical to the Reference scan scheduler — same Result (Done,
// Finish, RowHits, RowMisses, OpLatency) and same dram.Stats — across
// policies, SALP on/off, instruction modes, writes, op windows, inflight
// limits and write watermarks. Any divergence is a bug in the fast path by
// definition.

// diffScenario is one fuzzed configuration point.
type diffScenario struct {
	geo      dram.Geometry
	tm       dram.Timing
	mode     dram.InstrMode
	policy   Policy
	window   int
	inflight int
	opWindow int
	hiWM     int
	loWM     int
	salp     []int // flat banks to enable SALP on
	reqs     []Request
}

// smallGeo draws a small geometry, so bank queues actually collide.
func smallGeo(rng *rand.Rand) dram.Geometry {
	return dram.Geometry{
		Ranks:           1 + rng.Intn(2),
		BankGroups:      1 + rng.Intn(3),
		Banks:           1 + rng.Intn(2),
		Subarrays:       4,
		RowsPerSubarray: 8,
		RowBytes:        512,
		BurstBytes:      64,
	}
}

// genScenario draws a random scenario of n requests on geo. Rows are drawn
// from a hot set so row hits, conflicts and SALP lookaheads all occur.
// Arrivals start at a random base (negative or far from zero included),
// and without an op window the op tags may come in any order. One
// scenario in 50 spans exactly maxArrivalSpan cycles, which both
// schedulers must reject with the same error.
func genScenario(rng *rand.Rand, geo dram.Geometry, n int) diffScenario {
	tm := dram.DDR5Timing()
	if rng.Intn(3) == 0 {
		tm = tm.WithRefresh()
	}
	modes := []dram.InstrMode{dram.Conventional, dram.NMPTwoStage, dram.NMPCAOnly}
	sc := diffScenario{
		geo:    geo,
		tm:     tm,
		mode:   modes[rng.Intn(len(modes))],
		policy: Policy(rng.Intn(2)),
		window: 1 + rng.Intn(8),
	}
	switch rng.Intn(3) {
	case 0:
		sc.inflight = 0 // default
	case 1:
		sc.inflight = 2 + rng.Intn(6)
	default:
		sc.inflight = 16 + rng.Intn(48)
	}
	if rng.Intn(2) == 0 {
		sc.opWindow = 1 + rng.Intn(3)
	}
	switch rng.Intn(3) {
	case 1:
		sc.hiWM, sc.loWM = 1, 0 // eager writes
	case 2:
		sc.hiWM, sc.loWM = 3+rng.Intn(6), 1
	}
	for fb := 0; fb < geo.TotalBanks(); fb++ {
		if rng.Intn(2) == 0 {
			sc.salp = append(sc.salp, fb)
		}
	}

	cols := geo.ColumnsPerRow()
	hotRows := make([]int, 4)
	for i := range hotRows {
		hotRows[i] = rng.Intn(geo.RowsPerBank())
	}
	writeP := rng.Intn(3) // 0: none, 1: some, 2: write-heavy
	unordered := sc.opWindow == 0 && rng.Intn(2) == 0
	var arrival sim.Cycle
	switch rng.Intn(4) {
	case 1:
		arrival = sim.Cycle(rng.Intn(2001) - 1000)
	case 2:
		arrival = sim.Cycle(rng.Int63n(1<<42) - 1<<41)
	}
	var op int32
	for i := 0; i < n; i++ {
		row := hotRows[rng.Intn(len(hotRows))]
		if rng.Intn(4) == 0 {
			row = rng.Intn(geo.RowsPerBank())
		}
		col := rng.Intn(cols)
		c := min(1+rng.Intn(cols-col), 8)
		if unordered {
			op = int32(rng.Intn(12) - 4)
		}
		r := Request{
			Loc: dram.Loc{
				Rank: rng.Intn(geo.Ranks),
				BG:   rng.Intn(geo.BankGroups),
				Bank: rng.Intn(geo.Banks),
				Row:  row,
				Col:  col,
			},
			Cols:     c,
			Consumer: dram.Consumer(rng.Intn(4)),
			Write:    writeP > 0 && rng.Intn(3) < writeP,
			Arrival:  arrival,
			Op:       op,
		}
		sc.reqs = append(sc.reqs, r)
		arrival += sim.Cycle(rng.Intn(8))
		if rng.Intn(3) == 0 {
			op += int32(1 + rng.Intn(3)) // op-tag gaps exercise watermark skips
		}
	}
	if n > 1 && rng.Intn(50) == 0 {
		sc.reqs[n-1].Arrival = sc.reqs[0].Arrival + maxArrivalSpan
	}
	return sc
}

// runScenario drains sc's requests through a fresh channel with the given
// scheduler kind ("fast" or "ref") and returns the result, stats and error.
func runScenario(t testing.TB, sc *diffScenario, fast bool) (Result, dram.Stats, error) {
	t.Helper()
	ch, err := dram.NewChannel(sc.geo, sc.tm, sc.mode)
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	for _, fb := range sc.salp {
		ch.EnableSALP(fb)
	}
	cfg := func(c *Controller) {
		c.InflightLimit = sc.inflight
		c.OpWindowLimit = sc.opWindow
		c.WriteHighWatermark = sc.hiWM
		c.WriteLowWatermark = sc.loWM
	}
	var res Result
	if fast {
		c, err := New(ch, sc.policy, sc.window)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		cfg(c)
		res, err = c.Drain(sc.reqs)
		return res, ch.St, err
	}
	r, err := NewReference(ch, sc.policy, sc.window)
	if err != nil {
		t.Fatalf("NewReference: %v", err)
	}
	cfg(&r.Controller)
	res, err = r.Drain(sc.reqs)
	return res, ch.St, err
}

func checkIdentical(t *testing.T, sc *diffScenario, seed int64) {
	t.Helper()
	ref, refSt, refErr := runScenario(t, sc, false)
	got, gotSt, gotErr := runScenario(t, sc, true)
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("seed %d: error divergence: ref=%v fast=%v", seed, refErr, gotErr)
	}
	if refErr != nil {
		if refErr.Error() != gotErr.Error() {
			t.Fatalf("seed %d: error text divergence: ref=%q fast=%q", seed, refErr, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("seed %d: Result divergence:\nref:  %+v\nfast: %+v\n(policy=%v window=%d inflight=%d opwin=%d wm=%d/%d salp=%d reqs=%d)",
			seed, ref, got, sc.policy, sc.window, sc.inflight, sc.opWindow,
			sc.hiWM, sc.loWM, len(sc.salp), len(sc.reqs))
	}
	if !reflect.DeepEqual(refSt, gotSt) {
		t.Fatalf("seed %d: dram.Stats divergence:\nref:  %+v\nfast: %+v", seed, refSt, gotSt)
	}
}

// TestDifferentialFuzz is the bit-identity guard. 400 random scenarios
// cover both policies, the three instruction modes, SALP subsets, write
// mixes, op windows and watermark settings.
func TestDifferentialFuzz(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for seed := int64(0); seed < int64(iters); seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := genScenario(rng, smallGeo(rng), 1+rng.Intn(150))
		checkIdentical(t, &sc, seed)
	}
}

// TestDifferentialFuzzDDR5: the same guard on the production channel —
// DDR5 with 2 ranks (64 banks) — with 1–1.5 k requests behind the default
// 64-entry queue, so admission backpressure and deep bank queues occur.
func TestDifferentialFuzzDDR5(t *testing.T) {
	iters := 6
	if testing.Short() {
		iters = 2
	}
	for seed := int64(0); seed < int64(iters); seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		sc := genScenario(rng, dram.DDR5(2), 1000+rng.Intn(500))
		sc.inflight = 0
		checkIdentical(t, &sc, 1000+seed)
	}
}

// FuzzDrainDifferential is the same guard as a native fuzz target: the
// input seeds genScenario, sizes the request list and picks a small
// geometry or the production DDR5 channel.
func FuzzDrainDifferential(f *testing.F) {
	f.Add(int64(0), uint16(40), false)
	f.Add(int64(1000), uint16(1200), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, ddr5 bool) {
		rng := rand.New(rand.NewSource(seed))
		geo := smallGeo(rng)
		if ddr5 {
			geo = dram.DDR5(2)
		}
		sc := genScenario(rng, geo, 1+int(n)%2000)
		checkIdentical(t, &sc, seed)
	})
}

// TestWriteDrainRekeys: a write-back phase costs O(1) re-keys per command.
// As in online training, the last third of the list writes after every
// gather. Each WR moves the channel-DQ floor every pending write waits on;
// writes bounded by that floor wait in the ready heap instead of being
// re-keyed one by one after every WR.
func TestWriteDrainRekeys(t *testing.T) {
	ch, err := dram.NewChannel(dram.DDR5(2), dram.DDR5Timing(), dram.NMPTwoStage)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ch, LAS, DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	c.OpWindowLimit = 4
	reqs := benchReqs(4096)
	for i := range reqs {
		reqs[i].Write = i >= len(reqs)*2/3
	}
	if _, err := c.Drain(reqs); err != nil {
		t.Fatal(err)
	}
	cmds := ch.St.ACTs + ch.St.RDs + ch.St.WRs
	if ch.St.WRs == 0 || c.rekeys > cmds {
		t.Fatalf("%d re-keys for %d commands (%d WRs), want at most one per command", c.rekeys, cmds, ch.St.WRs)
	}
}

// TestArrivalSpanLimit pins the packed-key bound: arrivals spanning one
// cycle less than maxArrivalSpan drain identically on both schedulers, and
// a span of maxArrivalSpan is rejected by both with the same error.
func TestArrivalSpanLimit(t *testing.T) {
	for _, span := range []sim.Cycle{maxArrivalSpan - 1, maxArrivalSpan} {
		sc := diffScenario{
			geo: dram.DDR5(1), tm: dram.DDR5Timing(), mode: dram.NMPTwoStage,
			policy: LAS, window: DefaultWindow,
			reqs: []Request{
				{Loc: dram.Loc{Row: 1}, Cols: 2, Arrival: -7},
				{Loc: dram.Loc{Row: 2}, Cols: 2, Arrival: -7 + span},
			},
		}
		_, _, err := runScenario(t, &sc, true)
		if (err != nil) != (span == maxArrivalSpan) {
			t.Fatalf("span %d: err %v", span, err)
		}
		checkIdentical(t, &sc, int64(span))
	}
}

// TestValidateBankLimit: a channel with maxBanks banks is rejected before
// any request is looked at (the packed key has 20 bank bits). Both
// schedulers share validate, so both reject it.
func TestValidateBankLimit(t *testing.T) {
	geo := dram.DDR5(1)
	geo.BankGroups, geo.Banks = 1024, 1024
	c := &Controller{ch: &dram.Channel{Geo: geo}}
	if err := c.validate([]Request{{Cols: 1}}); err == nil {
		t.Fatalf("%d banks accepted", geo.TotalBanks())
	}
	geo.Banks = 1023
	c.ch.Geo = geo
	if err := c.validate([]Request{{Cols: 1}}); err != nil {
		t.Fatalf("%d banks rejected: %v", geo.TotalBanks(), err)
	}
}

// TestDifferentialScratchReuse drains several scenarios through ONE fast
// controller and channel (Reset between runs), verifying the reused
// scratch (bank queues, node pool, heaps, op slices) leaks no state across
// Drain calls.
func TestDifferentialScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	geo := dram.DDR5(1)
	ch, err := dram.NewChannel(geo, dram.DDR5Timing(), dram.NMPTwoStage)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ch, LAS, DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		sc := genScenario(rng, smallGeo(rng), 1+rng.Intn(150))
		sc.geo = geo
		sc.mode = dram.NMPTwoStage
		sc.tm = dram.DDR5Timing()
		sc.salp = nil
		// Regenerate request locations for the fixed geometry.
		for i := range sc.reqs {
			sc.reqs[i].Loc.Rank = rng.Intn(geo.Ranks)
			sc.reqs[i].Loc.BG = rng.Intn(geo.BankGroups)
			sc.reqs[i].Loc.Bank = rng.Intn(geo.Banks)
			sc.reqs[i].Loc.Row = rng.Intn(geo.RowsPerBank())
			sc.reqs[i].Loc.Col = 0
			if sc.reqs[i].Cols > geo.ColumnsPerRow() {
				sc.reqs[i].Cols = geo.ColumnsPerRow()
			}
		}
		ref, refSt, refErr := runScenario(t, &sc, false)

		ch.Reset()
		c.InflightLimit = sc.inflight
		c.OpWindowLimit = sc.opWindow
		c.WriteHighWatermark = sc.hiWM
		c.WriteLowWatermark = sc.loWM
		c.policy = sc.policy
		c.window = sc.window
		got, gotErr := c.Drain(sc.reqs)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error divergence: ref=%v fast=%v", trial, refErr, gotErr)
		}
		if refErr != nil {
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("trial %d: Result divergence with reused controller:\nref:  %+v\nfast: %+v", trial, ref, got)
		}
		if !reflect.DeepEqual(refSt, ch.St) {
			t.Fatalf("trial %d: dram.Stats divergence with reused controller", trial)
		}
	}
}

// --- Edge cases the fuzzer relies on, pinned as explicit regressions. ---

// TestOpWindowGapAtWatermark: op tags with gaps (0, 2, 5) force the
// watermark advance to skip op numbers that have zero requests. With
// OpWindowLimit=1 the drain serializes per op; the missing tags must not
// wedge admission.
func TestOpWindowGapAtWatermark(t *testing.T) {
	geo := dram.DDR5(1)
	sc := diffScenario{
		geo: geo, tm: dram.DDR5Timing(), mode: dram.NMPTwoStage,
		policy: LAS, window: DefaultWindow, opWindow: 1,
	}
	for i, op := range []int32{0, 0, 2, 2, 5} {
		sc.reqs = append(sc.reqs, Request{
			Loc:      dram.Loc{Bank: i % geo.Banks, Row: i},
			Cols:     2,
			Consumer: dram.ToBankPE,
			Op:       op,
		})
	}
	ref, _, refErr := runScenario(t, &sc, false)
	if refErr != nil {
		t.Fatalf("reference drain failed: %v", refErr)
	}
	if len(ref.OpLatency) != 3 {
		t.Fatalf("want 3 op latencies, got %d", len(ref.OpLatency))
	}
	checkIdentical(t, &sc, -1)
}

// TestWriteHysteresisBurstCrossing: a completion admits a burst of writes
// that crosses the high watermark in one admission loop, and the drain
// then crosses the low watermark while further completions re-admit more
// writes. hi=4, lo=1 with 12 writes behind 2 reads and InflightLimit=4
// walks the hysteresis both ways repeatedly.
func TestWriteHysteresisBurstCrossing(t *testing.T) {
	geo := dram.DDR5(1)
	sc := diffScenario{
		geo: geo, tm: dram.DDR5Timing(), mode: dram.Conventional,
		policy: FRFCFS, window: DefaultWindow,
		inflight: 4, hiWM: 4, loWM: 1,
	}
	for i := 0; i < 2; i++ {
		sc.reqs = append(sc.reqs, Request{
			Loc: dram.Loc{Bank: i, Row: 1}, Cols: 1, Consumer: dram.ToHost,
		})
	}
	for i := 0; i < 12; i++ {
		sc.reqs = append(sc.reqs, Request{
			Loc:   dram.Loc{BG: i % geo.BankGroups, Row: 2 + i},
			Cols:  1,
			Write: true,
		})
	}
	ref, _, refErr := runScenario(t, &sc, false)
	if refErr != nil {
		t.Fatalf("reference drain failed: %v", refErr)
	}
	if int(ref.RowHits+ref.RowMisses) != len(sc.reqs) {
		t.Fatalf("accounting: hits+misses=%d want %d", ref.RowHits+ref.RowMisses, len(sc.reqs))
	}
	checkIdentical(t, &sc, -2)
}

// TestSALPLookaheadInvalidatedByDeletion: a SALP bank where the lookahead
// ACT candidate sits behind a streaming row-hit; when the row-hit request
// completes and is deleted from the queue, the cached lookahead position
// must be invalidated, not reused against the shifted queue.
func TestSALPLookaheadInvalidatedByDeletion(t *testing.T) {
	geo := dram.DDR5(1)
	sc := diffScenario{
		geo: geo, tm: dram.DDR5Timing(), mode: dram.NMPTwoStage,
		policy: LAS, window: DefaultWindow,
		salp: []int{0},
	}
	rps := geo.RowsPerSubarray
	// Bank 0 (SALP): a long row-hit stream in subarray 0, then two
	// requests in other subarrays that become lookahead ACT candidates.
	sc.reqs = append(sc.reqs,
		Request{Loc: dram.Loc{Row: 0}, Cols: 6, Consumer: dram.ToBankPE},
		Request{Loc: dram.Loc{Row: rps}, Cols: 2, Consumer: dram.ToBankPE},
		Request{Loc: dram.Loc{Row: 2 * rps}, Cols: 2, Consumer: dram.ToBankPE},
	)
	ref, refSt, refErr := runScenario(t, &sc, false)
	if refErr != nil {
		t.Fatalf("reference drain failed: %v", refErr)
	}
	if refSt.SubarraySwitch == 0 {
		t.Fatalf("scenario does not exercise SALP (no subarray switches)")
	}
	_ = ref
	checkIdentical(t, &sc, -3)
}

// --- Benchmarks: fast arbiter vs reference scan on the same workload. ---

func benchReqs(n int) []Request {
	rng := rand.New(rand.NewSource(1))
	geo := dram.DDR5(2)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Loc: dram.Loc{
				Rank: rng.Intn(geo.Ranks),
				BG:   rng.Intn(geo.BankGroups),
				Bank: rng.Intn(geo.Banks),
				Row:  rng.Intn(64), // hot rows: realistic hit mix
			},
			Cols:     8,
			Consumer: dram.ToBankPE,
			Arrival:  sim.Cycle(i),
			Op:       int32(i / 16),
		}
	}
	return reqs
}

func BenchmarkDrainFast4k(b *testing.B) {
	geo := dram.DDR5(2)
	reqs := benchReqs(4096)
	ch, _ := dram.NewChannel(geo, dram.DDR5Timing(), dram.NMPTwoStage)
	c, _ := New(ch, LAS, DefaultWindow)
	c.OpWindowLimit = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Reset()
		if _, err := c.Drain(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDrainReference4k(b *testing.B) {
	geo := dram.DDR5(2)
	reqs := benchReqs(4096)
	ch, _ := dram.NewChannel(geo, dram.DDR5Timing(), dram.NMPTwoStage)
	r, _ := NewReference(ch, LAS, DefaultWindow)
	r.OpWindowLimit = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Reset()
		if _, err := r.Drain(reqs); err != nil {
			b.Fatal(err)
		}
	}
}
