package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"recross/internal/arch"
	"recross/internal/core"
	"recross/internal/partition"
	"recross/internal/trace"
)

func TestConfigs(t *testing.T) {
	if err := Paper().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Quick().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Quick()
	bad.Batch = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero batch should fail validation")
	}
}

func TestMeasureArchesBuildsAllSix(t *testing.T) {
	stats, err := kaggle(Quick()).measureArches()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 6 {
		t.Fatalf("measured %d systems, want 6", len(stats))
	}
	for _, name := range ArchNames {
		if rs := stats[name]; rs == nil || rs.Cycles <= 0 {
			t.Fatalf("no stats for %s", name)
		}
	}
	sp, err := Speedups(stats, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if sp["cpu"] != 1 {
		t.Fatalf("cpu speedup over itself = %f", sp["cpu"])
	}
	if _, err := Speedups(stats, "nope"); err == nil {
		t.Fatal("unknown base should error")
	}
}

// TestNewSystemProfilesOnlyWhenNeeded: only TRiM-B and ReCross ask for a
// profile, and a ReCross given a profile or a placement asks for none.
func TestNewSystemProfilesOnlyWhenNeeded(t *testing.T) {
	h := kaggle(Quick())
	prof, err := h.profile()
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	profile := func() (*partition.Profile, error) { calls++; return prof, nil }
	rc := core.DefaultConfig(h.spec)
	rc.ProfileSamples = Quick().ProfileSamples
	build := func(name string, rc core.Config, want int) arch.System {
		t.Helper()
		calls = 0
		s, err := NewSystem(name, rc, profile)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if calls != want {
			t.Errorf("%s asked for %d profiles, want %d", name, calls, want)
		}
		return s
	}
	for _, name := range append(slices.Clone(ArchNames), "rank-nmp", "fafnir", "bank-nmp") {
		want := 0
		if name == "trim-b" || name == "recross" {
			want = 1
		}
		build(name, rc, want)
	}
	given := rc
	given.Profile = prof
	build("trim-b", given, 0)
	planned := rc
	planned.Placement = build("recross", given, 0).(*core.ReCross).Placement()
	build("recross", planned, 0)
}

// num is tb's numeric cell at row r, column c. A missing cell or a label
// fails the test, so no assertion can pass on a value it never read.
func num(t *testing.T, tb *Table, r, c int) float64 {
	t.Helper()
	if r >= len(tb.Rows) || c >= len(tb.Rows[r]) {
		t.Fatalf("%s: no cell at row %d, column %d", tb.Title, r, c)
	}
	n, ok := tb.Rows[r][c].(Num)
	if !ok {
		t.Fatalf("%s: cell at row %d, column %d is %q, not a number", tb.Title, r, c, tb.Rows[r][c])
	}
	return n.V
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Note: "n", Cols: []string{"a", "bbbb"}}
	tb.AddRow("1", f2(2))
	out := tb.String()
	for _, want := range []string{"== T ==", "n", "a", "bbbb", "1", "2.00", "----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFig3CurvesAreSkewedAndMonotone(t *testing.T) {
	tb := quick[*Table](t, "fig3")
	if len(tb.Rows) != 26 {
		t.Fatalf("Fig3 rows = %d, want 26", len(tb.Rows))
	}
	for i, r := range tb.Rows {
		prev := 0.0
		for c := 2; c < len(tb.Cols); c++ {
			v := num(t, tb, i, c)
			if v < prev-1e-9 || v < 0 || v > 1 {
				t.Fatalf("coverage not monotone in [0,1]: %v", r)
			}
			prev = v
		}
	}
}

func TestFig4ImbalanceGrowsWithGranularity(t *testing.T) {
	tb := quick[*Table](t, "fig4")
	if len(tb.Rows) != 3 {
		t.Fatalf("Fig4 rows = %d, want 3 rank configs", len(tb.Rows))
	}
	for i, r := range tb.Rows {
		rank, bg, bank := num(t, tb, i, 1), num(t, tb, i, 2), num(t, tb, i, 3)
		// The paper's Observation 1: finer granularity, worse imbalance.
		if !(rank <= bg && bg <= bank) {
			t.Fatalf("imbalance not increasing with granularity: %v", r)
		}
		if rank < 1 {
			t.Fatalf("imbalance below 1: %v", r)
		}
	}
}

func TestFig5BandwidthOutpacesSpeedup(t *testing.T) {
	tb := quick[*Table](t, "fig5")
	if len(tb.Rows) != 9 {
		t.Fatalf("Fig5 rows = %d, want 9", len(tb.Rows))
	}
	// Paper's Observation 2: at fixed ranks, internal bandwidth scales far
	// faster than speedup from bank-group to bank level.
	var bgSp, bankSp, bgBW, bankBW float64
	found := 0
	for i, r := range tb.Rows {
		if num(t, tb, i, 0) != 2 {
			continue
		}
		sp, bw := num(t, tb, i, 2), num(t, tb, i, 3)
		switch r[1] {
		case "bankgroup":
			bgSp, bgBW = sp, bw
			found++
		case "bank":
			bankSp, bankBW = sp, bw
			found++
		}
	}
	if found != 2 || bgSp <= 0 || bgBW <= 0 {
		t.Fatalf("found %d of the 2-rank bankgroup and bank rows (speedup %v, bandwidth %v)", found, bgSp, bgBW)
	}
	if bankBW/bgBW < 3.9 {
		t.Fatalf("bank/bankgroup bandwidth ratio = %.1f, want 4", bankBW/bgBW)
	}
	if bankSp/bgSp > 2 {
		t.Fatalf("bank-level speedup %.2fx over bank-group exceeds plausible range", bankSp/bgSp)
	}
}

func TestFig6TimelineShowsSALPOverlap(t *testing.T) {
	out := quick[string](t, "fig6")
	for _, want := range []string{"(a)", "(b)", "(c)", "ACT", "RD", "subarray"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q", want)
		}
	}
	// Extract the three finish cycles; SALP (c) must finish first.
	var finishes []int
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "finished at cycle "); i >= 0 {
			v, err := strconv.Atoi(strings.TrimSpace(line[i+len("finished at cycle "):]))
			if err != nil {
				t.Fatal(err)
			}
			finishes = append(finishes, v)
		}
	}
	if len(finishes) != 3 {
		t.Fatalf("want 3 scenarios, got %d", len(finishes))
	}
	if !(finishes[2] < finishes[1] && finishes[1] <= finishes[0]) {
		t.Fatalf("scenario finishes not improving: %v", finishes)
	}
}

func TestFig12AblationImproves(t *testing.T) {
	tb := quick[*Table](t, "fig12")
	if len(tb.Rows) != 4 {
		t.Fatalf("Fig12 rows = %d, want 4", len(tb.Rows))
	}
	base, full := num(t, tb, 0, 1), num(t, tb, 3, 1)
	if base <= 0 || full <= base {
		t.Fatalf("full ReCross (%.2f) not faster than Base (%.2f)", full, base)
	}
}

func TestFig13IncludesNoBWP(t *testing.T) {
	tb := quick[*Table](t, "fig13")
	if len(tb.Rows) != 7 {
		t.Fatalf("Fig13 rows = %d, want 6 archs + recross-noBWP", len(tb.Rows))
	}
	if tb.Rows[6][0] != "recross-noBWP" {
		t.Fatalf("last row = %v", tb.Rows[6])
	}
	for i := range tb.Rows {
		if v := num(t, tb, i, 1); v < 1 {
			t.Fatalf("imbalance below 1: %v", tb.Rows[i])
		}
	}
}

func TestFig15EnergyAndTable3(t *testing.T) {
	tb := quick[*Table](t, "fig15")
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig15 rows = %d, want 6", len(tb.Rows))
	}
	for i, r := range tb.Rows {
		if total := num(t, tb, i, 7); total <= 0 {
			t.Fatalf("bad energy total in %v", r)
		}
	}
	t3 := Table3()
	if len(t3.Rows) != 5 {
		t.Fatalf("Table3 rows = %d, want 5", len(t3.Rows))
	}
}

func TestSweepsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps in short mode")
	}
	t10 := quick[*Table](t, "fig10")
	if len(t10.Rows) != 4 {
		t.Fatalf("quick Fig10 rows = %d, want 4", len(t10.Rows))
	}
	t11 := quick[*Table](t, "fig11")
	if len(t11.Rows) != 3 {
		t.Fatalf("Fig11 rows = %d, want 3", len(t11.Rows))
	}
	// Every speedup cell parses and is positive; CPU column is 1.00.
	for i, r := range t11.Rows {
		for j, a := range ArchNames {
			v := num(t, t11, i, j+1)
			if v <= 0 {
				t.Fatalf("bad speedup %v in %v", v, r)
			}
			if a == "cpu" && v != 1 {
				t.Fatalf("cpu speedup %v != 1", v)
			}
		}
	}
}

func TestFig14Configs(t *testing.T) {
	if testing.Short() {
		t.Skip("config exploration in short mode")
	}
	tb := quick[*Table](t, "fig14")
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig14 rows = %d, want 6", len(tb.Rows))
	}
	// Area must increase from d to c5.
	first, last := num(t, tb, 0, 2), num(t, tb, 5, 2)
	if first <= 0 || last <= first {
		t.Fatalf("c5 area (%.2f) not larger than d (%.2f)", last, first)
	}
}

// TestExperimentsScheduleIndependent: sweep points and the architectures
// of a point run concurrently, each on its own systems, so two runs of
// the same figure must render byte-identical tables — and under -race
// this is the experiment loops' thread-safety proof.
func TestExperimentsScheduleIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("two full sweeps in short mode")
	}
	a := quick[*Table](t, "fig9")
	b, err := Fig9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("two Fig9(Quick()) runs differ:\n%s\n%s", a, b)
	}
}

// TestEachLowestIndexError: whichever goroutine fails first, the error
// reported is the lowest index's, and every index still runs.
func TestEachLowestIndexError(t *testing.T) {
	var ran atomic.Int64
	err := each(8, func(i int) error {
		ran.Add(1)
		if i == 2 || i == 6 {
			return fmt.Errorf("point %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "point 2" || ran.Load() != 8 {
		t.Errorf("each = %v after %d calls, want point 2 after 8", err, ran.Load())
	}
	if err := each(0, nil); err != nil {
		t.Errorf("each(0) = %v", err)
	}
}

func TestExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extension studies in short mode")
	}
	refresh := quick[*Table](t, "ext-refresh")
	if len(refresh.Rows) != 2 {
		t.Fatalf("ExtRefresh rows = %d", len(refresh.Rows))
	}
	for i, r := range refresh.Rows {
		plain, refreshed := num(t, refresh, i, 1), num(t, refresh, i, 2)
		if plain <= 0 || refreshed < plain {
			t.Fatalf("refresh made %s faster: %v", r[0], r)
		}
	}
	channels := quick[*Table](t, "ext-channels")
	if len(channels.Rows) != 2 {
		t.Fatalf("ExtChannels rows = %d", len(channels.Rows))
	}
	for i, r := range channels.Rows {
		if sp := num(t, channels, i, 4); sp < 1.5 {
			t.Fatalf("4-channel speedup for %s only %.2f", r[0], sp)
		}
	}
	subs := quick[*Table](t, "ext-subarrays")
	c16, c256 := num(t, subs, 0, 1), num(t, subs, 2, 1)
	if c256 <= 0 || c256 > c16 {
		t.Fatalf("more subarrays slower: 16->%v 256->%v", c16, c256)
	}
	training := quick[*Table](t, "ext-training")
	if len(training.Rows) != 2 {
		t.Fatal("ExtTraining shape wrong")
	}
	lat := quick[*Table](t, "ext-latency")
	if len(lat.Rows) != len(ArchNames) {
		t.Fatalf("ExtLatency rows = %d", len(lat.Rows))
	}
	for i, r := range lat.Rows {
		p50, p99 := num(t, lat, i, 1), num(t, lat, i, 2)
		if p99 < p50 || p50 <= 0 {
			t.Fatalf("latency percentiles implausible: %v", r)
		}
	}
}

// TestExtTrainingUsesProfileSeed: the extension studies profile from
// cfg.ProfileSeed like the paper's figures, so ExtTraining's cycles are
// those of a ReCross built and profiled with that seed.
func TestExtTrainingUsesProfileSeed(t *testing.T) {
	cfg := Quick()
	cfg.ProfileSeed = 4242
	tb, err := ExtTraining(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := trace.CriteoKaggle(cfg.VecLen, cfg.Pooling)
	rcfg := core.DefaultConfig(spec)
	rcfg.Ranks, rcfg.Batch = cfg.Ranks, cfg.Batch
	rcfg.Seed, rcfg.ProfileSamples = cfg.ProfileSeed, cfg.ProfileSamples
	rc, err := core.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewGenerator(spec, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Batch(cfg.Batch)
	inf, err := rc.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rc.RunTraining(b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := num(t, tb, 0, 1), float64(inf.Cycles); got != want {
		t.Errorf("inference cycles %v, want %v from a ReCross profiled with seed %d", got, want, cfg.ProfileSeed)
	}
	if got, want := num(t, tb, 1, 1), float64(tr.Cycles); got != want {
		t.Errorf("training cycles %v, want %v from a ReCross profiled with seed %d", got, want, cfg.ProfileSeed)
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Cols: []string{"a", "b"}}
	tb.AddRow(count(1), "x,y")
	tb.AddRow(pct(12.5), `q"r`)
	got := tb.CSV()
	want := "a,b\n1,\"x,y\"\n12.5%,\"q\"\"r\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestSelect(t *testing.T) {
	names := func(es []Experiment) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.Name)
		}
		return out
	}
	var paper, ext []string
	for _, e := range Experiments {
		if e.Paper {
			paper = append(paper, e.Name)
		} else {
			ext = append(ext, e.Name)
		}
	}
	for _, tc := range []struct {
		args    []string
		want    []string // nil: an error containing errWant
		errWant string
	}{
		{nil, paper, ""},
		{[]string{"ext"}, ext, ""},
		{[]string{"all"}, names(Experiments), ""},
		{[]string{"table3", "fig9", "ext-ddr4"}, []string{"table3", "fig9", "ext-ddr4"}, ""},
		{[]string{"fig9", "fig99"}, nil, `unknown experiment "fig99"`},
		{[]string{"all", "fig9"}, nil, `"all" must be the only argument`},
		{[]string{"fig9", "ext"}, nil, `"ext" must be the only argument`},
		{[]string{"all", "-csv", "out"}, nil, `"all" must be the only argument`},
		{[]string{"fig9", "-csv", "out"}, nil, `"-csv" is not an experiment: flags go before experiment names`},
	} {
		got, err := Select(tc.args)
		switch {
		case tc.want == nil && (err == nil || !strings.Contains(err.Error(), tc.errWant)):
			t.Errorf("Select(%q) = %v, want an error containing %q", tc.args, err, tc.errWant)
		case tc.want != nil && (err != nil || !slices.Equal(names(got), tc.want)):
			t.Errorf("Select(%q) = %v, %v; want %v", tc.args, names(got), err, tc.want)
		}
	}
}
