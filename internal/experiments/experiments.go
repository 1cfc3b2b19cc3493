// Package experiments reproduces every table and figure of the paper's
// evaluation (§5): one runner per experiment, shared by the recross-bench
// command and the repository's benchmark suite. Each runner returns a
// plain-text Table whose rows mirror what the paper plots, so EXPERIMENTS.md
// can record paper-vs-measured side by side.
package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"

	"recross/internal/arch"
	"recross/internal/baseline"
	"recross/internal/core"
	"recross/internal/partition"
	"recross/internal/trace"
)

// Config scales the experiment suite. Paper() is full fidelity; Quick()
// shrinks the workload so the whole suite runs in seconds (used by unit
// tests and the Go benchmarks, where per-iteration cost matters).
type Config struct {
	VecLen         int
	Pooling        int
	Batch          int
	Ranks          int
	Seed           int64 // measured-trace seed
	ProfileSeed    int64 // offline profiling seed (training data)
	ProfileSamples int
}

// Paper returns the evaluation defaults of §5.1: vector length 64, 80
// vectors per operation, batch 32, 2 ranks.
func Paper() Config {
	return Config{
		VecLen:         64,
		Pooling:        80,
		Batch:          32,
		Ranks:          2,
		Seed:           777,
		ProfileSeed:    12345,
		ProfileSamples: 2000,
	}
}

// Quick returns a scaled-down configuration for tests and benchmarks.
func Quick() Config {
	c := Paper()
	c.Pooling = 8
	c.Batch = 4
	c.ProfileSamples = 300
	return c
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.VecLen <= 0 || c.Pooling <= 0 || c.Batch <= 0 || c.Ranks <= 0:
		return fmt.Errorf("experiments: non-positive workload dimension")
	case c.ProfileSamples <= 0:
		return fmt.Errorf("experiments: non-positive profile samples")
	}
	return nil
}

// An Experiment is one table or study of the suite.
type Experiment struct {
	Name  string // recross-bench's argument, e.g. "fig9"
	Paper bool   // part of the paper's §5 evaluation; false for an extension study
	// Run renders the experiment at a configuration: a *Table, or for
	// fig6 the command timeline as text.
	Run func(Config) (any, error)
}

// Experiments is the one list of the suite: the paper's evaluation in
// paper order, then the extension studies. recross-bench and the
// benchmarks read it.
var Experiments = []Experiment{
	{"fig3", true, table(Fig3)},
	{"fig4", true, table(Fig4)},
	{"fig5", true, table(Fig5)},
	{"fig6", true, func(Config) (any, error) { return Fig6() }},
	{"fig9", true, table(Fig9)},
	{"fig10", true, table(Fig10)},
	{"fig11", true, table(Fig11)},
	{"fig12", true, table(Fig12)},
	{"fig13", true, table(Fig13)},
	{"fig14", true, table(Fig14)},
	{"fig15", true, table(Fig15)},
	{"table3", true, func(Config) (any, error) { return Table3(), nil }},
	{"ext-refresh", false, table(ExtRefresh)},
	{"ext-channels", false, table(ExtChannels)},
	{"ext-subarrays", false, table(ExtSubarrays)},
	{"ext-training", false, table(ExtTraining)},
	{"ext-latency", false, table(ExtLatency)},
	{"ext-ddr4", false, table(ExtDDR4)},
}

// table adapts a runner that renders a Table to Experiment.Run.
func table(run func(Config) (*Table, error)) func(Config) (any, error) {
	return func(cfg Config) (any, error) { return run(cfg) }
}

// Select resolves recross-bench's arguments: none selects the paper's
// evaluation, a lone "ext" the extension studies, a lone "all" every
// experiment, and otherwise each argument names one experiment.
func Select(args []string) ([]Experiment, error) {
	only := func(paper bool) []Experiment {
		return slices.DeleteFunc(slices.Clone(Experiments), func(e Experiment) bool { return e.Paper != paper })
	}
	switch {
	case len(args) == 0:
		return only(true), nil
	case len(args) == 1 && args[0] == "ext":
		return only(false), nil
	case len(args) == 1 && args[0] == "all":
		return Experiments, nil
	}
	out := make([]Experiment, len(args))
	for i, a := range args {
		j := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.Name == a })
		switch {
		case a == "ext" || a == "all":
			return nil, fmt.Errorf("%q must be the only argument (flags go before experiment names)", a)
		case strings.HasPrefix(a, "-"):
			return nil, fmt.Errorf("%q is not an experiment: flags go before experiment names", a)
		case j < 0:
			var names []string
			for _, e := range Experiments {
				names = append(names, e.Name)
			}
			return nil, fmt.Errorf("unknown experiment %q (want one of %v, or a lone 'ext' or 'all')", a, names)
		}
		out[i] = Experiments[j]
	}
	return out, nil
}

// ArchNames lists the six evaluated architectures in the paper's order:
// recross.Arches and recross-sim -arch all read it.
var ArchNames = []string{"cpu", "tensordimm", "recnmp", "trim-g", "trim-b", "recross"}

// NewSystem is the one constructor of a simulated architecture by name:
// one of ArchNames, "rank-nmp", "fafnir", or "bank-nmp" (TRiM-B's
// bank-level NMP without its hot-entry replication). ReCross reads all of
// rc; the baselines read its Spec, Ranks, Tm, Energy and Geo. TRiM-B's hot
// entries come from rc.Profile, and so does ReCross's plan unless
// rc.Placement is set. Without one, profile supplies it; it may be nil
// only for ReCross, which then profiles rc.Spec itself.
func NewSystem(name string, rc core.Config, profile func() (*partition.Profile, error)) (arch.System, error) {
	bc := baseline.Config{Spec: rc.Spec, Ranks: rc.Ranks, Tm: rc.Tm, Energy: rc.Energy, Geo: rc.Geo}
	switch name {
	case "cpu":
		return baseline.NewCPU(bc)
	case "tensordimm":
		return baseline.NewTensorDIMM(bc)
	case "recnmp":
		return baseline.NewRecNMP(bc)
	case "rank-nmp":
		return baseline.NewRankNMP(bc)
	case "fafnir":
		return baseline.NewFAFNIR(bc)
	case "trim-g":
		return baseline.NewTRiMG(bc)
	case "bank-nmp":
		return baseline.NewTRiMB(bc, nil)
	case "trim-b":
	case "recross":
		// A bad configuration fails before it pays for a profile.
		if err := rc.Validate(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiments: unknown architecture %q (want one of %v or [rank-nmp fafnir bank-nmp])",
			name, ArchNames)
	}
	if rc.Profile == nil && (name == "trim-b" || rc.Placement == nil) && profile != nil {
		var err error
		if rc.Profile, err = profile(); err != nil {
			return nil, err
		}
	}
	if name == "trim-b" {
		return baseline.NewTRiMB(bc, rc.Profile.Hists)
	}
	return core.New(rc)
}

// A Harness builds systems over one workload spec and runs them on its
// measured batch: recross.NewSystem, recross-sim and every experiment
// build and run through it. It profiles the spec at most once, from
// cfg.ProfileSeed and cfg.ProfileSamples, and every system it builds
// shares that profile read-only. The spec stands for cfg's VecLen and
// Pooling.
type Harness struct {
	cfg     Config
	spec    trace.ModelSpec
	profile func() (*partition.Profile, error)
}

// NewHarness returns a harness over spec at cfg.
func NewHarness(cfg Config, spec trace.ModelSpec) *Harness {
	return &Harness{cfg: cfg, spec: spec, profile: sync.OnceValues(func() (*partition.Profile, error) {
		return partition.NewProfile(spec, cfg.ProfileSeed, cfg.ProfileSamples)
	})}
}

// kaggle is the harness over the Criteo-Kaggle workload at cfg's vector
// length and pooling.
func kaggle(cfg Config) *Harness { return NewHarness(cfg, trace.CriteoKaggle(cfg.VecLen, cfg.Pooling)) }

// A Recipe builds one system; Measure builds each on its own goroutine.
type Recipe func() (arch.System, error)

// Build is the recipe for name over the spec. Every system starts from
// ReCross-d at cfg's ranks and batch; tweak, when non-nil, adjusts that
// configuration before NewSystem reads it.
func (h *Harness) Build(name string, tweak func(*core.Config)) Recipe {
	return func() (arch.System, error) {
		rc := core.DefaultConfig(h.spec)
		rc.Ranks, rc.Batch = h.cfg.Ranks, h.cfg.Batch
		rc.Seed, rc.ProfileSamples = h.cfg.ProfileSeed, h.cfg.ProfileSamples
		if tweak != nil {
			tweak(&rc)
		}
		return NewSystem(name, rc, h.profile)
	}
}

// Sharded is the recipe for name over the spec's tables sharded
// round-robin across n channels. Each channel profiles its own sub-spec
// once.
func (h *Harness) Sharded(name string, n int, tweak func(*core.Config)) Recipe {
	return func() (arch.System, error) {
		return arch.NewMultiChannel(h.spec, n, func(sub trace.ModelSpec) (arch.System, error) {
			return NewHarness(h.cfg, sub).Build(name, tweak)()
		})
	}
}

// built is the recipe for a system that already exists.
func built(s arch.System) Recipe { return func() (arch.System, error) { return s, nil } }

// Batch draws the measured batch: cfg.Batch samples from the spec's
// generator seeded with cfg.Seed.
func (h *Harness) Batch() (trace.Batch, error) {
	g, err := trace.NewGenerator(h.spec, h.cfg.Seed)
	if err != nil {
		return nil, err
	}
	return g.Batch(h.cfg.Batch), nil
}

// Measure builds every system and runs the measured batch on it, each on
// its own goroutine, and returns their stats in order.
func (h *Harness) Measure(systems ...Recipe) ([]*arch.RunStats, error) {
	b, err := h.Batch()
	if err != nil {
		return nil, err
	}
	stats := make([]*arch.RunStats, len(systems))
	err = each(len(systems), func(i int) error {
		s, err := systems[i]()
		if err != nil {
			return err
		}
		if stats[i], err = s.Run(b); err != nil {
			return fmt.Errorf("%s: %w", s.Name(), err)
		}
		return nil
	})
	return stats, err
}

// measureArches runs the measured batch on the six of ArchNames and
// returns their stats by name.
func (h *Harness) measureArches() (map[string]*arch.RunStats, error) {
	systems := make([]Recipe, len(ArchNames))
	for i, name := range ArchNames {
		systems[i] = h.Build(name, nil)
	}
	stats, err := h.Measure(systems...)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*arch.RunStats, len(ArchNames))
	for i, name := range ArchNames {
		out[name] = stats[i]
	}
	return out, nil
}

// each runs fn(0) … fn(n-1) concurrently and returns the lowest-index
// error, so neither results nor the reported failure depend on the
// schedule. Callers give every index its own systems and output slot.
func each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Speedups normalizes each architecture's cycle count to the named base.
func Speedups(stats map[string]*arch.RunStats, base string) (map[string]float64, error) {
	b, ok := stats[base]
	if !ok {
		return nil, fmt.Errorf("experiments: no %q run to normalize against", base)
	}
	out := make(map[string]float64, len(stats))
	for name, rs := range stats {
		if rs.Cycles == 0 {
			return nil, fmt.Errorf("experiments: %s reported zero cycles", name)
		}
		out[name] = speedup(b, rs)
	}
	return out, nil
}

// Table is a rendered experiment result. Each row cell is a string label
// or a Num, so -json ships numbers and tests read values, while the text
// and CSV print every cell through fmt.
type Table struct {
	Title string   `json:"title,omitempty"`
	Note  string   `json:"note,omitempty"`
	Cols  []string `json:"cols,omitempty"`
	Rows  [][]any  `json:"rows,omitempty"`
}

// AddRow appends a row of labels and Nums.
func (t *Table) AddRow(cells ...any) { t.Rows = append(t.Rows, cells) }

// A Num is a numeric cell: its value and the fmt format it prints with.
// It encodes to JSON as the bare value.
type Num struct {
	V   float64
	Fmt string
}

func (n Num) String() string { return fmt.Sprintf(n.Fmt, n.V) }

func (n Num) MarshalJSON() ([]byte, error) { return json.Marshal(n.V) }

// text is the header and then every row, each cell printed through fmt.
func (t *Table) text() [][]string {
	rows := [][]string{t.Cols}
	for _, r := range t.Rows {
		cells := make([]string, len(r))
		for i, c := range r {
			cells[i] = fmt.Sprint(c)
		}
		rows = append(rows, cells)
	}
	return rows
}

// CSV renders the table as comma-separated values (header row first).
// Cells containing commas or quotes are quoted per RFC 4180.
func (t *Table) CSV() string {
	var sb strings.Builder
	_ = csv.NewWriter(&sb).WriteAll(t.text()) // a strings.Builder never fails
	return sb.String()
}

// String renders the table as aligned text.
func (t *Table) String() string {
	rows := t.text()
	widths := make([]int, len(t.Cols))
	for _, r := range rows {
		for i, c := range r[:min(len(r), len(widths))] {
			widths[i] = max(widths[i], len(c))
		}
	}
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&sb, "%s\n", t.Note)
	}
	for _, r := range slices.Insert(rows, 1, sep) {
		for i, c := range r {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// speedup is rs's speedup over base: base's cycles over rs's.
func speedup(base, rs *arch.RunStats) float64 { return float64(base.Cycles) / float64(rs.Cycles) }

// rowHitRate is the share of rs's vector requests that hit an open row.
func rowHitRate(rs *arch.RunStats) float64 {
	return float64(rs.RowHits) / float64(rs.RowHits+rs.RowMisses)
}

// f2 is a value printed with two decimals.
func f2(v float64) Num { return Num{v, "%.2f"} }

// f1 is a value printed with one decimal.
func f1(v float64) Num { return Num{v, "%.1f"} }

// f4 is a value printed with four decimals.
func f4(v float64) Num { return Num{v, "%.4f"} }

// count is an integer value.
func count[T ~int | ~int64](v T) Num { return Num{float64(v), "%.0f"} }

// pct is a percentage, printed with one decimal and a % sign.
func pct(v float64) Num { return Num{v, "%.1f%%"} }
