// Package experiments reproduces every table and figure of the paper's
// evaluation (§5): one runner per experiment, shared by the recross-bench
// command and the repository's benchmark suite. Each runner returns a
// plain-text Table whose rows mirror what the paper plots, so EXPERIMENTS.md
// can record paper-vs-measured side by side.
package experiments

import (
	"fmt"
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

// ArchNames lists the evaluated architectures in the paper's order.
var ArchNames = []string{"cpu", "tensordimm", "recnmp", "trim-g", "trim-b", "recross"}

// ArchSet holds the six evaluated systems over one workload spec, sharing a
// single offline profile.
type ArchSet struct {
	Cfg     Config
	Spec    trace.ModelSpec
	Profile *partition.Profile
	Systems map[string]arch.System
}

// NewArchSet builds all six architectures over the Criteo-Kaggle workload
// at cfg's vector length and pooling.
func NewArchSet(cfg Config) (*ArchSet, error) {
	spec := trace.CriteoKaggle(cfg.VecLen, cfg.Pooling)
	return NewArchSetFor(cfg, spec)
}

// NewArchSetFor builds the six architectures over an explicit spec.
func NewArchSetFor(cfg Config, spec trace.ModelSpec) (*ArchSet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prof, err := partition.NewProfile(spec, cfg.ProfileSeed, cfg.ProfileSamples)
	if err != nil {
		return nil, err
	}
	s := &ArchSet{Cfg: cfg, Spec: spec, Profile: prof, Systems: map[string]arch.System{}}
	bcfg := baseline.Config{Spec: spec, Ranks: cfg.Ranks}

	if s.Systems["cpu"], err = baseline.NewCPU(bcfg); err != nil {
		return nil, err
	}
	if s.Systems["tensordimm"], err = baseline.NewTensorDIMM(bcfg); err != nil {
		return nil, err
	}
	if s.Systems["recnmp"], err = baseline.NewRecNMP(bcfg); err != nil {
		return nil, err
	}
	if s.Systems["trim-g"], err = baseline.NewTRiMG(bcfg); err != nil {
		return nil, err
	}
	if s.Systems["trim-b"], err = baseline.NewTRiMB(bcfg, prof.Hists); err != nil {
		return nil, err
	}
	rcfg := core.DefaultConfig(spec)
	rcfg.Ranks = cfg.Ranks
	rcfg.Batch = cfg.Batch
	rcfg.ProfileSamples = cfg.ProfileSamples
	rcfg.Seed = cfg.ProfileSeed
	rcfg.Profile = prof
	if s.Systems["recross"], err = core.New(rcfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Batch generates the measured batch for this workload.
func (s *ArchSet) Batch() (trace.Batch, error) {
	g, err := trace.NewGenerator(s.Spec, s.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	return g.Batch(s.Cfg.Batch), nil
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

// RunAll executes one batch on every architecture concurrently and returns
// the stats by name.
func (s *ArchSet) RunAll() (map[string]*arch.RunStats, error) {
	b, err := s.Batch()
	if err != nil {
		return nil, err
	}
	stats := make([]*arch.RunStats, len(ArchNames))
	err = each(len(ArchNames), func(i int) (err error) {
		if stats[i], err = s.Systems[ArchNames[i]].Run(b); err != nil {
			err = fmt.Errorf("%s: %w", ArchNames[i], err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*arch.RunStats, len(ArchNames))
	for i, name := range ArchNames {
		out[name] = stats[i]
	}
	return out, nil
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
		out[name] = float64(b.Cycles) / float64(rs.Cycles)
	}
	return out, nil
}

// Table is a rendered experiment result.
type Table struct {
	Title string
	Note  string
	Cols  []string
	Rows  [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// CSV renders the table as comma-separated values (header row first).
// Cells containing commas or quotes are quoted per RFC 4180.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Cols)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&sb, "%s\n", t.Note)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
