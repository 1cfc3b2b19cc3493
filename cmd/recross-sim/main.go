// recross-sim runs one architecture over one workload and reports latency,
// row-buffer behaviour, load balance, and the energy account. It builds
// and runs its systems through the experiment harness, the one constructor
// and runner behind recross.NewSystem and recross-bench, and only renders
// the stats it gets back.
//
// Usage:
//
//	recross-sim -arch recross [-veclen 64 -pooling 80 -batch 32 -ranks 2]
//	recross-sim -arch all            # compare every architecture
//	recross-sim -config run.json     # load all parameters from a file
//	recross-sim -json                # machine-readable results on stdout
//
// Architectures: all (the six below in the paper's order), cpu,
// tensordimm, recnmp, trim-g, trim-b, recross, and rank-nmp, fafnir,
// bank-nmp. An unknown name or -config key fails before anything is
// simulated.
//
// A -config file holds the flag values as JSON, e.g.
//
//	{"arch": "recross", "veclen": 64, "pooling": 80,
//	 "batch": 32, "ranks": 2, "channels": 2, "seed": 777}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"recross"
	"recross/internal/experiments"
)

// options are the command's parameters: its flags, which a -config
// file's keys override.
type options struct {
	Arch     string `json:"arch"`
	VecLen   int    `json:"veclen"`
	Pooling  int    `json:"pooling"`
	Batch    int    `json:"batch"`
	Ranks    int    `json:"ranks"`
	Channels int    `json:"channels"`
	Seed     int64  `json:"seed"`
	Profile  int    `json:"profile"`
	Terabyte bool   `json:"terabyte"`
}

// jsonResult is the machine-readable output record of one run.
type jsonResult struct {
	Arch       string  `json:"arch"`
	Cycles     int64   `json:"cycles"`
	Micros     float64 `json:"us"`
	Lookups    int64   `json:"lookups"`
	RowHits    int64   `json:"row_hits"`
	RowMisses  int64   `json:"row_misses"`
	CacheHits  int64   `json:"cache_hits"`
	Imbalance  float64 `json:"imbalance"`
	OpP50      int64   `json:"op_p50_cycles"`
	OpP99      int64   `json:"op_p99_cycles"`
	EnergyMJ   float64 `json:"energy_mj"`
	ACTs       int64   `json:"acts"`
	RDs        int64   `json:"rds"`
	WRs        int64   `json:"wrs"`
	ResultTxns int64   `json:"result_bursts"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "recross-sim:", err)
		os.Exit(1)
	}
}

// run is the command on args. A bad flag exits 2 after the flag package
// reports it on stderr, and -h exits 0.
func run(args []string, stdout, stderr io.Writer) error {
	var o options
	fs := flag.NewFlagSet("recross-sim", flag.ExitOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.Arch, "arch", "all", "architecture to simulate (or 'all')")
	fs.IntVar(&o.VecLen, "veclen", 64, "embedding vector length (FP32 elements)")
	fs.IntVar(&o.Pooling, "pooling", 80, "gathers per embedding operation")
	fs.IntVar(&o.Batch, "batch", 32, "batch size")
	fs.IntVar(&o.Ranks, "ranks", 2, "ranks per channel")
	fs.IntVar(&o.Channels, "channels", 1, "independent memory channels")
	fs.Int64Var(&o.Seed, "seed", 777, "trace seed")
	fs.IntVar(&o.Profile, "profile", 2000, "offline profiling samples")
	fs.BoolVar(&o.Terabyte, "terabyte", false, "use the Criteo-Terabyte-scale spec")
	configPath := fs.String("config", "", "load parameters from a JSON file")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON results")
	_ = fs.Parse(args) // ExitOnError: a parse error never returns
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		defer f.Close()
		// A key options lacks is an error, not a silently ignored typo.
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&o); err != nil {
			return fmt.Errorf("config %s: %w", *configPath, err)
		}
	}
	names := experiments.ArchNames
	if o.Arch != "all" {
		names = []string{o.Arch}
	}
	cfg := experiments.Config{VecLen: o.VecLen, Pooling: o.Pooling, Batch: o.Batch,
		Ranks: o.Ranks, Seed: o.Seed, ProfileSeed: 12345, ProfileSamples: o.Profile}
	if err := cfg.Validate(); err != nil {
		return err
	}

	spec := recross.CriteoKaggle(o.VecLen, o.Pooling)
	if o.Terabyte {
		spec = recross.CriteoTerabyte(o.VecLen, o.Pooling)
	}
	h := experiments.NewHarness(cfg, spec)
	b, err := h.Batch()
	if err != nil {
		return err
	}

	// Each recipe records its system's own name: a sharded one says so.
	results := make([]jsonResult, len(names))
	systems := make([]experiments.Recipe, len(names))
	for i, name := range names {
		build := h.Build(name, nil)
		if o.Channels > 1 {
			build = h.Sharded(name, o.Channels, nil)
		}
		systems[i] = func() (recross.System, error) {
			s, err := build()
			if err == nil {
				results[i].Arch = s.Name()
			}
			return s, err
		}
	}
	stats, err := h.Measure(systems...)
	if err != nil {
		return err
	}
	for i, st := range stats {
		r := &results[i]
		r.Cycles, r.Micros = int64(st.Cycles), float64(st.Cycles)/2.4/1e3
		r.Lookups, r.RowHits, r.RowMisses, r.CacheHits = st.Lookups, st.RowHits, st.RowMisses, st.CacheHits
		r.Imbalance, r.OpP50, r.OpP99 = st.Imbalance, int64(st.OpP50), int64(st.OpP99)
		r.EnergyMJ = st.Energy.Total() * 1e3
		r.ACTs, r.RDs, r.WRs, r.ResultTxns = st.DRAM.ACTs, st.DRAM.RDs, st.DRAM.WRs, st.DRAM.HostResultTx
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	fmt.Fprintf(stdout, "workload %s: %d tables, %.1f GB; channel capacity %.1f GB\n",
		spec.Name, len(spec.Tables), gb(spec.TotalBytes()), gb(recross.ChannelBytes(o.Ranks)))
	fmt.Fprintf(stdout, "batch: %d samples, %d lookups\n\n", len(b), b.Lookups())
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "arch\tcycles\tus\thit-rate\timbalance\tenergy-mJ\tACTs\tRDs")
	for _, r := range results {
		hit := float64(r.RowHits) / float64(r.RowHits+r.RowMisses)
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.2f\t%.4f\t%d\t%d\n",
			r.Arch, r.Cycles, r.Micros, hit, r.Imbalance, r.EnergyMJ, r.ACTs, r.RDs)
	}
	return w.Flush()
}

func gb(b int64) float64 { return float64(b) / (1 << 30) }
