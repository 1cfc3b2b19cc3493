package main

import "encoding/json"

// The benchmark's fixed vocabulary: five workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with
// the layer each belongs to and the end-to-end metric it should move.
// BENCHMARK.json at the repository root repeats the names, units,
// directions and bounds; bench_test.go fails when the two drift apart.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"sim_infer", "the paper's experiment: ReCross.Run on Criteo-Kaggle batches of 32; core, memctrl, dram and nmp do all the work, serve, cluster and coldstore none"},
	{"sim_train", "RunTraining on the same model: gather reads plus gradient write-back, so a read fast path that costs the write path shows"},
	{"serve_hot", "2-replica server, row cache holds the working set: serve batching and core.Run on small batches carry the latency, embedding does little"},
	{"serve_cold", "int8 tables far larger than both caches over a flash tier: embedding, int8 kernels and coldstore page reads do the work, DRAM timing little"},
	{"cluster_wire", "2 nodes behind the binary wire, tiny gathers: router scatter, frame encode/decode and two serve stacks dominate; the only workload using cluster"},
}

// metricDef describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry Layer and Moves instead.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
	Clock  string  `json:"clock,omitempty"` // simulated, wall, cpu or -
	Layer  string  `json:"layer,omitempty"`
	Moves  string  `json:"moves,omitempty"` // the end-to-end metric (and workload) it should move
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; the README says what one "lookup" is on each workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: "wall"},
	{Name: "sim_cycles_per_sample", Unit: "cycles", Better: "lower", Bound: 0.03, Clock: "simulated"},
	{Name: "sim_samples_per_host_s", Unit: "1/s", Better: "higher", Bound: 0.25, Clock: "wall"},
	{Name: "lookup_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Clock: "wall"},
	{Name: "lookups_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Clock: "wall"},
	{Name: "cpu_ms_per_lookup", Unit: "ms", Better: "lower", Bound: 0.25, Clock: "cpu"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25, Clock: "-"},
}

// perLayer is emitted by the traced run. A metric whose layer does no work
// on a workload reports 0 there.
var perLayer = []metricDef{
	{Name: "partition.profile_ms", Unit: "ms", Better: "lower", Layer: "partition", Moves: "setup_s, every workload"},
	{Name: "partition.solve_lp_ms", Unit: "ms", Better: "lower", Layer: "partition/lp", Moves: "setup_s, every workload"},

	{Name: "core.build_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "setup_s"},
	{Name: "core.run_ms_per_batch32", Unit: "ms", Better: "lower", Layer: "core", Moves: "sim_samples_per_host_s, lookup_p50_ms @ sim_infer"},
	{Name: "core.cycles_per_batch32", Unit: "cycles", Better: "lower", Layer: "core", Moves: "sim_cycles_per_sample"},
	{Name: "core.sim_cycles_per_host_s", Unit: "cycles/s", Better: "higher", Layer: "core", Moves: "sim_samples_per_host_s"},
	{Name: "core.imbalance", Unit: "ratio", Better: "lower", Layer: "core", Moves: "sim_cycles_per_sample"},
	{Name: "core.op_p99_cycles", Unit: "cycles", Better: "lower", Layer: "core", Moves: "sim_cycles_per_sample"},
	{Name: "core.train_ms_per_batch32", Unit: "ms", Better: "lower", Layer: "core", Moves: "sim_samples_per_host_s @ sim_train"},
	{Name: "core.train_cycles_per_batch32", Unit: "cycles", Better: "lower", Layer: "core", Moves: "sim_cycles_per_sample @ sim_train"},
	{Name: "core.run_ms_per_served_batch", Unit: "ms", Better: "lower", Layer: "core", Moves: "lookup_p50_ms, lookups_per_s, cpu_ms_per_lookup @ serve_hot"},
	{Name: "core.run_share_of_lookup", Unit: "ratio", Better: "lower", Layer: "core", Moves: "bounds what a faster Run can save on lookup_p50_ms"},
	{Name: "core.cold_cycles_share", Unit: "ratio", Better: "lower", Layer: "core", Moves: "sim_cycles_per_sample @ serve_cold"},

	{Name: "memctrl.drain_ms_4k", Unit: "ms", Better: "lower", Layer: "memctrl", Moves: "sim_samples_per_host_s"},
	{Name: "memctrl.drain_rw_ms_4k", Unit: "ms", Better: "lower", Layer: "memctrl", Moves: "sim_samples_per_host_s @ sim_train only"},
	{Name: "dram.row_hit_share", Unit: "ratio", Better: "higher", Layer: "dram", Moves: "sim_cycles_per_sample"},
	{Name: "dram.acts_per_sample", Unit: "count", Better: "lower", Layer: "dram", Moves: "sim_cycles_per_sample"},
	{Name: "dram.rds_per_sample", Unit: "count", Better: "lower", Layer: "dram", Moves: "sim_cycles_per_sample"},
	{Name: "dram.wrs_per_sample", Unit: "count", Better: "lower", Layer: "dram", Moves: "sim_cycles_per_sample @ sim_train"},
	{Name: "dram.subarray_switches_per_sample", Unit: "count", Better: "lower", Layer: "dram", Moves: "sim_cycles_per_sample"},
	{Name: "nmp.pe_ops_per_sample", Unit: "count", Better: "lower", Layer: "nmp", Moves: "reported beside sim_cycles_per_sample"},
	{Name: "energy.nj_per_sample", Unit: "nJ", Better: "lower", Layer: "energy", Moves: "reported beside sim_cycles_per_sample"},

	{Name: "baseline.cpu_cycles_per_sample", Unit: "cycles", Better: "lower", Layer: "baseline", Moves: "context for sim_cycles_per_sample @ sim_infer"},
	{Name: "baseline.trimb_cycles_per_sample", Unit: "cycles", Better: "lower", Layer: "baseline", Moves: "context for sim_cycles_per_sample @ sim_infer"},
	{Name: "baseline.cpu_run_ms_per_batch32", Unit: "ms", Better: "lower", Layer: "baseline", Moves: "none (host cost of the CPU model)"},
	{Name: "baseline.speedup_vs_cpu", Unit: "ratio", Better: "higher", Layer: "baseline", Moves: "paper reports 15.5"},
	{Name: "baseline.speedup_vs_trimb", Unit: "ratio", Better: "higher", Layer: "baseline", Moves: "paper reports 1.8"},
	{Name: "baseline.err_vs_paper_cpu_pct", Unit: "%", Better: "lower", Layer: "baseline", Moves: "model fidelity against 15.5"},
	{Name: "baseline.err_vs_paper_trimb_pct", Unit: "%", Better: "lower", Layer: "baseline", Moves: "model fidelity against 1.8"},

	{Name: "embedding.reduce_us_per_sample", Unit: "us", Better: "lower", Layer: "embedding", Moves: "cpu_ms_per_lookup, lookups_per_s @ serve_cold"},
	{Name: "embedding.rowcache_hit_share", Unit: "ratio", Better: "higher", Layer: "embedding", Moves: "cpu_ms_per_lookup @ serve_cold"},
	{Name: "embedding.rowcache_evictions_per_lookup", Unit: "count", Better: "lower", Layer: "embedding", Moves: "cpu_ms_per_lookup @ serve_cold"},
	{Name: "kernels.axpy_ns_per_row_fp32", Unit: "ns", Better: "lower", Layer: "kernels", Moves: "cpu_ms_per_lookup @ serve_hot, cluster_wire"},
	{Name: "kernels.axpy_ns_per_row_int8", Unit: "ns", Better: "lower", Layer: "kernels", Moves: "cpu_ms_per_lookup @ serve_cold"},

	{Name: "coldstore.device_reads_per_lookup", Unit: "count", Better: "lower", Layer: "coldstore", Moves: "lookup_p50_ms, lookups_per_s @ serve_cold"},
	{Name: "coldstore.page_cache_hit_share", Unit: "ratio", Better: "higher", Layer: "coldstore", Moves: "lookup_p50_ms @ serve_cold"},
	{Name: "coldstore.page_read_us_p50", Unit: "us", Better: "lower", Layer: "coldstore", Moves: "lookup_p50_ms @ serve_cold"},
	{Name: "coldstore.retries", Unit: "count", Better: "lower", Layer: "coldstore", Moves: "none expected (0)"},
	{Name: "coldstore.repairs", Unit: "count", Better: "lower", Layer: "coldstore", Moves: "none expected (0)"},
	{Name: "coldstore.fallbacks", Unit: "count", Better: "lower", Layer: "coldstore", Moves: "none expected (0)"},

	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", Moves: "lookup_p50_ms @ serve_hot, cluster_wire"},
	{Name: "serve.batch_form_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", Moves: "lookup_p50_ms (MaxDelay floor at low rate)"},
	{Name: "serve.mean_batch", Unit: "count", Better: "higher", Layer: "serve", Moves: "lookups_per_s under saturation"},
	{Name: "serve.other_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", Moves: "lookup_p50_ms @ serve_cold (reduce fan-out)"},
	{Name: "serve.service_cycles_per_sample", Unit: "cycles", Better: "lower", Layer: "serve", Moves: "simulated cost at served batch sizes"},
	{Name: "serve.overhead_us_per_lookup", Unit: "us", Better: "lower", Layer: "serve", Moves: "cpu_ms_per_lookup @ cluster_wire"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Layer: "serve", Moves: "failed ops"},
	{Name: "serve.retries", Unit: "count", Better: "lower", Layer: "serve", Moves: "none expected (0)"},
	{Name: "serve.degraded", Unit: "count", Better: "lower", Layer: "serve", Moves: "none expected (0)"},

	{Name: "cluster.node_lookup_ms_p50", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "lookup_p50_ms @ cluster_wire"},
	{Name: "cluster.router_overhead_ms_p50", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "lookup_p50_ms, cpu_ms_per_lookup @ cluster_wire"},
	{Name: "cluster.subrequests_per_lookup", Unit: "count", Better: "lower", Layer: "cluster", Moves: "cpu_ms_per_lookup @ cluster_wire"},
	{Name: "cluster.hedges_fired", Unit: "count", Better: "lower", Layer: "cluster", Moves: "none expected (0, hedging off)"},
	{Name: "cluster.retries", Unit: "count", Better: "lower", Layer: "cluster", Moves: "none expected (0)"},
	{Name: "cluster.degraded", Unit: "count", Better: "lower", Layer: "cluster", Moves: "none expected (0)"},

	{Name: "wire.bytes_per_lookup", Unit: "bytes", Better: "lower", Layer: "wire", Moves: "cpu_ms_per_lookup @ cluster_wire"},
	{Name: "wire.encode_ns_per_frame", Unit: "ns", Better: "lower", Layer: "wire", Moves: "cpu_ms_per_lookup, lookups_per_s @ cluster_wire"},
	{Name: "wire.decode_ns_per_frame", Unit: "ns", Better: "lower", Layer: "wire", Moves: "cpu_ms_per_lookup, lookups_per_s @ cluster_wire"},
	{Name: "wire.rtt_us_p50", Unit: "us", Better: "lower", Layer: "wire", Moves: "lookup_p50_ms @ cluster_wire"},
	{Name: "wire.redials", Unit: "count", Better: "lower", Layer: "wire", Moves: "none expected (0)"},
	{Name: "wire.conn_failures", Unit: "count", Better: "lower", Layer: "wire", Moves: "none expected (0)"},

	{Name: "trace.gen_us_per_sample", Unit: "us", Better: "lower", Layer: "trace", Moves: "none (inputs are generated before timing)"},
	{Name: "loadgen.sent", Unit: "count", Better: "higher", Layer: "loadgen", Moves: "sample count behind the open-loop percentiles"},
	{Name: "loadgen.ok", Unit: "count", Better: "higher", Layer: "loadgen", Moves: "sample count behind the open-loop percentiles"},
	{Name: "loadgen.failed_share", Unit: "ratio", Better: "lower", Layer: "loadgen", Moves: "failed / attempted; over 0.001 fails the run"},
	{Name: "loadgen.late_ms_max", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: "how late the open-loop generator ran"},
	{Name: "loadgen.lookup_p50_all_ms", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: "plain whole-phase median, beside the quietest-window lookup_p50_ms"},
	{Name: "loadgen.lookup_p90_ms", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: "diagnostic, not gated"},
	{Name: "loadgen.lookup_p99_ms", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: "diagnostic, not gated; taken at loadgen.tail_pct"},
	{Name: "loadgen.tail_pct", Unit: "%", Better: "higher", Layer: "loadgen", Moves: "highest percentile (<= 99) with ten samples beyond it"},
	{Name: "loadgen.closed_p50_ms", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: "latency at saturation, beside lookups_per_s"},
	{Name: "process.allocs_per_lookup", Unit: "count", Better: "lower", Layer: "process", Moves: "noise-free early warning for cpu_ms_per_lookup"},
	{Name: "process.alloc_kb_per_lookup", Unit: "KiB", Better: "lower", Layer: "process", Moves: "cpu_ms_per_lookup, peak_rss_mb"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "process", Moves: "lookup tail"},
	{Name: "process.goroutines_leaked", Unit: "count", Better: "lower", Layer: "process", Moves: "none expected (0)"},
	{Name: "process.tracing_overhead_pct", Unit: "%", Better: "lower", Layer: "process", Moves: "traced vs untraced lookup_p50_ms in the same run"},
	{Name: "sim.cycles_checksum", Unit: "hash", Better: "lower", Layer: "core", Moves: "equal checksums mean identical simulated behaviour"},
}

// benchmarkJSON renders the contract file kept at the repository root.
func benchmarkJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n')
}

// Paper headline ratios (ISCA'23, abstract) the baseline layer is compared
// against.
const (
	paperSpeedupVsCPU   = 15.5
	paperSpeedupVsTRiMB = 1.8
)

// maxFailedShare is the absolute share of failed operations over which a
// run is reported incorrect.
const maxFailedShare = 0.001
