// recross-serve runs the embedding-inference serving layer: a pool of
// simulated NMP replicas behind a dynamic batcher with admission control,
// fronted by HTTP.
//
// Serve mode (default):
//
//	recross-serve -arch recross -replicas 2 -addr :8080
//	curl -s localhost:8080/v1/lookup -d '{"ops":[{"table":0,"indices":[1,2,3]}]}'
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drains gracefully: admission stops, every admitted
// request is answered, then the process exits.
//
// Load-generator mode runs a closed-loop benchmark in-process (no HTTP)
// and prints a throughput/latency report:
//
//	recross-serve -loadgen -clients 16 -duration 10s -replicas 4
//
// Knobs: the batcher flushes at once while a replica is idle and holds a
// batch only while every replica is busy, until -maxbatch samples, until
// -maxdelay, or until a replica frees up; -queue and -policy (block|shed)
// set the admission behaviour; -arch picks any of
// the simulated architectures (cpu, tensordimm, recnmp, trim-g, trim-b,
// recross, ...). -request-timeout is the server-side default deadline
// applied to requests that arrive without one, so Block-policy admission
// can never hold a connection forever (0 disables it). -row-cache-mb
// sizes the data plane's hot-row cache of materialized embedding rows
// (0 disables; watch recross_dataplane_row_cache_* on /metrics). Each
// request's embedding reduction runs on the goroutine that handles it.
//
// Chaos mode wraps every replica with the fault-injection harness for
// soak runs against the self-healing pool — the server must keep
// answering (normally or degraded, never with a replica error) while
// replicas panic, wedge, stall and corrupt results:
//
//	recross-serve -loadgen -replicas 4 -duration 30s \
//	  -chaos-panic 0.01 -chaos-wedge 0.005 -chaos-latency 0.05 \
//	  -chaos-corrupt 0.01 -chaos-seed 7
//
// Watch /metrics (serve mode) for recross_replica_state,
// recross_replica_restarts_total and recross_requests_degraded_total.
//
// Every mode is a stage of one stack (recross.NewStack: cold -> chaos),
// so the flags compose freely: -cold -chaos-panic 0.01 -precision int8 is
// one process. At startup the resolved configuration is printed as the
// equivalent command line; a run is reproducible from it.
//
// Quantized storage (-precision fp16|int8) stores the embedding tables in
// an encoded row format that the reduce path dequantizes inline; the
// hot-row cache keeps fp32 rows, so /metrics reports the resident-vs-
// logical compression on recross_dataplane_row_compression_ratio.
// -cold-precision applies the same choice to the cold tier's pages
// independently (more rows per device read).
//
// Cold-tier mode (-cold, arch recross only) adds the flash-backed fourth
// placement level: -cold-budget-mb clamps DRAM residency so the cold tail
// of the tables spills to a file-backed store, and -cold-isr enables
// RecSSD-style in-storage reduction in the timing model. -cold-cap-mb
// defaults to the model's own size, so the tier can hold whatever the
// budget displaces. Pair with -tail-mass to aim load at the cold rows:
//
//	recross-serve -loadgen -replicas 2 -duration 30s \
//	  -cold -cold-budget-mb 8 -cold-isr -tail-mass 0.2
//
// A -loadgen run prints its report, with a cold line (device page reads,
// page-cache hit rate, fallbacks, breaker state), and exits. For the
// recross_coldstore_* series, serve, send lookups, then scrape:
//
//	recross-serve -cold -cold-budget-mb 8 -cold-isr &
//	curl -s localhost:8080/v1/lookup \
//	  -d '{"ops":[{"table":2,"indices":[7000000,7900000],"weights":[1,1]}]}'
//	curl -s localhost:8080/metrics | grep recross_coldstore_
//
// Storage chaos (-chaos-cold-*, needs -cold) injects device faults under
// the cold store — transient read errors, stalls and corrupt page
// payloads — to soak the storage fault-tolerance path: CRC32C
// page verification repairs corruption bit-exactly, bounded retries and
// the circuit breaker absorb device failures, and sustained outages flip
// the route to direct materialization (cold-degraded mode, still
// bit-exact). Pair with -cold-scrub so the background scrubber verifies
// pages and re-closes the breaker after an outage:
//
//	recross-serve -loadgen -replicas 2 -duration 30s \
//	  -cold -cold-budget-mb 8 -tail-mass 0.2 -cold-scrub 50ms \
//	  -chaos-cold-read-err 0.02 -chaos-cold-corrupt 0.01 -chaos-cold-stall-p 0.05
//
// Served with the same flags (no -loadgen), /metrics carries
// recross_coldstore_checksum_failures_total, _repairs_total,
// _breaker_state and recross_requests_cold_degraded_total.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux (-pprof-addr)
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"recross"
	"recross/internal/serve"
)

// options is every flag's destination: the library's own config structs,
// bound field by field, plus the handful of values only the CLI has.
type options struct {
	arch            recross.Arch
	vecLen, pooling int
	terabyte        bool
	replicas        int

	cfg       recross.Config
	serve     recross.ServeOptions
	coldOn    bool
	cold      recross.ColdTierConfig
	chaos     recross.FaultConfig // -chaos-seed lands here and seeds every tier
	coldChaos recross.ColdFaultConfig
	cluster   recross.ClusterConfig
	nodeChaos recross.NodeFaultConfig

	addr, binAddr, pprofAddr string
	loadgenOn                bool
	loadgen                  recross.LoadgenOptions
}

// textFlag binds a flag through a (format, parse) pair onto a field whose
// type or unit differs from the flag's text: MiB counts onto byte
// fields, policy/precision names onto enums, a comma list onto a slice.
type textFlag struct {
	get func() string
	set func(string) error
}

func (t textFlag) String() string {
	if t.get == nil { // the flag package probes a zero Value
		return ""
	}
	return t.get()
}

func (t textFlag) Set(s string) error { return t.set(s) }

// parsed binds dst to a flag whose text goes through parse.
func parsed[T fmt.Stringer](dst *T, parse func(string) (T, error)) textFlag {
	return textFlag{
		func() string { return (*dst).String() },
		func(s string) (err error) { *dst, err = parse(s); return },
	}
}

// bind declares the flag set directly over o's fields.
func bind(fs *flag.FlagSet, o *options) {
	// mib binds dst, a byte count, to a flag counted in MiB.
	mib := func(dst *int64, name string, def int64, usage string) {
		*dst = def << 20
		fs.Var(textFlag{
			func() string { return strconv.FormatInt(*dst>>20, 10) },
			func(s string) error {
				n, err := strconv.ParseInt(s, 10, 64)
				*dst = n << 20
				return err
			},
		}, name, usage)
	}

	o.arch = recross.ReCross
	fs.StringVar((*string)(&o.arch), "arch", string(o.arch), "architecture to replicate")
	fs.IntVar(&o.vecLen, "veclen", 64, "embedding vector length (FP32 elements)")
	fs.IntVar(&o.pooling, "pooling", 80, "gathers per embedding operation")
	fs.IntVar(&o.cfg.Ranks, "ranks", 2, "ranks per channel")
	fs.BoolVar(&o.terabyte, "terabyte", false, "use the Criteo-Terabyte-scale spec")

	sv := &o.serve
	fs.IntVar(&o.replicas, "replicas", 2, "replica systems in the worker pool")
	fs.IntVar(&sv.MaxBatch, "maxbatch", 32, "dynamic batcher: flush at this many samples")
	fs.DurationVar(&sv.MaxDelay, "maxdelay", 2*time.Millisecond, "dynamic batcher: longest a batch waits while every replica is busy (an idle replica flushes it at once)")
	fs.IntVar(&sv.QueueDepth, "queue", 256, "admission queue depth (requests)")
	fs.Var(parsed(&sv.Policy, serve.ParsePolicy), "policy", "overload policy: block or shed")
	fs.DurationVar(&sv.DefaultTimeout, "request-timeout", 10*time.Second,
		"server-side default deadline for requests arriving without one, so block-policy admission cannot hold a connection forever (0 = none)")
	fs.IntVar(&sv.Quorum, "quorum", 1, "minimum available replicas before degraded mode (functional-layer answers)")
	fs.IntVar(&sv.MaxRetries, "max-retries", 2, "per-request retry budget after a replica failure")
	fs.DurationVar(&sv.WedgeTimeout, "wedge-timeout", 5*time.Second, "declare a replica wedged after one batch runs this long; the watchdog catches it within 1.25x (keep well above the worst-case batch wall time, or slow legitimate batches are treated as wedges and the pool thrashes)")
	mib(&sv.RowCacheBytes, "row-cache-mb", 64, "hot-row cache budget in MiB for materialized embedding rows (0 disables); watch recross_dataplane_row_cache_* on /metrics")
	fs.Var(parsed(&o.cfg.Precision, recross.ParsePrecision), "precision", "DRAM-tier embedding row storage format: fp32, fp16 or int8; watch recross_dataplane_row_bytes_* on /metrics")
	fs.Var(parsed(&o.cold.Precision, recross.ParsePrecision), "cold-precision", "cold-tier page row format: fp32, fp16 or int8 (needs -cold)")

	ch := &o.chaos
	fs.Float64Var(&ch.Rates.Panic, "chaos-panic", 0, "chaos: per-batch replica panic probability")
	fs.Float64Var(&ch.Rates.Wedge, "chaos-wedge", 0, "chaos: per-batch wedged (never-returning) batch probability")
	fs.Float64Var(&ch.Rates.Corrupt, "chaos-corrupt", 0, "chaos: per-batch corrupted-result probability")
	fs.Float64Var(&ch.Rates.Latency, "chaos-latency", 0, "chaos: per-batch injected-stall probability")
	fs.DurationVar(&ch.Stall, "chaos-stall", 500*time.Microsecond, "chaos: injected stall duration")
	fs.Int64Var(&ch.Seed, "chaos-seed", 1, "chaos: injection RNG seed (replica i draws from seed+i)")

	cd := &o.cold
	fs.BoolVar(&o.coldOn, "cold", false, "enable the flash-backed cold tier (arch recross only); watch recross_coldstore_* on /metrics")
	mib(&cd.CapBytes, "cold-cap-mb", 0, "cold: tier capacity in MiB offered to the partitioner (0 = the model's size)")
	mib(&cd.ResidentBudgetBytes, "cold-budget-mb", 0, "cold: DRAM residency budget in MiB (0 = geometric capacity); table mass beyond it spills to flash")
	fs.BoolVar(&cd.InStorageReduce, "cold-isr", false, "cold: in-storage reduction (one partial sum per op crosses the link)")
	mib(&cd.CacheBytes, "cold-cache-mb", 1, "cold: host page-cache budget in MiB")
	fs.StringVar(&cd.Dir, "cold-dir", "", "cold: backing-file directory (default: system temp dir)")
	fs.IntVar(&cd.Retries, "cold-retries", 2, "cold: device-read retries before the page read fails (-1 disables)")
	fs.DurationVar(&cd.ReadDeadline, "cold-read-deadline", 0, "cold: per-page-read deadline; slower reads are abandoned and fail (0 = none)")
	fs.DurationVar(&cd.ScrubInterval, "cold-scrub", 0, "cold: background scrubber page-verify interval (0 disables); also the breaker's recovery probe")
	fs.IntVar(&cd.BreakerThreshold, "cold-breaker-threshold", 4, "cold: consecutive device failures that open the circuit breaker")

	cch := &o.coldChaos
	fs.Float64Var(&cch.Rates.ReadErr, "chaos-cold-read-err", 0, "chaos: per-page-read transient device error probability (needs -cold)")
	fs.Float64Var(&cch.Rates.Stall, "chaos-cold-stall-p", 0, "chaos: per-page-read injected stall probability (needs -cold)")
	fs.Float64Var(&cch.Rates.CorruptPage, "chaos-cold-corrupt", 0, "chaos: per-page-read corrupted payload probability (needs -cold)")

	cl := &o.cluster
	fs.IntVar(&cl.Nodes, "cluster", 0, "cluster mode: build this many serving nodes in this process, each behind its own loopback binary-wire listener, and front them with a scatter-gather router (0 = single-node mode)")
	fs.Var(textFlag{
		func() string { return strings.Join(cl.Peers, ",") },
		func(s string) error { cl.Peers = strings.Split(s, ","); return nil },
	}, "cluster-peers", "cluster mode: comma-separated peer addresses fronted instead of building nodes here; each is a peer's binary-wire listener (`recross-serve -bin-addr`), written host:port or bin://host:port")
	fs.IntVar(&cl.WireConns, "wire-conns", 2, "cluster: binary-wire connection pool size per node (in-binary or peer)")
	fs.StringVar(&cl.WirePrecision, "wire-precision", "fp32", "cluster: binary-wire response vector encoding for every node: fp32 (bit-identical), fp16 or int8 (storage-codec rounding, opt-in)")
	fs.StringVar(&o.binAddr, "bin-addr", "", "binary wire-protocol listen address (e.g. :9090); serves lookups beside the HTTP front-end in both single-node and cluster-router modes (empty disables)")
	fs.IntVar(&cl.Replication, "cluster-replication", 2, "cluster: replica count for hot tables")
	fs.IntVar(&cl.HotTopK, "cluster-hot-k", 0, "cluster: replicate the k largest-volume tables (0 = tables/4, negative = none)")
	fs.DurationVar(&cl.NodeTimeout, "cluster-node-timeout", 2*time.Second, "cluster: per-node sub-request deadline")

	nc := &o.nodeChaos
	fs.Float64Var(&nc.Rates.Kill, "chaos-node-kill", 0, "chaos: per-lookup node kill probability (cluster mode; sticky until the prober re-admits)")
	fs.Float64Var(&nc.Rates.Slow, "chaos-node-slow", 0, "chaos: per-lookup node slow-call probability (cluster mode)")
	fs.DurationVar(&nc.Downtime, "chaos-node-downtime", 2*time.Second, "chaos: auto-revive a killed node after this long (0 = down until the process exits)")
	fs.Float64Var(&nc.Conn.Torn, "chaos-conn-torn", 0, "chaos: per-frame-write torn-frame probability on binary-wire conns (cluster mode, every node)")
	fs.Float64Var(&nc.Conn.Reset, "chaos-conn-reset", 0, "chaos: per-frame-write conn-reset probability on binary-wire conns (cluster mode, every node)")
	fs.Float64Var(&nc.Conn.Stall, "chaos-conn-stall", 0, "chaos: per-frame-write slow-writer stall probability on binary-wire conns (cluster mode, every node)")

	lg := &o.loadgen
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	fs.BoolVar(&o.loadgenOn, "loadgen", false, "run the closed-loop load generator instead of serving HTTP")
	fs.IntVar(&lg.Clients, "clients", 8, "loadgen: concurrent closed-loop clients")
	fs.DurationVar(&lg.Duration, "duration", 10*time.Second, "loadgen: run length")
	fs.Int64Var(&lg.Seed, "seed", 1, "loadgen: client trace seed base")
	fs.DurationVar(&lg.Timeout, "timeout", 0, "loadgen: per-request deadline (0 = none)")
	fs.Float64Var(&lg.TailMass, "tail-mass", 0, "loadgen: fraction of index draws redirected to the cold half of the rank space (0 = pure Zipf)")
}

// resolve derives what the flags only imply: the workload spec, the values
// one flag feeds into several configs, and which optional stages are on.
func (o *options) resolve() error {
	o.cfg.Spec = recross.CriteoKaggle(o.vecLen, o.pooling)
	if o.terabyte {
		o.cfg.Spec = recross.CriteoTerabyte(o.vecLen, o.pooling)
	}
	o.cfg.Batch = o.serve.MaxBatch
	o.loadgen.Spec = o.cfg.Spec
	o.coldChaos.Seed, o.nodeChaos.Seed = o.chaos.Seed, o.chaos.Seed

	coldChaosOn := o.coldChaos.Rates != recross.ColdFaultRates{}
	switch {
	case o.coldOn:
		o.cfg.Cold = &o.cold
		if o.cold.CapBytes == 0 {
			// The whole model, rounded up to MiB: room for whatever the
			// DRAM budget displaces.
			const mib = 1 << 20
			o.cold.CapBytes = (o.cfg.Spec.TotalBytes() + mib - 1) / mib * mib
		}
		if coldChaosOn {
			o.cold.WrapDevice = func(d recross.ColdDevice) recross.ColdDevice {
				return recross.WrapColdDevice(d, o.coldChaos, nil)
			}
		}
	case coldChaosOn:
		return errors.New("-chaos-cold-* flags require -cold")
	}
	if o.chaos.Rates != (recross.FaultRates{}) {
		o.cfg.Chaos = &o.chaos
	}

	cl := &o.cluster
	cl.ReplicasPerNode, cl.Serve = o.replicas, o.serve
	if o.nodeChaos.Rates != (recross.NodeFaultRates{}) || o.nodeChaos.Conn != (recross.ConnFaultRates{}) {
		// One injector spans node- and conn-level faults.
		inj := recross.NewFaultInjector()
		cl.WrapNode = func(i int, n recross.ClusterNode) recross.ClusterNode {
			return recross.WrapFaultyNode(n, o.nodeChaos, i, inj)
		}
		if o.nodeChaos.Conn != (recross.ConnFaultRates{}) {
			cl.WrapDial = func(i int, d recross.BinDial) recross.BinDial {
				return recross.WrapFaultyBinDial(d, o.nodeChaos, i, inj)
			}
		}
	}
	return nil
}

// target is what the two run modes (serve HTTP, loadgen) need from either
// a single-node stack or a cluster.
type target struct {
	name    string // for log lines
	handler http.Handler
	bin     func() (*recross.BinServer, error) // the -bin-addr listener
	loadgen func(recross.LoadgenOptions) (fmt.Stringer, error)
	close   func() error
	drained func() string // serve mode's exit line (read after close)
	tally   func() string // loadgen's target-specific report lines (read after close)
}

// usageError marks a flag-parsing failure, which the flag package has
// already reported on stderr.
type usageError struct{ error }

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var ue usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, &ue):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "recross-serve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "recross-serve: "+format+"\n", a...) }
	var o options
	fs := flag.NewFlagSet("recross-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bind(fs, &o)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if err := o.resolve(); err != nil {
		return err
	}
	// The flags are bound straight onto the config structs, so the flag
	// set's current values are the resolved configuration.
	var dump strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&dump, " -%s=%s", f.Name, f.Value) })
	logf("config: recross-serve%s", dump.String())

	if o.pprofAddr != "" {
		// The profiler gets its own listener so profiling traffic never
		// competes with (or is admission-controlled like) serving traffic.
		go func() {
			logf("pprof on http://%s/debug/pprof/", o.pprofAddr)
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				logf("pprof server: %v", err)
			}
		}()
	}

	t0 := time.Now()
	var t target
	if o.cluster.Nodes != 0 || len(o.cluster.Peers) > 0 {
		// Cluster mode: N nodes behind the scatter-gather router, each a
		// full serving stack (in-binary nodes get -cold and -chaos-* per node).
		logf("building cluster (%d nodes, %d peers)...", o.cluster.Nodes, len(o.cluster.Peers))
		cs, err := recross.NewClusterServer(o.arch, o.cfg, o.cluster)
		if err != nil {
			return err
		}
		pl := cs.Router.Placement()
		logf("cluster ready in %v (%d tables, %d replicated, dealt round the nodes)",
			time.Since(t0).Round(time.Millisecond), pl.Tables(), pl.Replicated())
		t = target{
			name:    "cluster router",
			handler: cs.Router.Handler(),
			bin: func() (*recross.BinServer, error) {
				bs, err := recross.NewClusterBinServer(cs.Router)
				if err == nil {
					bs.RegisterMetrics(cs.Router.MetricSet())
				}
				return bs, err
			},
			loadgen: func(lo recross.LoadgenOptions) (fmt.Stringer, error) { return recross.ClusterLoadgen(cs.Router, lo) },
			close:   cs.Close,
			drained: func() string {
				st := cs.Router.Stats()
				return fmt.Sprintf("routed %d requests (%d sub-requests, %d degraded)", st.Requests, st.Subrequests, st.Degraded)
			},
			tally: func() string {
				h, st := cs.Router.Health(), cs.Router.Stats()
				return fmt.Sprintf("  cluster    %d/%d nodes available, %d revivals\n",
					h.Available, h.Nodes, st.Revivals)
			},
		}
	} else {
		logf("building %d %s replica(s) over %s (%d tables)...", o.replicas, o.arch, o.cfg.Spec.Name, len(o.cfg.Spec.Tables))
		st, err := recross.NewStack(o.arch, o.cfg, o.replicas, o.serve)
		if err != nil {
			return err
		}
		logf("pool ready in %v", time.Since(t0).Round(time.Millisecond))
		t = target{
			name:    "pool",
			handler: st.Handler(),
			bin: func() (*recross.BinServer, error) {
				bs, err := recross.NewBinServer(st.Server)
				if err == nil {
					bs.RegisterMetrics(st.MetricSet())
				}
				return bs, err
			},
			loadgen: func(lo recross.LoadgenOptions) (fmt.Stringer, error) { return recross.Loadgen(st.Server, lo) },
			close:   st.Close,
			drained: func() string {
				snap := st.Metrics().Snapshot()
				return fmt.Sprintf("served %d requests in %d batches (mean %.1f samples/batch)", snap.Completed, snap.Batches, snap.MeanBatch())
			},
			tally: func() string { return stackTally(st) },
		}
	}

	if o.loadgenOn {
		logf("loadgen against the %s: %d clients for %v...", t.name, o.loadgen.Clients, o.loadgen.Duration)
		rep, err := t.loadgen(o.loadgen)
		if err != nil {
			t.close()
			return err
		}
		if err := t.close(); err != nil {
			return err
		}
		fmt.Fprint(stdout, rep.String(), t.tally())
		return nil
	}
	return serveHTTP(t, o.addr, o.binAddr, logf)
}

// stackTally renders the single-node loadgen report's self-healing and
// storage lines (each only when it has something to say) and, with a cold
// tier, its cold line.
func stackTally(st *recross.Stack) string {
	var b strings.Builder
	snap := st.Metrics().Snapshot()
	faults := snap.FaultPanics + snap.FaultWedges + snap.FaultCorrupt + snap.FaultErrors
	if faults > 0 || snap.Retries > 0 || snap.Restarts > 0 || snap.Degraded > 0 {
		fmt.Fprintf(&b, "  healing    %d faults (panic %d, wedge %d, corrupt %d, error %d), %d retries, %d restarts, %d degraded answers\n",
			faults, snap.FaultPanics, snap.FaultWedges, snap.FaultCorrupt, snap.FaultErrors,
			snap.Retries, snap.Restarts, snap.Degraded)
	}
	if snap.DegradedCold > 0 {
		fmt.Fprintf(&b, "  storage    %d answers completed in cold-degraded mode (direct materialization fallback)\n",
			snap.DegradedCold)
	}
	if st.Cold != nil {
		cs := st.Cold.Stats()
		fmt.Fprintf(&b, "  cold       %d device page reads, page-cache hit rate %.3f, %d fallbacks, breaker %s\n",
			cs.PageReads, cs.HitRate(), st.Layer().ColdFallbacks(),
			[...]string{"closed", "half-open", "open"}[cs.BreakerState])
	}
	return b.String()
}

// serveHTTP fronts the target with HTTP (and the binary wire when binAddr
// is set) until SIGINT/SIGTERM, then drains gracefully: stop taking TCP
// connections, answer in-flight requests, close the target.
func serveHTTP(t target, addr, binAddr string, logf func(string, ...any)) error {
	var bs *recross.BinServer
	if binAddr != "" {
		var err error
		if bs, err = t.bin(); err != nil {
			return err
		}
		lis, err := net.Listen("tcp", binAddr)
		if err != nil {
			return err
		}
		go func() {
			logf("binary wire listening on %s", lis.Addr())
			if err := bs.Serve(lis); err != nil {
				logf("bin server: %v", err)
			}
		}()
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.close()
		return err
	}
	hs := &http.Server{Handler: t.handler}
	errc := make(chan error, 1)
	go func() {
		logf("%s listening on %s", t.name, lis.Addr())
		errc <- hs.Serve(lis)
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		t.close()
		return err
	case <-ctx.Done():
	}

	logf("draining %s...", t.name)
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("shutdown: %v", err)
	}
	if bs != nil {
		_ = bs.Close()
	}
	if err := t.close(); err != nil {
		return err
	}
	logf("drained; %s", t.drained())
	return nil
}
