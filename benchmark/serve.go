package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"recross"
	"recross/internal/cluster"
)

// serveSpec is one serving workload: what is built and how hard it is
// driven. Rates were sized on the recording box (2 cores) at roughly 40 %
// (serve_hot) to 70 % of the closed-loop saturation throughput; see the
// README for the measured saturation numbers.
type serveSpec struct {
	cfg      recross.Config
	replicas int
	opts     recross.ServeOptions
	nodes    int     // > 0: this many single-replica nodes behind the binary wire
	tailMass float64 // share of index draws sent to the cold half of each table
	rate     float64 // open-loop lookups per second
}

func serveSpecFor(workload, tmpDir string) (serveSpec, error) {
	switch workload {
	case "serve_hot":
		return serveSpec{
			cfg:      recross.Config{Spec: recross.CriteoKaggle(64, 80)},
			replicas: 2,
			opts:     recross.ServeOptions{RowCacheBytes: 64 << 20},
			rate:     400,
		}, nil
	case "serve_cold":
		spec := recross.ModelSpec{Name: "bench-cold", Tables: []recross.TableSpec{
			{Name: "big0", Rows: 600_000, VecLen: 64, Pooling: 48, Prob: 1, Skew: 1.1},
			{Name: "big1", Rows: 300_000, VecLen: 64, Pooling: 32, Prob: 1, Skew: 1.05},
		}}
		return serveSpec{
			cfg: recross.Config{Spec: spec, Precision: recross.INT8, Cold: &recross.ColdTierConfig{
				CapBytes: 512 << 20, ResidentBudgetBytes: 24 << 20, InStorageReduce: true,
				Precision: recross.INT8, CacheBytes: 4 << 20, Dir: tmpDir,
			}},
			replicas: 2,
			opts:     recross.ServeOptions{RowCacheBytes: 4 << 20},
			tailMass: 0.3,
			rate:     700,
		}, nil
	case "cluster_wire":
		tabs := make([]recross.TableSpec, 16)
		for i := range tabs {
			tabs[i] = recross.TableSpec{
				Name: fmt.Sprintf("t%d", i), Rows: 200_000, VecLen: 16,
				Pooling: 4, Prob: 1, Skew: 1.2, Kind: 1, // trace.Sum
			}
		}
		return serveSpec{
			cfg:      recross.Config{Spec: recross.ModelSpec{Name: "bench-wire", Tables: tabs}},
			replicas: 1,
			opts:     recross.ServeOptions{RowCacheBytes: 16 << 20},
			nodes:    2,
			rate:     700,
		}, nil
	}
	return serveSpec{}, fmt.Errorf("unknown serving workload %q", workload)
}

// lookupMeta is what one answered lookup said about itself. For a cluster
// lookup the serve-side fields are those of its slowest sub-request, filled
// in from the node.lookup spans after the phase.
type lookupMeta struct {
	start, end       int64 // recorder clock, around the call
	span             uint64
	queueWait, total time.Duration // serve-side admission->dequeue, admission->answer
	routerTotal      time.Duration // cluster only: router entry->answer
	batch            int
	cycles           int64
	replica          int // unique across nodes
}

// target is a built serving stack.
type target struct {
	servers  []*recross.Server // every serve stack, in node order
	router   *recross.ClusterRouter
	binNodes []*recross.BinNode
	binSrvs  []*recross.BinServer
	lookup   func(ctx context.Context, s recross.Sample) ([][]float32, lookupMeta, error)
	closers  []func() error // run in reverse
}

func (t *target) close() error {
	var first error
	for i := len(t.closers) - 1; i >= 0; i-- {
		if err := t.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// build stands the workload's stack up. With rec set, every public seam on
// the request path is wrapped so the traced phases can record spans.
func (sp serveSpec) build(rec *recorder) (*target, error) {
	t := &target{}
	cfg := sp.cfg
	if rec != nil && cfg.Cold != nil {
		cold := *cfg.Cold
		cold.WrapDevice = func(d recross.ColdDevice) recross.ColdDevice { return &tracedDevice{d, rec} }
		cfg.Cold = &cold
	}
	newServer := func(base int) (*recross.Server, error) {
		srv, err := recross.NewServer(recross.ReCross, cfg, sp.replicas, sp.opts)
		if err != nil {
			return nil, err
		}
		t.servers = append(t.servers, srv)
		t.closers = append(t.closers, srv.Close)
		if rec != nil {
			traceReplicas(srv, rec, base)
		}
		return srv, nil
	}

	if sp.nodes == 0 {
		srv, err := newServer(0)
		if err != nil {
			return nil, err
		}
		t.lookup = func(ctx context.Context, s recross.Sample) ([][]float32, lookupMeta, error) {
			res, err := srv.Lookup(ctx, s)
			if err != nil {
				return nil, lookupMeta{}, err
			}
			return res.Vectors, lookupMeta{
				queueWait: res.QueueWait, total: res.Total, batch: res.BatchSize,
				cycles: int64(res.ServiceCycles), replica: res.Replica,
			}, nil
		}
		return t, nil
	}

	nodes := make([]recross.ClusterNode, sp.nodes)
	ids := make([]string, sp.nodes)
	for i := range nodes {
		srv, err := newServer(i)
		if err != nil {
			t.close()
			return nil, err
		}
		bs, err := recross.NewBinServer(srv)
		if err != nil {
			t.close()
			return nil, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, err
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			bs.Serve(lis) // returns once bs.Close closes the listener
		}()
		t.closers = append(t.closers, func() error {
			err := bs.Close()
			<-served
			return err
		})
		ids[i] = fmt.Sprintf("n%d", i)
		bn := cluster.NewBinNode(ids[i], lis.Addr().String(), cluster.BinNodeOptions{Conns: 1})
		t.closers = append(t.closers, bn.Close)
		t.binSrvs = append(t.binSrvs, bs)
		t.binNodes = append(t.binNodes, bn)
		nodes[i] = bn
		if rec != nil {
			nodes[i] = &tracedNode{bn, rec, int64(i)}
		}
	}
	layer, err := recross.NewLayer(cfg.Spec)
	if err != nil {
		t.close()
		return nil, err
	}
	pl, err := cluster.RingPlacement(len(cfg.Spec.Tables), ids, cluster.PlacementOptions{})
	if err != nil {
		t.close()
		return nil, err
	}
	router, err := cluster.NewRouter(cluster.Options{
		Nodes: nodes, Placement: pl, Layer: layer, HedgeDelay: -1, ProbeInterval: -1,
	})
	if err != nil {
		t.close()
		return nil, err
	}
	t.router = router
	t.closers = append(t.closers, router.Close)
	t.lookup = func(ctx context.Context, s recross.Sample) ([][]float32, lookupMeta, error) {
		res, err := router.Lookup(ctx, s)
		if err != nil {
			return nil, lookupMeta{}, err
		}
		if res.Degraded {
			return nil, lookupMeta{}, fmt.Errorf("degraded answer (%d fallback ops)", res.DegradedOps)
		}
		return res.Vectors, lookupMeta{routerTotal: res.Total, cycles: int64(res.ServiceCycles)}, nil
	}
	return t, nil
}

// driver issues lookups for the load generators, remembers what each said
// about itself, and keeps every 16th answer for the correctness check.
type driver struct {
	tgt     *target
	samples []recross.Sample
	rec     *recorder // nil in the untraced run

	mu    sync.Mutex
	metas []lookupMeta
	kept  []keptAnswer
}

type keptAnswer struct {
	sample  int
	vectors [][]float32
}

func (d *driver) do(ctx context.Context, i int) error {
	si := i % len(d.samples)
	traced := d.rec != nil && d.rec.on.Load()
	var id uint64
	var start int64
	if traced {
		id = d.rec.newID()
		ctx = withSpan(ctx, id)
		start = d.rec.now()
	}
	vecs, m, err := d.tgt.lookup(ctx, d.samples[si])
	if traced {
		m.start, m.end, m.span = start, d.rec.now(), id
		s := span{id: id, name: "lookup", start: m.start, end: m.end,
			attrs: [5]int64{int64(i), 0, m.queueWait.Nanoseconds(), (m.total + m.routerTotal).Nanoseconds()}}
		if err != nil {
			s.attrs[1] = 1
		}
		d.rec.add(s)
	}
	if err != nil {
		return err
	}
	d.mu.Lock()
	if traced {
		d.metas = append(d.metas, m)
	}
	if i%16 == 0 {
		d.kept = append(d.kept, keptAnswer{si, vecs})
	}
	d.mu.Unlock()
	return nil
}

// verify compares the kept answers bit for bit with an independent
// reference layer at the workload's precision and returns the mismatches.
func (d *driver) verify(cfg recross.Config) (int, error) {
	ref, err := recross.NewLayer(cfg.Spec)
	if err != nil {
		return 0, err
	}
	if err := ref.SetPrecision(cfg.Precision); err != nil {
		return 0, err
	}
	bad := 0
	for _, k := range d.kept {
		want, err := ref.ReduceSample(d.samples[k.sample])
		if err != nil {
			return 0, err
		}
		ok := len(want) == len(k.vectors)
		for i := 0; ok && i < len(want); i++ {
			ok = recross.AlmostEqual(k.vectors[i], want[i], 0)
		}
		if !ok {
			bad++
		}
	}
	return bad, nil
}

// genSamples draws the workload's request pool.
func genSamples(sp serveSpec, seed int64, n int) ([]recross.Sample, float64, error) {
	gen, err := recross.NewGenerator(sp.cfg.Spec, seed)
	if err != nil {
		return nil, 0, err
	}
	if err := gen.SetTailMass(sp.tailMass); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	out := make([]recross.Sample, n)
	for i := range out {
		out[i] = gen.Sample()
	}
	return out, float64(time.Since(t0).Microseconds()) / float64(n), nil
}

// samplePool is how many distinct requests a serving workload cycles
// through: far more row references than any cache in the stack holds, so
// reuse across a cycle does not inflate hit rates.
const samplePool = 4096

// runServeWorkload is serve_hot, serve_cold and cluster_wire: the
// operator's use of the repository. One "lookup" is one Lookup call.
func runServeWorkload(rc runConfig) (*result, error) {
	tmpDir, err := os.MkdirTemp(rc.outDir, "cold-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)
	sp, err := serveSpecFor(rc.workload, tmpDir)
	if err != nil {
		return nil, err
	}
	samples, genUs, err := genSamples(sp, rc.seed, samplePool)
	if err != nil {
		return nil, err
	}
	m := metrics{"trace.gen_us_per_sample": genUs}
	res := &result{metrics: m}

	var tgt *target
	var mod *model
	var rec *recorder
	if rc.trace {
		rec = newRecorder()
		res.rec = rec
		var bm metrics
		if mod, bm, err = buildModel(sp.cfg); err != nil {
			return nil, err
		}
		m.merge(bm)
		sp.cfg = mod.cfg // servers reuse the profile instead of profiling again
		if tgt, err = sp.build(rec); err != nil {
			return nil, err
		}
	} else {
		setup, err := medianSetup(rc.setups, func() (func() error, error) {
			t, err := sp.build(nil)
			if err != nil {
				return nil, err
			}
			tgt = t
			return t.close, nil
		})
		if err != nil {
			return nil, err
		}
		m["setup_s"] = setup
	}
	closed := false
	defer func() {
		if !closed {
			tgt.close()
		}
	}()

	d := &driver{tgt: tgt, samples: samples, rec: rec}
	next := 0 // request index carried across phases, so each starts on fresh samples
	runOpen := func(share float64) *phase {
		p := openLoop(sp.rate, rc.dur(share), next, d.do, time.Sleep)
		next += len(p.ops)
		return p
	}
	runClosed := func(share float64) *phase {
		p := closedLoop(closedCallers, rc.dur(share), 0, next, d.do)
		next += len(p.ops)
		return p
	}

	runClosed(0.12) // warm-up: caches fill, staged wrappers get swapped in
	var timed []*phase
	if !rc.trace {
		open := runOpen(0.38)
		closedPh := runClosed(0.34)
		timed = []*phase{open, closedPh}
		so, sc := summarize(open), summarize(closedPh)
		m["lookup_p50_ms"] = so.p50
		m["cpu_ms_per_lookup"] = so.cpuMsPerOp
		m["lookups_per_s"] = sc.perSecond

		sys, err := recross.NewSystem(recross.ReCross, sp.cfg)
		if err != nil {
			return nil, err
		}
		l, err := replayModel(sys.(*recross.ReCrossSystem), sp, rc, rc.dur(0.16))
		if err != nil {
			return nil, err
		}
		m["sim_cycles_per_sample"] = l.cyclesPerSample()
		m["sim_samples_per_host_s"] = batchSize / (summarize(l.ph).p50 / 1e3)
	} else {
		// Spans and counter deltas cover the traced open loop only: the
		// stages of a lookup at the workload's fixed rate. The closed loop
		// after it gives latency at saturation and nothing else. Untraced
		// open loops on both sides of the traced one give the latency the
		// tracing overhead is quoted against, free of warm-up drift.
		plain := runOpen(0.1)
		before := takeCounters(tgt)
		memBefore := markMem()
		rec.on.Store(true)
		open := runOpen(0.25)
		rec.on.Store(false)
		memAfter := markMem()
		after := takeCounters(tgt)
		plain2 := runOpen(0.1)
		closedPh := runClosed(0.2)
		timed = []*phase{plain, open, plain2, closedPh}

		untraced := &phase{ops: append(append([]opRecord(nil), plain.ops...), plain2.ops...)}
		sp0, so, sc := summarize(untraced), summarize(open), summarize(closedPh)
		m.merge(loadgenMetrics(so, sc))
		m.merge(processMetrics(memBefore, memAfter, so.ok))
		m["process.tracing_overhead_pct"] = 100 * (so.p50All - sp0.p50All) / sp0.p50All
		m.merge(counterMetrics(before, after, so.ok))
		m.merge(spanMetrics(rec, d, tgt, rc.workload))

		l, err := replayModel(mod.sys, sp, rc, 0)
		if err != nil {
			return nil, err
		}
		m.merge(l.layerMetrics(false))
		rm, err := replayLayers(rec, tgt, sp, samples, rc)
		if err != nil {
			return nil, err
		}
		m.merge(rm)
	}

	for _, p := range timed {
		for _, op := range p.ops {
			res.attempted++
			if op.failed {
				res.failed++
			}
		}
	}
	if res.mismatched, err = d.verify(sp.cfg); err != nil {
		return nil, err
	}
	res.failed += res.mismatched

	closed = true
	if err := tgt.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if left, _ := os.ReadDir(tmpDir); len(left) > 0 {
		return nil, fmt.Errorf("cold store left %d files behind in %s", len(left), tmpDir)
	}
	return res, nil
}

// replayModel drives the workload's timing model alone on fixed 32-sample
// batches drawn from the workload's own generator: the simulated cost of
// this model at the paper's batch size, and how fast the host simulates it.
func replayModel(sys *recross.ReCrossSystem, sp serveSpec, rc runConfig, dur time.Duration) (*simLog, error) {
	gen, err := recross.NewGenerator(sp.cfg.Spec, rc.seed)
	if err != nil {
		return nil, err
	}
	if err := gen.SetTailMass(sp.tailMass); err != nil {
		return nil, err
	}
	const warm = 2
	batches, _ := genBatches(gen, warm+atLeast(int(4*rc.seconds), 4))
	l, err := runSim(sys.Run, batches[:warm], batches[warm:], dur, nil)
	if err != nil {
		return nil, err
	}
	if l.errs > 0 {
		return nil, fmt.Errorf("model replay: %d failed batches", l.errs)
	}
	return l, nil
}

// ---- traced-run analysis ----

// wireCounters sums the binary transport's counters over both ends of
// every connection.
type wireCounters struct {
	bytes, framesOut, framesIn, encodeNs, decodeNs, redials, connFails float64
}

// counters is a snapshot of every public counter the per-layer metrics are
// deltas of.
type counters struct {
	rowHits, rowMisses, rowEvictions float64
	cold                             map[string]float64 // recross_coldstore_* series
	coldFallbacks                    float64
	serve                            recross.ServeSnapshot // node 0's
	shed, retries, degraded          float64               // summed over nodes
	router                           recross.ClusterStats
	wire                             wireCounters
}

func takeCounters(t *target) counters {
	var c counters
	for i, srv := range t.servers {
		if rcache := srv.RowCache(); rcache != nil {
			st := rcache.Stats()
			c.rowHits += float64(st.Hits)
			c.rowMisses += float64(st.Misses)
			c.rowEvictions += float64(st.Evictions)
		}
		c.coldFallbacks += float64(srv.Layer().ColdFallbacks())
		snap := srv.Metrics().Snapshot()
		if i == 0 {
			c.serve = snap
			c.cold = scrapeMetrics(srv, "recross_coldstore_")
		}
		c.shed += float64(snap.Shed)
		c.retries += float64(snap.Retries)
		c.degraded += float64(snap.Degraded)
	}
	if t.router != nil {
		c.router = t.router.Stats()
	}
	addWire := func(w *recross.ClusterWireMetrics) {
		c.wire.framesOut += float64(w.FramesOut.Load())
		c.wire.framesIn += float64(w.FramesIn.Load())
		c.wire.encodeNs += float64(w.EncodeNs.Load())
		c.wire.decodeNs += float64(w.DecodeNs.Load())
		c.wire.redials += float64(w.Redials.Load())
		c.wire.connFails += float64(w.ConnFails.Load())
	}
	for _, bn := range t.binNodes {
		w := bn.WireMetrics()
		c.wire.bytes += float64(w.BytesIn.Load() + w.BytesOut.Load()) // each byte once, at the client
		addWire(w)
	}
	for _, bs := range t.binSrvs {
		addWire(bs.Metrics())
	}
	return c
}

// counterMetrics turns two counter snapshots around the traced phases into
// per-lookup figures.
func counterMetrics(a, b counters, lookups int) metrics {
	n := float64(lookups)
	m := metrics{
		"embedding.rowcache_evictions_per_lookup": (b.rowEvictions - a.rowEvictions) / n,
		"coldstore.retries":                       b.cold["retries_total"] - a.cold["retries_total"],
		"coldstore.repairs":                       b.cold["repairs_total"] - a.cold["repairs_total"],
		"coldstore.fallbacks":                     b.coldFallbacks - a.coldFallbacks,
		"serve.batch_form_ms_p50":                 b.serve.BatchForm.P50 / 1e6,
		"serve.shed":                              b.shed - a.shed,
		"serve.retries":                           b.retries - a.retries,
		"serve.degraded":                          b.degraded - a.degraded,
		"cluster.subrequests_per_lookup":          float64(b.router.Subrequests-a.router.Subrequests) / n,
		"cluster.hedges_fired":                    float64(b.router.HedgesFired - a.router.HedgesFired),
		"cluster.retries":                         float64(b.router.Retries - a.router.Retries),
		"cluster.degraded":                        float64(b.router.Degraded - a.router.Degraded),
		"wire.bytes_per_lookup":                   (b.wire.bytes - a.wire.bytes) / n,
		"wire.redials":                            b.wire.redials - a.wire.redials,
		"wire.conn_failures":                      b.wire.connFails - a.wire.connFails,
	}
	if probes := (b.rowHits + b.rowMisses) - (a.rowHits + a.rowMisses); probes > 0 {
		m["embedding.rowcache_hit_share"] = (b.rowHits - a.rowHits) / probes
	}
	hits := b.cold["page_hits_total"] - a.cold["page_hits_total"]
	if probes := hits + b.cold["page_misses_total"] - a.cold["page_misses_total"]; probes > 0 {
		m["coldstore.page_cache_hit_share"] = hits / probes
	}
	if f := b.wire.framesOut - a.wire.framesOut; f > 0 {
		m["wire.encode_ns_per_frame"] = (b.wire.encodeNs - a.wire.encodeNs) / f
	}
	if f := b.wire.framesIn - a.wire.framesIn; f > 0 {
		m["wire.decode_ns_per_frame"] = (b.wire.decodeNs - a.wire.decodeNs) / f
	}
	return m
}

// spanMetrics reads the traced open-loop phase: which Run served each
// lookup, and how the lookup's time splits into stages that sum to its
// total by construction.
func spanMetrics(rec *recorder, d *driver, t *target, workload string) metrics {
	runs := map[int64][]span{} // per replica, ordered by end
	var runMs []float64
	var cycles, batched float64
	for _, s := range rec.named("system.run") {
		runs[s.attrs[0]] = append(runs[s.attrs[0]], s)
		runMs = append(runMs, float64(s.end-s.start)/1e6)
		cycles += float64(s.attrs[2])
		batched += float64(s.attrs[1])
	}
	m := metrics{}
	if len(runMs) > 0 {
		m["core.run_ms_per_served_batch"] = median(runMs)
		m["serve.mean_batch"] = batched / float64(len(runMs))
		m["serve.service_cycles_per_sample"] = cycles / batched
	}

	subs := map[uint64][]span{} // node.lookup spans by parent lookup
	var nodeMs []float64
	for _, s := range rec.named("node.lookup") {
		subs[s.parent] = append(subs[s.parent], s)
		nodeMs = append(nodeMs, float64(s.end-s.start)/1e6)
	}
	if len(nodeMs) > 0 {
		m["cluster.node_lookup_ms_p50"] = median(nodeMs)
	}

	var queueMs, otherMs, routerMs, runShare []float64
	var sum struct{ total, router, wire, queue, run, other float64 }
	matched := 0
	for _, lm := range d.metas {
		total := lm.total // what the stages must sum to
		lo, hi := lm.start, lm.start+lm.total.Nanoseconds()
		var routerNs, wireNs float64
		if t.router != nil {
			// A cluster lookup waits for its slowest sub-request: that
			// one's stages are on the blocking path, the rest overlap it.
			var slow span
			for _, s := range subs[lm.span] {
				if s.end-s.start >= slow.end-slow.start {
					slow = s
				}
			}
			if slow.id == 0 {
				continue
			}
			lm.replica, lm.batch, lm.cycles = int(slow.attrs[0]), int(slow.attrs[1]), slow.attrs[2]
			lm.queueWait, lm.total = time.Duration(slow.attrs[3]), time.Duration(slow.attrs[4])
			total = lm.routerTotal
			routerNs = float64(lm.routerTotal.Nanoseconds() - (slow.end - slow.start))
			wireNs = float64(slow.end-slow.start) - float64(lm.total.Nanoseconds())
			lo, hi = slow.start, slow.end
		}
		run, ok := findRun(runs[int64(lm.replica)], lo, hi, lm)
		if !ok {
			continue
		}
		matched++
		runNs := float64(run.end - run.start)
		otherNs := float64(lm.total.Nanoseconds()) - float64(lm.queueWait.Nanoseconds()) - runNs
		queueMs = append(queueMs, float64(lm.queueWait.Nanoseconds())/1e6)
		otherMs = append(otherMs, otherNs/1e6)
		routerMs = append(routerMs, routerNs/1e6)
		runShare = append(runShare, runNs/float64(total.Nanoseconds()))
		sum.total += float64(total.Nanoseconds())
		sum.router += routerNs
		sum.wire += wireNs
		sum.queue += float64(lm.queueWait.Nanoseconds())
		sum.run += runNs
		sum.other += otherNs
	}
	if matched == 0 {
		return m
	}
	m["serve.queue_wait_ms_p50"] = median(queueMs)
	m["serve.other_ms_p50"] = median(otherMs)
	m["core.run_share_of_lookup"] = median(runShare)
	if t.router != nil {
		m["cluster.router_overhead_ms_p50"] = median(routerMs)
	}
	pct := func(v float64) float64 { return 100 * v / sum.total }
	fmt.Fprintf(os.Stderr, "%s: %d of %d traced lookups matched to their Run; shares of total: router %.1f%% wire %.1f%% queue_wait %.1f%% run %.1f%% other %.1f%% (sum %.1f%%)\n",
		workload, matched, len(d.metas), pct(sum.router), pct(sum.wire), pct(sum.queue), pct(sum.run), pct(sum.other),
		pct(sum.router+sum.wire+sum.queue+sum.run+sum.other))

	var readUs []float64
	for _, s := range rec.named("cold.read_page") {
		readUs = append(readUs, float64(s.end-s.start)/1e3)
	}
	if len(readUs) > 0 {
		m["coldstore.page_read_us_p50"] = median(readUs)
		m["coldstore.device_reads_per_lookup"] = float64(len(readUs)) / float64(len(d.metas))
	}
	return m
}

// findRun picks, among one replica's Run spans (ordered by end), the one
// that served the lookup: it lies inside [lo, hi] and reports the batch
// size and cycle count the answer carried.
func findRun(runs []span, lo, hi int64, lm lookupMeta) (span, bool) {
	const slack = 200_000 // ns; the two clocks are read a few calls apart
	i := sort.Search(len(runs), func(i int) bool { return runs[i].end > hi+slack })
	for i--; i >= 0 && runs[i].end >= lo; i-- {
		r := runs[i]
		if r.start >= lo-slack && r.attrs[1] == int64(lm.batch) && r.attrs[2] == lm.cycles {
			return r, true
		}
	}
	return span{}, false
}
