package recross

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recross/internal/partition"
)

// The conformance matrix: every serving path answers with the bits the
// functional layer computes at the path's storage precision, alone and in
// combination. A cell is one value of each of four axes.
var (
	topologies = []string{"single", "cluster", "peers"}
	precisions = []Precision{FP32, INT8}
	colds      = []string{"off", "on", "open"} // open: breaker forced open via FailDevice
	chaoses    = []string{"none", "replica", "node", "conn", "device"}
)

type cell struct {
	topology    string
	prec        Precision
	cold, chaos string
}

func (c cell) name() string { return fmt.Sprintf("%s/%v/%s/%s", c.topology, c.prec, c.cold, c.chaos) }

// allowed holds the axes' constraints: node and conn chaos act on a
// router's nodes and wire, device chaos on a cold tier.
func (c cell) allowed() bool {
	if (c.chaos == "node" || c.chaos == "conn") && c.topology == "single" {
		return false
	}
	return c.chaos != "device" || c.cold != "off"
}

// pairs names the six axis-value pairs a cell covers.
func (c cell) pairs() []string {
	v := []string{"topology=" + c.topology, "precision=" + c.prec.String(), "cold=" + c.cold, "chaos=" + c.chaos}
	var out []string
	for i := range v {
		for j := i + 1; j < len(v); j++ {
			out = append(out, v[i]+" × "+v[j])
		}
	}
	return out
}

// conformanceCells covers every allowed pair of axis values in 15 cells,
// and each cell covers some pair no other cell does, so dropping any cell
// uncovers a pair.
var conformanceCells = []cell{
	{"single", FP32, "open", "none"},
	{"single", INT8, "on", "device"},
	{"single", INT8, "off", "replica"},
	{"cluster", FP32, "off", "conn"},
	{"cluster", FP32, "off", "none"},
	{"cluster", FP32, "on", "device"},
	{"cluster", INT8, "open", "node"},
	{"cluster", INT8, "open", "replica"},
	{"peers", FP32, "off", "node"},
	{"peers", FP32, "on", "node"},
	{"peers", FP32, "on", "replica"},
	{"peers", INT8, "on", "conn"},
	{"peers", INT8, "on", "none"},
	{"peers", INT8, "open", "conn"},
	{"peers", INT8, "open", "device"},
}

// checkPairCoverage fails on a cell that breaks a constraint and on any
// pair of axis values some allowed cell has but no listed cell covers.
func checkPairCoverage(t *testing.T, cells []cell) {
	t.Helper()
	covered := map[string]bool{}
	for _, c := range cells {
		if !c.allowed() {
			t.Errorf("cell %s breaks an axis constraint", c.name())
		}
		for _, p := range c.pairs() {
			covered[p] = true
		}
	}
	np := len(precisions)
	for i := 0; i < 3*np*3*5; i++ { // every full assignment of the axes
		c := cell{topologies[i%3], precisions[i/3%np], colds[i/(3*np)%3], chaoses[i/(9*np)]}
		for _, p := range c.pairs() {
			if c.allowed() && !covered[p] {
				t.Errorf("no cell covers %s", p)
				covered[p] = true
			}
		}
	}
}

// TestConformance builds every cell of the matrix and holds it to the
// same invariants: a concurrent wave of lookups bit-identical to the
// reference layer at the cell's precision, every in-binary replica on its
// stack's one placement, and a Close that returns the goroutines, closes
// the listeners and empties the cold directory. Each axis value adds the
// probe of its feature.
func TestConformance(t *testing.T) {
	checkPairCoverage(t, conformanceCells)
	if testing.Short() {
		t.Skip("builds 15 stacks and clusters")
	}
	for _, c := range conformanceCells {
		t.Run(c.name(), func(t *testing.T) { runCell(t, c) })
	}
}

// TestStackComposition runs every subset of the single stack's optional
// stages (cold tier, replica chaos) at fp32 and int8, where the matrix
// holds each pair of values once, then both stages on an in-binary
// cluster: at int8 (all-stages) and at fp32. Each case is a conformance
// cell.
func TestStackComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 10 stacks and clusters")
	}
	for _, prec := range []Precision{FP32, INT8} {
		for _, c := range []cell{{"single", prec, "off", "none"}, {"single", prec, "on", "none"}, {"single", prec, "off", "replica"}, {"single", prec, "on", "replica"}} {
			name := fmt.Sprintf("%v/cold=%v,chaos=%v", prec, c.cold == "on", c.chaos == "replica")
			t.Run(name, func(t *testing.T) { runCell(t, c) })
		}
	}
	t.Run("all-stages", func(t *testing.T) { runCell(t, cell{"cluster", INT8, "on", "replica"}) })
	t.Run("fleet-cold-chaos", func(t *testing.T) { runCell(t, cell{"cluster", FP32, "on", "replica"}) })
}

// answer is what a lookup returned on either front-end.
type answer struct {
	vectors                [][]float32
	degraded, coldDegraded bool
	degradedOps            int
}

// rig is one running cell: the stacks built in this binary, the router
// fronting them (nil for single), and the fault handles.
type rig struct {
	c         cell
	cfg       Config
	stacks    []*Stack // every in-binary stack (the peers' too)
	cs        *ClusterServer
	listeners []func() error // the peers' binary listeners
	devices   []*FaultyColdDevice
	faulty    []*FaultyNode
	dials     [3]atomic.Int64 // per node

	mu    sync.Mutex
	addrs map[string]bool // every address a router dialed

	ref, fp32 *Layer // the reference layer at the cell's precision, and at fp32
}

func newRig(t *testing.T, c cell) *rig {
	cfg, opts := stackCase(t, c.cold != "off", c.chaos == "replica", c.prec)
	r := &rig{c: c, cfg: cfg, addrs: map[string]bool{}}
	var err error
	if r.ref, err = (Config{Spec: cfg.Spec, Precision: c.prec}).newLayer(); err == nil {
		r.fp32, err = Config{Spec: cfg.Spec}.newLayer()
	}
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cold != nil {
		if c.cold == "open" {
			cfg.Cold.ScrubInterval = time.Millisecond
		}
		cfg.Cold.WrapDevice = func(d ColdDevice) ColdDevice {
			fc := ColdFaultConfig{Seed: 9}
			if c.chaos == "device" {
				fc.Rates = ColdFaultRates{CorruptPage: 0.05, Stall: 0.02, ReadErr: 0.02}
				fc.Stall = 200 * time.Microsecond
			}
			fc.Seed += int64(len(r.devices)) // stores open one at a time
			dev := WrapColdDevice(d, fc, nil)
			r.devices = append(r.devices, dev)
			return dev
		}
	}
	cc := ClusterConfig{ProbeInterval: 20 * time.Millisecond, WrapDial: r.wrapDial}
	if c.chaos == "node" {
		cc.WrapNode = func(i int, n ClusterNode) ClusterNode {
			fn := WrapFaultyNode(n, NodeFaultConfig{}, i, nil) // no rates: Kill/Revive only
			r.faulty = append(r.faulty, fn)
			return fn
		}
	}
	switch c.topology {
	case "single":
		var st *Stack
		if st, err = NewStack(ReCross, cfg, 2, opts); err == nil {
			r.stacks = []*Stack{st}
		}
	case "cluster":
		cc.Nodes, cc.ReplicasPerNode, cc.Serve = 3, 2, opts
		if r.cs, err = NewClusterServer(ReCross, cfg, cc); err == nil {
			r.stacks = r.cs.Stacks
		}
	case "peers":
		err = r.startPeers(cfg, opts, cc)
	}
	if err != nil {
		r.close()
		t.Fatal(err)
	}
	t.Cleanup(func() { r.close() })
	for i, st := range r.stacks {
		if (st.Cold != nil) != (cfg.Cold != nil) || (st.Faults != nil) != (cfg.Chaos != nil) {
			t.Fatalf("stack %d handles: Cold %v, Faults %v", i, st.Cold != nil, st.Faults != nil)
		}
	}
	return r
}

// startPeers builds two stacks behind binary listeners — the cold tier and
// replica chaos live on them — and fronts one as bin://host:port and the
// other as a bare host:port.
func (r *rig) startPeers(cfg Config, opts ServeOptions, cc ClusterConfig) error {
	for i, scheme := range []string{"bin://", ""} {
		nc := cfg
		if cfg.Chaos != nil {
			fc := *cfg.Chaos
			fc.Seed += int64(2 * i)
			nc.Chaos = &fc
		}
		st, err := NewStack(ReCross, nc, 2, opts)
		if err != nil {
			return err
		}
		r.stacks = append(r.stacks, st)
		addr, closeLis, err := serveLoopback(st.Server)
		if err != nil {
			return err
		}
		r.listeners = append(r.listeners, closeLis)
		cc.Peers = append(cc.Peers, scheme+addr)
	}
	var err error
	r.cs, err = NewClusterServer(ReCross, Config{Spec: cfg.Spec, ProfileSamples: cfg.ProfileSamples, Batch: cfg.Batch, Precision: cfg.Precision}, cc)
	return err
}

// wrapDial counts node i's dials and records the addresses it reaches;
// in a conn-chaos cell the conns tear and reset.
func (r *rig) wrapDial(i int, d BinDial) BinDial {
	if r.c.chaos == "conn" {
		d = WrapFaultyBinDial(d, NodeFaultConfig{Seed: 3, Conn: ConnFaultRates{Torn: 0.1, Reset: 0.1}}, i, nil)
	}
	return func(ctx context.Context, addr string) (net.Conn, error) {
		r.dials[i].Add(1)
		r.mu.Lock()
		r.addrs[addr] = true
		r.mu.Unlock()
		if d == nil {
			var nd net.Dialer
			return nd.DialContext(ctx, "tcp", addr)
		}
		return d(ctx, addr)
	}
}

// close stops the router, the peers' listeners, then the stacks the
// router does not own; a second close finds nothing left.
func (r *rig) close() error {
	var errs []error
	if r.cs != nil {
		errs = append(errs, r.cs.Close())
	}
	for _, closeLis := range r.listeners {
		errs = append(errs, closeLis())
	}
	for _, st := range r.stacks {
		if r.c.topology != "cluster" {
			errs = append(errs, st.Close())
		}
	}
	r.cs, r.listeners, r.stacks = nil, nil, nil
	return errors.Join(errs...)
}

func (r *rig) lookup(ctx context.Context, s Sample) (answer, error) {
	if r.cs == nil {
		return stackLookup(r.stacks[0])(ctx, s)
	}
	res, err := r.cs.Lookup(ctx, s)
	if err != nil {
		return answer{}, err
	}
	return answer{res.Vectors, res.Degraded, res.ColdDegraded, res.DegradedOps}, nil
}

func stackLookup(st *Stack) func(context.Context, Sample) (answer, error) {
	return func(ctx context.Context, s Sample) (answer, error) {
		res, err := st.Lookup(ctx, s)
		if err != nil {
			return answer{}, err
		}
		return answer{vectors: res.Vectors, degraded: res.Degraded, coldDegraded: res.ColdDegraded}, nil
	}
}

// codecStep is half a quantization step of a row value in [-1, 1): the
// most one stored element can move under the precision's codec.
var codecStep = map[Precision]float64{INT8: 1.0 / 255}

// check compares one answer with the reference layer: bit-identical at
// the cell's precision and, when quantized, within pooling × max weight ×
// codecStep of the fp32 layer.
func (r *rig) check(s Sample, got answer) error {
	want, err := r.ref.ReduceSample(s)
	if err != nil {
		return err
	}
	if len(got.vectors) != len(want) {
		return fmt.Errorf("%d vectors for %d ops", len(got.vectors), len(want))
	}
	for k := range want {
		if !AlmostEqual(got.vectors[k], want[k], 0) {
			return fmt.Errorf("op %d (table %d): vector differs from the reference layer", k, s[k].Table)
		}
	}
	if r.c.prec == FP32 {
		return nil
	}
	exact, err := r.fp32.ReduceSample(s)
	if err != nil {
		return err
	}
	for k := range exact {
		bound := float64(len(s[k].Indices))*1.5*codecStep[r.c.prec] + 1e-4 // weights are in [0.5, 1.5)
		for j := range exact[k] {
			if d := math.Abs(float64(got.vectors[k][j] - exact[k][j])); d > bound {
				return fmt.Errorf("op %d lane %d: |served-fp32| = %g above the %v bound %g", k, j, d, r.c.prec, bound)
			}
		}
	}
	return nil
}

// mayDegrade: only replica and conn faults may send a wave's answer to
// the functional fallback (a node kill's fallbacks are checked by its own
// probe); a cold outage answers cold-degraded, never degraded.
func (r *rig) mayDegrade() bool { return r.c.chaos == "replica" || r.c.chaos == "conn" }

// wave submits n samples concurrently through lookup and checks every
// answer.
func (r *rig) wave(t *testing.T, lookup func(context.Context, Sample) (answer, error), gen *Generator, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for _, s := range gen.Batch(n) {
		wg.Add(1)
		go func(s Sample) {
			defer wg.Done()
			got, err := lookup(context.Background(), s)
			if err == nil {
				err = r.check(s, got)
			}
			if err == nil && got.degraded && !r.mayDegrade() {
				err = errors.New("answer degraded with no compute fault injected")
			}
			if err != nil {
				errs <- err
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func runCell(t *testing.T, c cell) {
	base := runtime.NumGoroutine()
	r := newRig(t, c)
	gen, err := NewGenerator(r.cfg.Spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	r.checkPlacements(t, gen)
	for w := 0; w < 3; w++ {
		r.wave(t, r.lookup, gen, 32)
	}
	if c.topology == "cluster" {
		pl := r.cs.Router.Placement()
		// Placement hashes node IDs, so the IDs are part of its contract.
		if want := []string{"node0", "node1", "node2"}; !reflect.DeepEqual(pl.Nodes, want) || len(r.cs.Stacks) != 3 {
			t.Fatalf("node IDs %v over %d stacks, want %v", pl.Nodes, len(r.cs.Stacks), want)
		}
		// Each in-binary node's loopback listener publishes its
		// server-side wire series on that node's /metrics.
		for _, st := range r.cs.Stacks {
			_, expo := scrape(t, st.Handler(), "/metrics")
			requireSeries(t, expo, `recross_cluster_wire_conns_open{role="server"}`)
		}
	}
	if c.prec != FP32 {
		r.probeRowBytes(t)
	}
	if c.cold != "off" {
		r.probeColdTier(t, gen)
	}
	switch c.chaos {
	case "replica":
		r.probeReplicaChaos(t, gen)
	case "node":
		r.probeNodeChaos(t, gen)
	case "conn":
		r.probeConnChaos(t)
	case "device":
		r.probeDeviceChaos(t)
	}
	if c.cold == "open" {
		r.probeBreakerOpen(t, gen)
	}
	if c.topology == "cluster" || c.cold != "off" {
		r.probeLoadgen(t)
	}

	if c.topology == "peers" {
		// The router owns its wire clients: its Close alone ends them and
		// the peers' per-conn goroutines while the peers still listen.
		if wireGoroutines() == 0 {
			t.Fatal("no wire goroutine before the router's Close")
		}
		if err := r.cs.Close(); err != nil {
			t.Fatal(err)
		}
		r.cs = nil // closed
		waitFor(t, "the router's Close to end the peers' conns", func() bool { return wireGoroutines() == 0 })
	}
	if err := r.close(); err != nil {
		t.Fatal(err)
	}
	for addr := range r.addrs {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("listener %s still accepts after Close", addr)
		}
	}
	if r.cfg.Cold != nil {
		if left, err := os.ReadDir(r.cfg.Cold.Dir); err != nil || len(left) != 0 {
			t.Errorf("cold directory after Close: %v %v", left, err)
		}
	}
	settleGoroutines(t, base)
}

// settleGoroutines waits for the goroutine count to fall back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d after Close, %d before construction\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wireGoroutines counts the goroutines running cluster code other than a
// listener's accept loop.
func wireGoroutines() (n int) {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "recross/internal/cluster.") && !strings.Contains(g, "(*BinServer).Serve(") {
			n++
		}
	}
	return n
}

// waitFor polls cond, running drive (if any) between polls, until it
// holds or 20 s pass.
func waitFor(t *testing.T, what string, cond func() bool, drive ...func()) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		for _, d := range drive {
			d()
		}
	}
}

// replicaView is what a probe sees of one replica's System.
type replicaView struct {
	wrapped bool
	pl      *partition.Placement // the inner ReCross's deployed placement
}

// probeReplicas stages a no-op update that records every replica's System
// and drives traffic until each worker has applied it.
func probeReplicas(t *testing.T, srv *Server, drive func()) map[int]replicaView {
	t.Helper()
	var mu sync.Mutex
	views := map[int]replicaView{}
	srv.StageUpdate(func(id int, sys System) (System, error) {
		v := replicaView{}
		inner := sys
		if fs, ok := sys.(*FaultySystem); ok {
			v.wrapped, inner = true, fs.Inner()
		}
		if rc, ok := inner.(*ReCrossSystem); ok {
			v.pl = rc.Placement()
		}
		mu.Lock()
		views[id] = v
		mu.Unlock()
		return sys, nil
	})
	waitFor(t, "every replica to apply the probe", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(views) == srv.Replicas()
	}, drive)
	return views
}

// checkPlacements: one plan per stack — every replica runs its stack's
// placement itself, wrapped exactly when replica chaos is on — and one
// plan per in-binary cluster.
func (r *rig) checkPlacements(t *testing.T, gen *Generator) {
	t.Helper()
	for i, st := range r.stacks {
		if st.plan == nil || (r.c.topology == "cluster" && st.plan != r.stacks[0].plan) {
			t.Fatalf("stack %d: placement %p, node 0's %p", i, st.plan, r.stacks[0].plan)
		}
		drive := func() { r.wave(t, stackLookup(st), gen, 16) }
		for id, v := range probeReplicas(t, st.Server, drive) {
			if v.wrapped != (r.c.chaos == "replica") || v.pl != st.plan {
				t.Fatalf("stack %d replica %d: wrapped %v, inner placement %p, stack's %p", i, id, v.wrapped, v.pl, st.plan)
			}
		}
	}
}

func scrape(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// series sums every sample of the named series in an exposition.
func series(expo, name string) float64 {
	var sum float64
	for _, line := range strings.Split(expo, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(rest)
		v, _ := strconv.ParseFloat(f[len(f)-1], 64)
		sum += v
	}
	return sum
}

// requireSeries fails unless every name has a sample in expo.
func requireSeries(t *testing.T, expo string, names ...string) {
	t.Helper()
	for _, name := range names {
		if !strings.Contains(expo, "\n"+name) {
			t.Errorf("/metrics lacks %q", name)
		}
	}
}

// probeRowBytes: the data plane reports the precision split — resident
// fp32 bytes, quantized logical bytes and a compression ratio above 1.
func (r *rig) probeRowBytes(t *testing.T) {
	for i, st := range r.stacks {
		_, expo := scrape(t, st.Handler(), "/metrics")
		requireSeries(t, expo, "recross_dataplane_row_bytes_fp32", "recross_dataplane_row_bytes_quantized")
		if ratio := series(expo, "recross_dataplane_row_compression_ratio"); ratio <= 1 {
			t.Errorf("stack %d: compression ratio %v, want > 1 for %v backing tables", i, ratio, r.c.prec)
		}
	}
}

// probeColdTier: without the cold region the budget-clamped DRAM regions
// cannot hold the spec; with it DRAM stays within the budget, the cold
// region holds the displaced rows, a batch prices cold-tier work, and the
// store's series ride every node's /metrics with real reads behind them.
func (r *rig) probeColdTier(t *testing.T, gen *Generator) {
	var total int64
	for _, tb := range r.cfg.Spec.Tables {
		total += tb.Rows * int64(tb.VecLen) * 4
	}
	if total < 4*coldBudgetBytes {
		t.Fatalf("spec %d B is under 4x the %d B budget", total, int64(coldBudgetBytes))
	}
	cfg := r.cfg
	cfg.placement = r.stacks[0].plan
	cfg, systems, err := cfg.replicas(ReCross, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc := systems[0].(*ReCrossSystem)
	regions := rc.Regions()
	if len(regions) != 4 {
		t.Fatalf("cold-tier ReCross has %d regions, want 4", len(regions))
	}
	if _, err := partition.SolveLP(rc.Profile(), regions[:3], cfg.Batch); err == nil {
		t.Error("LP placed the table set in DRAM alone despite the residency budget")
	}
	if _, err := partition.Greedy(rc.Profile(), regions[:3], cfg.Batch); err == nil {
		t.Error("greedy placed the table set in DRAM alone despite the residency budget")
	}
	used := rc.Placement().UsedSlots()
	rowBytes := (int64(r.c.prec.RowBytes(r.cfg.Spec.Tables[0].VecLen)) + 63) &^ 63 // a DRAM row fills whole 64 B bursts
	if dram := (used[0] + used[1] + used[2]) * rowBytes; dram > coldBudgetBytes || used[3] == 0 {
		t.Errorf("DRAM regions hold %d B (budget %d B), cold region %d rows", dram, int64(coldBudgetBytes), used[3])
	}
	st, err := rc.Run(gen.Batch(32))
	if err != nil {
		t.Fatal(err)
	}
	if st.ColdLookups == 0 || st.ColdPageReads == 0 || st.ColdCycles == 0 {
		t.Errorf("batch recorded no priced cold-tier work: %+v", st)
	}

	if files, _ := os.ReadDir(r.cfg.Cold.Dir); len(files) != len(r.stacks) {
		t.Errorf("%d cold backing files for %d stacks", len(files), len(r.stacks))
	}
	var rowReads float64
	for _, st := range r.stacks {
		_, expo := scrape(t, st.Handler(), "/metrics")
		requireSeries(t, expo, "recross_coldstore_row_reads_total", "recross_coldstore_page_hits_total",
			"recross_coldstore_page_misses_total", "recross_coldstore_page_reads_total",
			"recross_coldstore_pages_populated_total", "recross_coldstore_page_hit_rate")
		rowReads += series(expo, "recross_coldstore_row_reads_total")
	}
	if rowReads == 0 {
		t.Error("no cold store served a row read")
	}
}

// probeReplicaChaos: injected faults are observed and counted, and a
// rebuilt replica comes back wrapped on its stack's placement.
func (r *rig) probeReplicaChaos(t *testing.T, gen *Generator) {
	restarts := func() (n int64) {
		for _, st := range r.stacks {
			n += st.Metrics().Restarts.Load()
		}
		return n
	}
	before := restarts()
	waitFor(t, "chaos to force a replica rebuild", func() bool { return restarts() > before },
		func() { r.wave(t, r.lookup, gen, 32) })
	r.checkPlacements(t, gen)
	var injected, observed int64
	for _, st := range r.stacks {
		_, expo := scrape(t, st.Handler(), "/metrics")
		requireSeries(t, expo, "recross_replica_faults_panic_total", "recross_replica_restarts_total")
		snap := st.Metrics().Snapshot()
		injected += st.Faults.Total()
		observed += snap.FaultPanics + snap.FaultWedges + snap.FaultCorrupt + snap.FaultErrors
	}
	if injected == 0 || observed == 0 {
		t.Errorf("faults injected %d, observed %d; want both > 0", injected, observed)
	}
}

// probeNodeChaos kills the node owning a table no other node holds, under
// load. Nothing errs and every answer stays bit-identical; only that
// node's tables fall back; health reads N-1 available; the prober
// re-admits the node once it is revived.
func (r *rig) probeNodeChaos(t *testing.T, gen *Generator) {
	pl := r.cs.Router.Placement()
	n := len(pl.Nodes)
	victim, uniq := -1, map[int]bool{}
	for i := 0; i < n && victim < 0; i++ {
		for _, tb := range pl.UniqueTables(i) {
			victim, uniq[tb] = i, true
		}
	}
	if victim < 0 {
		t.Fatalf("no node owns a unique table; replicas %v", pl.Replicas)
	}
	uniqueOps := func(s Sample) (k int) {
		for _, op := range s {
			if uniq[op.Table] {
				k++
			}
		}
		return k
	}

	var wg sync.WaitGroup
	var errs, bad, overDegraded atomic.Int64
	var stop atomic.Bool
	for c := 0; c < 4; c++ {
		g, err := NewGenerator(r.cfg.Spec, 200+int64(c))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s := g.Sample()
				got, err := r.lookup(context.Background(), s)
				switch {
				case err != nil:
					errs.Add(1)
				case r.check(s, got) != nil:
					bad.Add(1)
				case got.degradedOps > uniqueOps(s):
					overDegraded.Add(1)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	r.faulty[victim].Kill()
	time.Sleep(250 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if errs.Load()+bad.Load()+overDegraded.Load() > 0 {
		t.Errorf("node kill: %d errors, %d answers not bit-identical, %d with more fallback ops than the victim's unique tables",
			errs.Load(), bad.Load(), overDegraded.Load())
	}
	s := gen.Sample()
	got, err := r.lookup(context.Background(), s)
	if err == nil {
		err = r.check(s, got)
	}
	if err != nil || !got.degraded || got.degradedOps != uniqueOps(s) {
		t.Errorf("victim down: err %v, degraded %v, %d fallback ops for %d unique-table ops", err, got.degraded, got.degradedOps, uniqueOps(s))
	}
	if h := r.cs.Router.Health(); h.Status != "degraded" || h.Available != n-1 {
		t.Errorf("health after kill = %q/%d available, want degraded/%d", h.Status, h.Available, n-1)
	}

	r.faulty[victim].Revive()
	waitFor(t, "the prober to re-admit the revived node", func() bool { return r.cs.Router.Health().Available == n })
	r.wave(t, r.lookup, gen, 20) // none degraded once the node is back
	if st := r.cs.Router.Stats(); st.Degraded == 0 || st.Revivals == 0 {
		t.Errorf("stats degraded=%d revivals=%d, want both > 0", st.Degraded, st.Revivals)
	}
}

// probeConnChaos: every node is reached through WrapDial, and torn and
// reset frames fail real client conns.
func (r *rig) probeConnChaos(t *testing.T) {
	for i := range r.cs.Router.Placement().Nodes {
		if r.dials[i].Load() == 0 {
			t.Errorf("node%d: WrapDial saw no dial", i)
		}
	}
	if _, expo := scrape(t, r.cs.Router.Handler(), "/metrics"); series(expo, "recross_cluster_wire_conn_failures_total") == 0 {
		t.Errorf("conn chaos moved no recross_cluster_wire_conn_failures_total:\n%s", expo)
	}
}

// probeDeviceChaos: corrupted pages are caught by their CRC and repaired,
// failed reads retried, and neither trips the breaker.
func (r *rig) probeDeviceChaos(t *testing.T) {
	var crcFails, repairs, retries int64
	for i, st := range r.stacks {
		s := st.Cold.Stats()
		crcFails, repairs, retries = crcFails+s.ChecksumFailures, repairs+s.Repairs, retries+s.Retries
		if r.c.cold == "on" && (s.BreakerOpens > 0 || st.Health().Status != "ok") {
			t.Errorf("stack %d: repairable faults degraded the tier: %d opens, health %q", i, s.BreakerOpens, st.Health().Status)
		}
	}
	if crcFails == 0 || repairs == 0 || retries == 0 {
		t.Errorf("device chaos: %d checksum failures, %d repairs, %d retries; want all > 0", crcFails, repairs, retries)
	}
}

// probeBreakerOpen fails every cold device. The scrubber's failed probes
// open each active store's breaker; those stacks report cold-degraded
// health (still 200 on /healthz) while answers stay bit-identical through
// the direct-materialization fallback. Restored, the scrubber alone walks
// each breaker half-open -> closed.
func (r *rig) probeBreakerOpen(t *testing.T, gen *Generator) {
	var active []*Stack // the stacks whose store has pages to scrub
	for _, st := range r.stacks {
		if st.Cold.Stats().Populated > 0 {
			active = append(active, st)
		}
	}
	if len(active) == 0 {
		t.Fatal("no cold store populated a page")
	}
	for _, d := range r.devices {
		d.FailDevice()
	}
	for _, st := range active {
		waitFor(t, "cold-degraded /healthz during the outage", func() bool {
			code, body := scrape(t, st.Handler(), "/healthz")
			return code == http.StatusOK && strings.Contains(body, `"cold_degraded":true`) && strings.Contains(body, `"status":"cold-degraded"`)
		})
	}
	r.wave(t, r.lookup, gen, 32)
	// A conn fault's answer comes from the router's fallback, which has no
	// cold tier to report; an answer every node served carries the flag.
	var got answer
	var err error
	waitFor(t, "an answer every node served during the outage", func() bool {
		got, err = r.lookup(context.Background(), gen.Sample())
		return err != nil || !got.degraded
	})
	if err != nil || !got.coldDegraded {
		t.Errorf("lookup during the outage: err %v, cold-degraded %v", err, got.coldDegraded)
	}
	var fallbacks int64
	for _, st := range r.stacks {
		fallbacks += st.Layer().ColdFallbacks()
	}
	if fallbacks == 0 {
		t.Error("no direct-materialization fallbacks during the outage")
	}

	for _, d := range r.devices {
		d.RestoreDevice()
	}
	for _, st := range r.stacks {
		waitFor(t, "health ok after the device is restored", func() bool { return st.Health().Status == "ok" })
	}
	r.wave(t, r.lookup, gen, 32)
	var expo string
	for _, st := range active {
		_, e := scrape(t, st.Handler(), "/metrics")
		expo += e
		if s := st.Cold.Stats(); s.BreakerState != 0 || s.BreakerOpens == 0 || s.BreakerHalfOpens == 0 || s.BreakerCloses == 0 || s.ScrubPages == 0 {
			t.Errorf("breaker state %d after %d opens, %d half-opens, %d closes (%d pages scrubbed)",
				s.BreakerState, s.BreakerOpens, s.BreakerHalfOpens, s.BreakerCloses, s.ScrubPages)
		}
	}
	requireSeries(t, expo, "recross_coldstore_breaker_state", "recross_coldstore_breaker_rejects_total",
		"recross_coldstore_breaker_opens_total", "recross_coldstore_breaker_half_opens_total",
		"recross_coldstore_breaker_closes_total", "recross_coldstore_scrub_pages_total",
		"recross_coldstore_checksum_failures_total", "recross_coldstore_repairs_total",
		"recross_dataplane_cold_fallbacks_total", "recross_requests_cold_degraded_total", "recross_cold_degraded_mode")
	if series(expo, "recross_requests_cold_degraded_total") == 0 || series(expo, "recross_cold_degraded_mode") != 0 {
		t.Error("cold-degraded requests not counted, or the mode gauge still set after recovery")
	}
}

// probeLoadgen: closed-loop load completes without errors and, over a
// cold tier with a quarter of draws redirected at the cold half of the
// rank space, with a bounded p99. A healthy cluster answers none degraded.
func (r *rig) probeLoadgen(t *testing.T) {
	opts := LoadgenOptions{Spec: r.cfg.Spec, Clients: 4, Duration: 200 * time.Millisecond}
	if r.c.cold != "off" {
		opts.TailMass = 0.25
	}
	var requests, errs, degraded int64
	var p99 time.Duration
	if r.cs != nil {
		rep, err := ClusterLoadgen(r.cs.Router, opts)
		if err != nil {
			t.Fatal(err)
		}
		requests, errs, degraded, p99 = rep.Requests, rep.Errors, rep.Degraded, rep.P99
	} else {
		rep, err := Loadgen(r.stacks[0].Server, opts)
		if err != nil {
			t.Fatal(err)
		}
		requests, errs, degraded, p99 = rep.Requests, rep.Errors, rep.Degraded, rep.P99
	}
	if requests == 0 || errs > 0 || p99 <= 0 || p99 > 2*time.Second {
		t.Errorf("loadgen: %d requests, %d errors, p99 %v", requests, errs, p99)
	}
	if degraded > 0 && !r.mayDegrade() {
		t.Errorf("loadgen: %d answers degraded with no compute fault injected", degraded)
	}
}
