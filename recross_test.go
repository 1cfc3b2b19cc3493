package recross

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func miniSpec() ModelSpec {
	spec := ModelSpec{Name: "facade-mini"}
	for i := 0; i < 3; i++ {
		spec.Tables = append(spec.Tables, TableSpec{
			Name: spec.Name + string(rune('a'+i)), Rows: 50000, VecLen: 64,
			Pooling: 4, Prob: 1, Skew: 1.1,
		})
	}
	return spec
}

func TestNewSystemAllArches(t *testing.T) {
	profile, err := NewProfile(miniSpec(), 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: miniSpec(), Profile: profile, ProfileSamples: 100}
	gen, err := NewGenerator(miniSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	b := gen.Batch(2)
	for _, a := range Arches() {
		sys, err := NewSystem(a, cfg)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if sys.Name() != string(a) {
			t.Fatalf("name %q != arch %q", sys.Name(), a)
		}
		stats, err := sys.Run(b)
		if err != nil {
			t.Fatalf("%s run: %v", a, err)
		}
		if stats.Cycles <= 0 {
			t.Fatalf("%s: no cycles", a)
		}
	}
}

func TestNewSystemErrors(t *testing.T) {
	if _, err := NewSystem("bogus", Config{Spec: miniSpec()}); err == nil {
		t.Fatal("unknown arch should error")
	}
	if _, err := NewSystem(CPU, Config{}); err == nil {
		t.Fatal("empty spec should error")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	k := CriteoKaggle(64, 80)
	if len(k.Tables) != 26 {
		t.Fatalf("kaggle tables = %d", len(k.Tables))
	}
	tb := CriteoTerabyte(64, 80)
	if tb.TotalBytes() <= k.TotalBytes() {
		t.Fatal("terabyte not larger than kaggle")
	}
	if ChannelBytes(2) != 32<<30 {
		t.Fatalf("2-rank channel = %d bytes, want 32 GiB", ChannelBytes(2))
	}
}

func TestFacadeReCrossInternals(t *testing.T) {
	rc, err := NewReCross(DefaultReCrossConfig(miniSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Regions()) != 3 {
		t.Fatal("want three regions")
	}
	layer, err := NewLayer(miniSpec())
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := NewGenerator(miniSpec(), 5)
	out, err := rc.ReduceBatch(layer, gen.Batch(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0]) != 3 {
		t.Fatalf("reduce shape wrong: %d samples", len(out))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Spec: miniSpec()}.withDefaults()
	if c.Ranks != 2 || c.Batch != 32 || c.ProfileSamples != 2000 || c.ProfileSeed != 12345 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestNewSystemMultiChannel(t *testing.T) {
	cfg := Config{Spec: miniSpec(), Channels: 3, ProfileSamples: 100}
	sys, err := NewSystem(ReCross, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := NewGenerator(miniSpec(), 2)
	b := gen.Batch(2)
	multi, err := sys.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewSystem(ReCross, Config{Spec: miniSpec(), ProfileSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	one, err := single.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cycles >= one.Cycles {
		t.Fatalf("3 channels (%d cycles) not faster than 1 (%d)", multi.Cycles, one.Cycles)
	}
}

func TestConfigProfileSeed(t *testing.T) {
	// Unset seed takes the documented default.
	c := Config{Spec: miniSpec()}.withDefaults()
	if c.ProfileSeed != 12345 {
		t.Fatalf("unset seed = %d, want default 12345", c.ProfileSeed)
	}
	// An explicit non-zero seed is preserved.
	c = Config{Spec: miniSpec(), ProfileSeed: 7}.withDefaults()
	if c.ProfileSeed != 7 {
		t.Fatalf("seed 7 coerced to %d", c.ProfileSeed)
	}
	// And an unset seed must build a system that actually profiled with
	// the default: identical to passing a seed-12345 profile explicitly.
	prof, err := NewProfile(miniSpec(), 12345, 50)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSystem(ReCross, Config{Spec: miniSpec(), Profile: prof, ProfileSamples: 50})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSystem(ReCross, Config{Spec: miniSpec(), ProfileSamples: 50})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := NewGenerator(miniSpec(), 3)
	b := gen.Batch(2)
	w, err := want.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	g, err := got.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if w.Cycles != g.Cycles {
		t.Fatalf("default-seed system diverges: %d vs %d cycles", g.Cycles, w.Cycles)
	}
}

// TestParallelReplicaIsolation is the concurrency audit of the serving
// layer's hot path: two independent System instances over the SAME
// ModelSpec and the SAME shared *Profile (and, for ReCross, the SAME
// placement) must be drivable from parallel goroutines with identical
// results — i.e. construction only reads the profile, Run only reads the
// placement, and Run touches no other shared state. Run under -race (the CI
// matrix does), this proves replica isolation; a single System instance
// remains single-goroutine by contract.
func TestParallelReplicaIsolation(t *testing.T) {
	spec := miniSpec()
	prof, err := NewProfile(spec, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: spec, Profile: prof, ProfileSamples: 200}
	for _, a := range []Arch{ReCross, TRiMB} {
		replicas, err := cfg.ReplicaSystems(a, 2)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		gen, _ := NewGenerator(spec, 11)
		batches := []Batch{gen.Batch(4), gen.Batch(4)}

		type res struct {
			st  *RunStats
			err error
		}
		out := make([][]res, 2)
		done := make(chan struct{})
		for r := 0; r < 2; r++ {
			out[r] = make([]res, len(batches))
			go func(r int) {
				defer func() { done <- struct{}{} }()
				for i, b := range batches {
					st, err := replicas[r].Run(b)
					out[r][i] = res{st, err}
				}
			}(r)
		}
		<-done
		<-done
		for i := range batches {
			for r := 0; r < 2; r++ {
				if out[r][i].err != nil {
					t.Fatalf("%s replica %d batch %d: %v", a, r, i, out[r][i].err)
				}
			}
			if a, b := out[0][i].st.Cycles, out[1][i].st.Cycles; a != b {
				t.Errorf("replicas diverged on batch %d: %d vs %d cycles (shared state?)", i, a, b)
			}
		}
	}
}

func TestFacadeServer(t *testing.T) {
	cfg := Config{Spec: miniSpec(), ProfileSamples: 100}
	s, err := NewServer(ReCross, cfg, 2, ServeOptions{
		MaxBatch: 4,
		MaxDelay: time.Millisecond,
		Policy:   ShedOnOverload,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Loadgen(s, LoadgenOptions{
		Spec:     miniSpec(),
		Clients:  4,
		Duration: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("loadgen completed no requests")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	gen, _ := NewGenerator(miniSpec(), 1)
	if _, err := s.Lookup(context.Background(), gen.Sample()); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("lookup after close = %v, want ErrServerClosed", err)
	}
}

// coldSpec is ~24 MB of tables, ~4.6x stackCase's 5 MiB DRAM residency
// budget — the regime the flash-backed cold tier exists for. The four
// small tables give a cluster's nodes tables of their own.
func coldSpec() ModelSpec {
	spec := ModelSpec{Name: "conformance", Tables: []TableSpec{
		{Name: "big-a", Rows: 60000, VecLen: 64, Pooling: 48, Prob: 1, Skew: 1.3},
		{Name: "big-b", Rows: 30000, VecLen: 64, Pooling: 32, Prob: 1, Skew: 1.2},
	}}
	for i := 0; i < 4; i++ {
		spec.Tables = append(spec.Tables, TableSpec{Name: fmt.Sprintf("small-%d", i), Rows: 1000, VecLen: 64, Pooling: 8, Prob: 1, Skew: 1.1})
	}
	return spec
}

const coldBudgetBytes = 5 << 20

// stackCase configures one composition over coldSpec: the cold tier (at
// the DRAM tiers' codec, so every path serves the reference layer's bits)
// and replica chaos, each optional. Two failed reads open the breaker and,
// with the cooldown parked beyond the test, only scrubber probes close it.
func stackCase(t *testing.T, cold, chaosOn bool, prec Precision) (Config, ServeOptions) {
	cfg := Config{Spec: coldSpec(), ProfileSamples: 800, Batch: 16, Precision: prec}
	if cold {
		cfg.Cold = &ColdTierConfig{
			CapBytes: 64 << 20, ResidentBudgetBytes: coldBudgetBytes, InStorageReduce: true,
			Dir: t.TempDir(), Precision: prec,
			Retries: 1, BreakerThreshold: 2, BreakerProbes: 1, BreakerCooldown: time.Hour,
		}
	}
	if chaosOn {
		cfg.Chaos = &FaultConfig{
			Rates: FaultRates{Latency: 0.05, Corrupt: 0.03, Panic: 0.02, Wedge: 0.005},
			Stall: 100 * time.Microsecond,
			Seed:  7,
		}
	}
	return cfg, ServeOptions{
		MaxBatch: 16, MaxDelay: time.Millisecond, RowCacheBytes: 1 << 20,
		WedgeTimeout: 250 * time.Millisecond, RestartBackoff: time.Millisecond,
	}
}

// listenBin serves srv's binary wire on a loopback port until the test
// ends and returns the listener's address.
func listenBin(t *testing.T, srv *Server) string {
	t.Helper()
	addr, closeLis, err := serveLoopback(srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeLis() })
	return addr
}

// TestClusterConfigValidation: a bad ClusterConfig value fails before
// any node is built (WrapNode never runs), with an error naming the
// field — or, for a peer given in another scheme, the -bin-addr
// listener to give instead.
func TestClusterConfigValidation(t *testing.T) {
	cfg := Config{Spec: coldSpec(), ProfileSamples: 500, Batch: 16}
	for _, c := range []struct {
		cc   ClusterConfig
		want string
	}{
		{ClusterConfig{Nodes: -1}, "Nodes"},
		{ClusterConfig{Nodes: 1, WireConns: -1}, "WireConns"},
		{ClusterConfig{Nodes: 1, NodeTimeout: -time.Second}, "NodeTimeout"},
		{ClusterConfig{Peers: []string{"127.0.0.1:1"}, NodeTimeout: -time.Second}, "NodeTimeout"},
		{ClusterConfig{Peers: []string{"http://h:1"}}, "-bin-addr"},
	} {
		built := false
		c.cc.WrapNode = func(_ int, n ClusterNode) ClusterNode { built = true; return n }
		cs, err := NewClusterServer(ReCross, cfg, c.cc)
		if err == nil {
			cs.Close()
			t.Errorf("want: %s rejected; got a cluster", c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || built {
			t.Errorf("want: %s rejected before any node is built; got %q (nodes built: %v)", c.want, err, built)
		}
	}
}

// TestPeersAreBinary: peers given as bin://host:port and as a bare
// host:port both reach a binary listener, and the router fronting them
// answers bit-identically to the functional layer, nothing degraded.
func TestPeersAreBinary(t *testing.T) {
	spec := coldSpec()
	spec.Tables = spec.Tables[2:] // the small tables
	cfg := Config{Spec: spec, ProfileSamples: 500, Batch: 16}
	var peers []string
	for _, scheme := range []string{"bin://", ""} {
		srv, err := NewServer(ReCross, cfg, 1, ServeOptions{MaxBatch: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		peers = append(peers, scheme+listenBin(t, srv))
	}
	cs, err := NewClusterServer(ReCross, cfg, ClusterConfig{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	layer, err := NewLayer(spec)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sample := range gen.Batch(8) {
		res, err := cs.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatal(err)
		}
		want, err := layer.ReduceSample(sample)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded || !reflect.DeepEqual(res.Vectors, want) {
			t.Fatalf("lookup over binary peers: degraded=%v, vectors identical=%v", res.Degraded, reflect.DeepEqual(res.Vectors, want))
		}
	}
}

// TestRebuildSeedPerReplica: a rebuilt replica's chaos stream depends only
// on its own incarnation count, not on the order in which other replicas
// restarted — replicas restart concurrently, so a stack-wide count would
// make the fault campaign depend on scheduling.
func TestRebuildSeedPerReplica(t *testing.T) {
	cfg := Config{Spec: miniSpec(), Chaos: &FaultConfig{Rates: FaultRates{Corrupt: 0.5}, Seed: 7}}
	gen, err := NewGenerator(cfg.Spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch := gen.Batch(2)
	// faults rebuilds replicas in order and returns which of 24 batches
	// replica 0's first rebuild (its second incarnation) corrupts.
	faults := func(order ...int) []bool {
		st := &Stack{Faults: NewFaultInjector()}
		rebuild := st.rebuilder(CPU, cfg, 2)
		var sys System
		for _, id := range order {
			s, err := rebuild(id)
			if err != nil {
				t.Fatal(err)
			}
			if id == 0 && sys == nil {
				sys = s
			}
		}
		var got []bool
		for i := 0; i < 24; i++ {
			rs, err := sys.Run(batch)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rs.Cycles < 0)
		}
		return got
	}
	if a, b := faults(0, 1, 0), faults(1, 0, 0); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("replica 0's second incarnation depends on restart order:\n%v\n%v", a, b)
	}
}
