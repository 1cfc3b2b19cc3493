package baseline

import (
	"reflect"
	"testing"

	"recross/internal/arch"
	"recross/internal/dram"
	"recross/internal/partition"
	"recross/internal/trace"
)

// miniSpec is a small skewed workload that drains in milliseconds.
func miniSpec() trace.ModelSpec {
	spec := trace.ModelSpec{Name: "mini"}
	for i := 0; i < 4; i++ {
		spec.Tables = append(spec.Tables, trace.TableSpec{
			Name: spec.Name + string(rune('a'+i)), Rows: 100000, VecLen: 64,
			Pooling: 8, Prob: 1, Skew: 1.0 + 0.1*float64(i),
		})
	}
	return spec
}

func miniBatch(t *testing.T, n int) trace.Batch {
	t.Helper()
	g, err := trace.NewGenerator(miniSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return g.Batch(n)
}

func allSystems(t *testing.T) map[string]arch.System {
	t.Helper()
	cfg := Config{Spec: miniSpec(), Ranks: 2}
	prof, err := partition.NewProfile(miniSpec(), 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]arch.System{}
	if s, err := NewCPU(cfg); err != nil {
		t.Fatal(err)
	} else {
		out[s.Name()] = s
	}
	if s, err := NewTensorDIMM(cfg); err != nil {
		t.Fatal(err)
	} else {
		out[s.Name()] = s
	}
	if s, err := NewRecNMP(cfg); err != nil {
		t.Fatal(err)
	} else {
		out[s.Name()] = s
	}
	if s, err := NewRankNMP(cfg); err != nil {
		t.Fatal(err)
	} else {
		out[s.Name()] = s
	}
	if s, err := NewTRiMG(cfg); err != nil {
		t.Fatal(err)
	} else {
		out[s.Name()] = s
	}
	if s, err := NewTRiMB(cfg, prof.Hists); err != nil {
		t.Fatal(err)
	} else {
		out[s.Name()] = s
	}
	return out
}

func TestAllBaselinesRunAndAccount(t *testing.T) {
	b := miniBatch(t, 4)
	lookups, _ := arch.CountBatch(b)
	for name, sys := range allSystems(t) {
		rs, err := sys.Run(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rs.Cycles <= 0 {
			t.Errorf("%s: nonpositive cycles", name)
		}
		if rs.Lookups > lookups {
			t.Errorf("%s: lookups %d exceed batch %d", name, rs.Lookups, lookups)
		}
		if rs.Lookups <= 0 {
			t.Errorf("%s: no lookups", name)
		}
		if rs.Imbalance < 1 {
			t.Errorf("%s: imbalance %f < 1", name, rs.Imbalance)
		}
		if rs.Energy.Total() <= 0 {
			t.Errorf("%s: nonpositive energy", name)
		}
		// Dedup means row hits + misses is bounded by the raw lookups —
		// times the rank count for TensorDIMM, whose vertical
		// partitioning issues one request per rank per lookup.
		bound := rs.Lookups + rs.CacheHits
		if name == "tensordimm" {
			bound *= 2
		}
		if rs.RowHits+rs.RowMisses > bound {
			t.Errorf("%s: request accounting inconsistent: %d+%d vs bound %d",
				name, rs.RowHits, rs.RowMisses, bound)
		}
	}
}

func TestLayoutCapacityCheck(t *testing.T) {
	huge := trace.ModelSpec{Name: "huge", Tables: []trace.TableSpec{
		{Name: "x", Rows: 1 << 31, VecLen: 256, Pooling: 1, Prob: 1, Skew: 0},
	}}
	if _, err := NewCPU(Config{Spec: huge, Ranks: 2}); err == nil {
		t.Fatal("over-capacity model should be rejected")
	}
	mixed := miniSpec()
	mixed.Tables[0].VecLen = 32
	if _, err := NewCPU(Config{Spec: mixed, Ranks: 2}); err == nil {
		t.Fatal("mixed vector lengths should be rejected")
	}
}

func TestCPUCacheFiltersHotLookups(t *testing.T) {
	cpu, err := NewCPU(Config{Spec: miniSpec(), Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := cpu.Run(miniBatch(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if rs.CacheHits == 0 {
		t.Fatal("LLC absorbed nothing on a skewed workload")
	}
	// LLC hits do not reach DRAM.
	if rs.DRAM.RDs >= rs.Lookups*4 {
		t.Fatal("every lookup reached DRAM despite the LLC")
	}
	// CPU reads are host-consumed.
	if rs.DRAM.BurstsToHost == 0 || rs.DRAM.BurstsToRank != 0 {
		t.Fatalf("CPU consumer accounting wrong: %+v", rs.DRAM)
	}
}

func TestTensorDIMMActivatesEveryRank(t *testing.T) {
	td, err := NewTensorDIMM(Config{Spec: miniSpec(), Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := td.Run(miniBatch(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Vertical partitioning: both ranks see every lookup, so per-rank
	// gather counts are equal and nonzero.
	if len(rs.NodeLoads) != 2 || rs.NodeLoads[0] == 0 || rs.NodeLoads[0] != rs.NodeLoads[1] {
		t.Fatalf("vertical partitioning should balance ranks exactly: %v", rs.NodeLoads)
	}
	if rs.Imbalance != 1 {
		t.Fatalf("TensorDIMM imbalance = %f, want exactly 1", rs.Imbalance)
	}
}

func TestRecNMPCacheReducesTraffic(t *testing.T) {
	cfg := Config{Spec: miniSpec(), Ranks: 2}
	withCache, err := NewRecNMP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noCache, err := NewRankNMP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := miniBatch(t, 8)
	rc, err := withCache.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := noCache.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if rc.CacheHits == 0 {
		t.Fatal("RecNMP cache absorbed nothing on a skewed workload")
	}
	if rc.DRAM.RDs >= rn.DRAM.RDs {
		t.Fatal("cache did not reduce DRAM reads")
	}
	if rc.Cycles >= rn.Cycles {
		t.Fatal("RecNMP with cache not faster than plain rank NMP")
	}
	if withCache.Name() != "recnmp" || noCache.Name() != "rank-nmp" {
		t.Fatal("names wrong")
	}
}

func TestTRiMConsumerLevels(t *testing.T) {
	cfg := Config{Spec: miniSpec(), Ranks: 2}
	tg, err := NewTRiMG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTRiMB(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := miniBatch(t, 2)
	rg, err := tg.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := tb.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if rg.DRAM.BurstsToBG == 0 || rg.DRAM.BurstsToBank != 0 {
		t.Fatalf("TRiM-G consumer accounting wrong: %+v", rg.DRAM)
	}
	if rb.DRAM.BurstsToBank == 0 || rb.DRAM.BurstsToBG != 0 {
		t.Fatalf("TRiM-B consumer accounting wrong: %+v", rb.DRAM)
	}
}

func TestTRiMBReplicationBalancesHotRows(t *testing.T) {
	// A single ultra-hot table: without replication the hot rows pin a few
	// banks; with replication the per-bank imbalance must drop.
	spec := trace.ModelSpec{Name: "hot", Tables: []trace.TableSpec{
		{Name: "h", Rows: 200000, VecLen: 64, Pooling: 16, Prob: 1, Skew: 1.4},
	}}
	g, err := trace.NewGenerator(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := partition.NewProfile(spec, 9, 500)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Batch(16)
	cfg := Config{Spec: spec, Ranks: 2}
	plain, err := NewTRiMB(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := NewTRiMB(cfg, prof.Hists)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := replicated.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Imbalance >= rp.Imbalance {
		t.Fatalf("replication did not reduce imbalance: %.2f -> %.2f",
			rp.Imbalance, rr.Imbalance)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Spec: miniSpec()}.withDefaults()
	if c.Ranks != 2 {
		t.Fatalf("default ranks = %d, want 2", c.Ranks)
	}
	if c.Tm != dram.DDR5Timing() {
		t.Fatal("default timing not DDR5")
	}
	if err := c.Energy.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTRiMBSchedulerIdentity: TRiM-B on a production-sized Criteo Kaggle
// batch drains to identical RunStats on the fast arbiter and on the
// Reference scan scheduler — FR-FCFS over every bank of the channel, the
// baseline whose command stream differs most from ReCross's.
func TestTRiMBSchedulerIdentity(t *testing.T) {
	spec := trace.CriteoKaggle(64, 80)
	prof, err := partition.NewProfile(spec, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	var systems [2]*TRiMB
	for i := range systems {
		if systems[i], err = newTRiMB(Config{Spec: spec, Ranks: 2}, prof.Hists, i == 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := trace.NewGenerator(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		b := g.Batch(32)
		got, err := systems[0].Run(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := systems[1].Run(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: fast %+v\nreference %+v", i, got, want)
		}
	}
}

func BenchmarkTRiMBRun(b *testing.B) {
	cfg := Config{Spec: miniSpec(), Ranks: 2}
	sys, err := NewTRiMB(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := trace.NewGenerator(miniSpec(), 42)
	batch := g.Batch(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFAFNIRTreeReducesResultTraffic(t *testing.T) {
	cfg := Config{Spec: miniSpec(), Ranks: 8}
	plain, err := NewRankNMP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	faf, err := NewFAFNIR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faf.Name() != "fafnir" {
		t.Fatal("name wrong")
	}
	b := miniBatch(t, 8)
	rp, err := plain.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := faf.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if rf.DRAM.HostResultTx >= rp.DRAM.HostResultTx {
		t.Fatalf("tree did not reduce result traffic: %d vs %d",
			rf.DRAM.HostResultTx, rp.DRAM.HostResultTx)
	}
	if rf.Cycles > rp.Cycles {
		t.Fatalf("FAFNIR (%d) slower than plain rank NMP (%d)", rf.Cycles, rp.Cycles)
	}
}
