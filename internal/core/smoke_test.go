package core

import (
	"testing"

	"recross/internal/arch"
	"recross/internal/baseline"
	"recross/internal/partition"
	"recross/internal/trace"
)

// testSpec is a scaled-down skewed workload that drains in milliseconds.
func testSpec() trace.ModelSpec {
	spec := trace.ModelSpec{Name: "smoke"}
	for i := 0; i < 8; i++ {
		spec.Tables = append(spec.Tables, trace.TableSpec{
			Name: trace.CriteoKaggle(64, 40).Tables[i].Name, Rows: 400000,
			VecLen: 64, Pooling: 40, Prob: 1,
			Skew: 0.9 + 0.05*float64(i%6),
		})
	}
	return spec
}

// TestSmokeOrdering runs every architecture on the same batch and logs the
// cycle counts; used to calibrate the integration thresholds.
func TestSmokeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke comparison in short mode")
	}
	spec := testSpec()
	cfg := baseline.Config{Spec: spec, Ranks: 2}
	g, err := trace.NewGenerator(spec, 777)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Batch(16)

	systems := map[string]arch.System{}
	if s, err := baseline.NewCPU(cfg); err != nil {
		t.Fatal(err)
	} else {
		systems["cpu"] = s
	}
	if s, err := baseline.NewTensorDIMM(cfg); err != nil {
		t.Fatal(err)
	} else {
		systems["tensordimm"] = s
	}
	if s, err := baseline.NewRecNMP(cfg); err != nil {
		t.Fatal(err)
	} else {
		systems["recnmp"] = s
	}
	if s, err := baseline.NewTRiMG(cfg); err != nil {
		t.Fatal(err)
	} else {
		systems["trim-g"] = s
	}
	prof, err := trace.NewGenerator(spec, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := baseline.NewTRiMB(cfg, partition.CountDraws(prof, 2000)); err != nil {
		t.Fatal(err)
	} else {
		systems["trim-b"] = s
	}
	rcfg := DefaultConfig(spec)
	rcfg.Batch = 16
	if s, err := New(rcfg); err != nil {
		t.Fatal(err)
	} else {
		systems["recross"] = s
	}

	cycles := map[string]float64{}
	for name, s := range systems {
		rs, err := s.Run(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cycles[name] = float64(rs.Cycles)
		t.Logf("%-11s cycles=%9d hits=%6d misses=%6d imbalance=%5.2f energy=%.3gJ",
			name, rs.Cycles, rs.RowHits, rs.RowMisses, rs.Imbalance, rs.Energy.Total())
	}
	for name := range systems {
		t.Logf("speedup over cpu: %-11s %.2fx", name, cycles["cpu"]/cycles[name])
	}
}
