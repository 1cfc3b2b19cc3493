package core

import (
	"testing"

	"recross/internal/coldstore"
	"recross/internal/kernels"
	"recross/internal/trace"
)

// TestQuantizedBurstsOnBus checks the timing model charges encoded row
// bytes per gather: at vecLen 64 an fp32 vector is 4 DDR5 bursts, fp16 is
// 2 and int8 (64 codes + 8-byte header) is 2, while partial-sum traffic
// stays at the fp32 burst count.
func TestQuantizedBurstsOnBus(t *testing.T) {
	for _, tc := range []struct {
		prec   kernels.Precision
		bursts int
	}{
		{kernels.FP32, 4}, {kernels.FP16, 2}, {kernels.INT8, 2},
	} {
		cfg := miniConfig()
		cfg.Precision = tc.prec
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.bursts != tc.bursts {
			t.Fatalf("%v: gather bursts %d, want %d", tc.prec, r.bursts, tc.bursts)
		}
		if r.psumBursts != 4 {
			t.Fatalf("%v: psum bursts %d, want fp32's 4", tc.prec, r.psumBursts)
		}
	}
}

// TestQuantizedRunFasterAndCheaper checks the end-to-end effect: the same
// batch at int8 storage moves fewer DRAM bursts and finishes in no more
// cycles than fp32 (the partitioner additionally sees compressed regions,
// so the placement can only improve).
func TestQuantizedRunFasterAndCheaper(t *testing.T) {
	run := func(prec kernels.Precision) *struct {
		cycles int64
		bursts int64
	} {
		cfg := miniConfig()
		cfg.Precision = prec
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.NewGenerator(cfg.Spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := r.Run(g.Batch(8))
		if err != nil {
			t.Fatal(err)
		}
		d := rs.DRAM
		return &struct {
			cycles int64
			bursts int64
		}{int64(rs.Cycles), d.BurstsToRank + d.BurstsToBG + d.BurstsToBank}
	}
	fp32 := run(kernels.FP32)
	i8 := run(kernels.INT8)
	if i8.bursts >= fp32.bursts {
		t.Fatalf("int8 moved %d bursts, fp32 %d — quantization saved nothing", i8.bursts, fp32.bursts)
	}
	if i8.cycles > fp32.cycles {
		t.Fatalf("int8 batch took %d cycles, fp32 %d", i8.cycles, fp32.cycles)
	}
}

// TestQuantizedRegionsCompression checks the regions advertise the burst
// ratio to the partitioner, and the cold tier the exact codec ratio.
func TestQuantizedRegionsCompression(t *testing.T) {
	cfg := miniConfig()
	cfg.Precision = kernels.INT8
	cfg.ColdTier = &coldstore.Config{CapBytes: 64 << 20, Precision: kernels.INT8}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	regs := r.Regions()
	if len(regs) != 4 {
		t.Fatalf("got %d regions, want 4", len(regs))
	}
	for _, reg := range regs[:3] {
		if reg.Compression != 2 { // 4 fp32 bursts / 2 int8 bursts at vecLen 64
			t.Fatalf("region %s compression %.2f, want 2", reg.Name, reg.Compression)
		}
	}
	if want := kernels.INT8.Ratio(64); regs[3].Compression != want {
		t.Fatalf("cold compression %.3f, want codec ratio %.3f", regs[3].Compression, want)
	}
}

// TestRunTrainingReturnsResultsLikeRun: a training step's forward pass
// returns one fp32 result vector per op that touched DRAM, as Run does —
// not an encoded row per op under int8, and nothing over the channel for an
// op served wholly by the flash tier.
func TestRunTrainingReturnsResultsLikeRun(t *testing.T) {
	i8 := miniConfig()
	i8.Precision = kernels.INT8
	cold := miniConfig()
	cold.Spec = trace.ModelSpec{Name: "cold-core", Tables: []trace.TableSpec{
		{Name: "one-hot", Rows: 400000, VecLen: 64, Pooling: 1, Prob: 1, Skew: 0.6},
		{Name: "multi-hot", Rows: 400000, VecLen: 64, Pooling: 4, Prob: 1, Skew: 0.9},
	}}
	cold.ColdTier = &coldstore.Config{CapBytes: 1 << 30, ResidentBudgetBytes: 4 << 20}
	for name, cfg := range map[string]Config{"int8": i8, "cold": cold} {
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.NewGenerator(cfg.Spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		b := g.Batch(16)
		run, err := r.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		train, err := r.RunTraining(b)
		if err != nil {
			t.Fatal(err)
		}
		_, ops := archCountBatch(b)
		if name == "cold" && run.DRAM.HostResultTx >= ops*int64(r.psumBursts) {
			t.Fatalf("cold: no op was served wholly from flash (%d result bursts for %d ops)", run.DRAM.HostResultTx, ops)
		}
		if train.DRAM.HostResultTx != run.DRAM.HostResultTx {
			t.Errorf("%s: RunTraining streamed %d result bursts, Run %d", name, train.DRAM.HostResultTx, run.DRAM.HostResultTx)
		}
	}
}
