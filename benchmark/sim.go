package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"recross"
	"recross/internal/arch"
	"recross/internal/dram"
	"recross/internal/memctrl"
	"recross/internal/partition"
	"recross/internal/sim"
)

// batchSize is the paper's default batch and the unit every simulated
// figure here is quoted for.
const batchSize = 32

// simLog is the outcome of driving one timing model over fixed batches.
// Everything but ph is accumulated over the first `counted` calls only, so
// it repeats exactly for a seed however long the host-time loop went on.
type simLog struct {
	ph     *phase
	cycles []int64
	wallNs []int64 // host time of each counted call

	samples                        int64
	acts, rds, wrs, saSwitch       int64
	rowHits, rowMisses             int64
	peOps, coldCycles              int64
	joules, imbalanceSum, opP99Sum float64
	errs                           int
}

type runFunc func(recross.Batch) (*recross.RunStats, error)

// runSim fills the modelled caches and row buffers on the warm batches,
// then calls run on each work batch in order (the counted calls), and keeps
// cycling over them until dur has passed so host-time medians rest on
// enough calls. With rec set, each call is recorded as a span.
func runSim(run runFunc, warm, work []recross.Batch, dur time.Duration, rec *recorder) (*simLog, error) {
	for _, b := range warm {
		if _, err := run(b); err != nil {
			return nil, fmt.Errorf("warm-up batch: %w", err)
		}
	}
	counted := len(work)
	l := &simLog{}
	l.ph = closedLoop(1, dur, counted, 0, func(_ context.Context, i int) error {
		b := work[i%counted]
		var st *recross.RunStats
		var err error
		call := func() { st, err = run(b) }
		var d time.Duration
		if rec != nil {
			d = rec.timed("system.run", call)
		} else {
			t0 := time.Now()
			call()
			d = time.Since(t0)
		}
		if err != nil {
			l.errs++
			return err
		}
		if i < counted {
			l.add(st, len(b), d)
		}
		return nil
	})
	return l, nil
}

func (l *simLog) add(st *recross.RunStats, samples int, d time.Duration) {
	l.cycles = append(l.cycles, int64(st.Cycles))
	l.wallNs = append(l.wallNs, d.Nanoseconds())
	l.samples += int64(samples)
	l.acts += st.DRAM.ACTs
	l.rds += st.DRAM.RDs
	l.wrs += st.DRAM.WRs
	l.saSwitch += st.DRAM.SubarraySwitch
	l.rowHits += st.RowHits
	l.rowMisses += st.RowMisses
	l.peOps += st.Ops.Adds + st.Ops.Mults
	l.coldCycles += int64(st.ColdCycles)
	l.joules += st.Energy.Total()
	l.imbalanceSum += st.Imbalance
	l.opP99Sum += float64(st.OpP99)
}

func (l *simLog) totalCycles() int64 {
	var t int64
	for _, c := range l.cycles {
		t += c
	}
	return t
}

func (l *simLog) cyclesPerSample() float64 {
	return float64(l.totalCycles()) / float64(l.samples)
}

// medianWallMs is the median host time of one counted call.
func (l *simLog) medianWallMs() float64 {
	xs := make([]float64, len(l.wallNs))
	for i, ns := range l.wallNs {
		xs[i] = float64(ns) / 1e6
	}
	return median(xs)
}

// checksum hashes the counted cycle sequence (FNV-1a, folded to 48 bits so
// it survives a float64): equal checksums mean the simulated behaviour of
// two commits was identical batch for batch.
func (l *simLog) checksum() float64 {
	h := uint64(14695981039346656037)
	for _, c := range l.cycles {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(c>>s) & 0xff
			h *= 1099511628211
		}
	}
	return float64(h & (1<<48 - 1))
}

// layerMetrics turns the counted statistics into the per-layer metrics of
// the simulated side. train selects which core.* names the host times go to.
func (l *simLog) layerMetrics(train bool) metrics {
	n := float64(len(l.cycles))
	perSample := func(v int64) float64 { return float64(v) / float64(l.samples) }
	var wall int64
	for _, ns := range l.wallNs {
		wall += ns
	}
	m := metrics{
		"core.sim_cycles_per_host_s":        float64(l.totalCycles()) / (float64(wall) / 1e9),
		"core.imbalance":                    l.imbalanceSum / n,
		"core.op_p99_cycles":                l.opP99Sum / n,
		"core.cold_cycles_share":            float64(l.coldCycles) / float64(l.totalCycles()),
		"dram.acts_per_sample":              perSample(l.acts),
		"dram.rds_per_sample":               perSample(l.rds),
		"dram.wrs_per_sample":               perSample(l.wrs),
		"dram.subarray_switches_per_sample": perSample(l.saSwitch),
		"nmp.pe_ops_per_sample":             perSample(l.peOps),
		"energy.nj_per_sample":              l.joules * 1e9 / float64(l.samples),
		"sim.cycles_checksum":               l.checksum(),
	}
	if hm := l.rowHits + l.rowMisses; hm > 0 {
		m["dram.row_hit_share"] = float64(l.rowHits) / float64(hm)
	}
	ms, cyc := "core.run_ms_per_batch32", "core.cycles_per_batch32"
	if train {
		ms, cyc = "core.train_ms_per_batch32", "core.train_cycles_per_batch32"
	}
	m[ms] = l.medianWallMs()
	m[cyc] = float64(l.totalCycles()) / n
	return m
}

// model is the timing side of a workload built piece by piece, so the
// traced run can time the profiler, the LP and the system build apart.
type model struct {
	sys *recross.ReCrossSystem
	cfg recross.Config // with Profile filled in
}

// buildModel profiles, builds one ReCross system and re-solves its LP,
// reporting the host time of each step.
func buildModel(cfg recross.Config) (*model, metrics, error) {
	t0 := time.Now()
	prof, err := recross.NewProfile(cfg.Spec, 12345, 2000) // Config's defaults
	if err != nil {
		return nil, nil, err
	}
	profileMs := msSince(t0)
	cfg.Profile = prof

	t0 = time.Now()
	sys, err := recross.NewSystem(recross.ReCross, cfg)
	if err != nil {
		return nil, nil, err
	}
	buildMs := msSince(t0)
	rc := sys.(*recross.ReCrossSystem)

	// The build above already solved the LP; solving it again over the
	// regions it derived times the solver alone.
	t0 = time.Now()
	if _, err := partition.SolveLP(prof, rc.Regions(), batchSize); err != nil {
		return nil, nil, err
	}
	return &model{rc, cfg}, metrics{
		"partition.profile_ms":  profileMs,
		"partition.solve_lp_ms": msSince(t0),
		"core.build_ms":         buildMs,
	}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// genBatches draws n batches of 32 and reports the generator's cost.
func genBatches(gen *recross.Generator, n int) ([]recross.Batch, float64) {
	t0 := time.Now()
	out := make([]recross.Batch, n)
	for i := range out {
		out[i] = gen.Batch(batchSize)
	}
	return out, float64(time.Since(t0).Microseconds()) / float64(n*batchSize)
}

// verifyBatches checks every 16th counted batch: the cross-level PE tree's
// functional result against the flat reference layer. The tree folds
// partial sums in a different order than the flat loop, so equality is to
// 1e-3 as in the repository's own integration test, not bit for bit.
func verifyBatches(rc *recross.ReCrossSystem, spec recross.ModelSpec, batches []recross.Batch) (mismatched int, err error) {
	layer, err := recross.NewLayer(spec)
	if err != nil {
		return 0, err
	}
	for k := 0; k < len(batches); k += 16 {
		got, err := rc.ReduceBatch(layer, batches[k])
		if err != nil {
			return 0, err
		}
		bad := false
		for si, s := range batches[k] {
			want, err := layer.ReduceSample(s)
			if err != nil {
				return 0, err
			}
			for oi := range s {
				if !recross.AlmostEqual(got[si][oi], want[oi], 1e-3) {
					bad = true
				}
			}
		}
		if bad {
			mismatched++
		}
	}
	return mismatched, nil
}

// drainMs times the memory controller alone: 4096 synthetic requests
// (the mixed row-hit pattern of internal/memctrl's own benchmark, with
// writeShare of them host writes) through one DDR5 channel, median of nine
// drains.
func drainMs(rec *recorder, writeShare float64) (float64, error) {
	geo := dram.DDR5(2)
	rng := rand.New(rand.NewSource(1))
	reqs := make([]memctrl.Request, 4096)
	for i := range reqs {
		reqs[i] = memctrl.Request{
			Loc: dram.Loc{
				Rank: rng.Intn(geo.Ranks), BG: rng.Intn(geo.BankGroups),
				Bank: rng.Intn(geo.Banks), Row: rng.Intn(64),
			},
			Cols: 8, Consumer: dram.ToBankPE, Arrival: sim.Cycle(i), Op: int32(i / 16),
		}
		if rng.Float64() < writeShare {
			reqs[i].Write, reqs[i].Consumer = true, 0
		}
	}
	cs, err := arch.NewChannelSim(arch.ChannelSpec{
		Geo: geo, Tm: dram.DDR5Timing(), Mode: dram.NMPTwoStage,
		Policy: memctrl.LAS, OpWindow: arch.NMPOpWindow,
	})
	if err != nil {
		return 0, err
	}
	var ms []float64
	for i := 0; i < 10; i++ {
		var err error
		d := rec.timed("memctrl.drain", func() { _, _, _, err = cs.Run(reqs, 0) })
		if err != nil {
			return 0, err
		}
		if i > 0 { // the first drain sizes the scheduler's scratch
			ms = append(ms, float64(d.Nanoseconds())/1e6)
		}
	}
	return median(ms), nil
}

// baselineMetrics runs the CPU and TRiM-B models over the work batches and
// sets ReCross's cycles on the same batches against them: the paper's two
// headline ratios, with the model's error.
func baselineMetrics(cfg recross.Config, warm, work []recross.Batch, recrossCycles []int64) (metrics, error) {
	var ours int64
	for _, c := range recrossCycles[:len(work)] {
		ours += c
	}
	m := metrics{}
	perSample := map[recross.Arch]float64{}
	for _, a := range []recross.Arch{recross.CPU, recross.TRiMB} {
		sys, err := recross.NewSystem(a, cfg)
		if err != nil {
			return nil, err
		}
		l, err := runSim(sys.Run, warm, work, 0, nil)
		if err != nil {
			return nil, err
		}
		if l.errs > 0 {
			return nil, fmt.Errorf("%s baseline: %d failed batches", a, l.errs)
		}
		perSample[a] = l.cyclesPerSample()
		if a == recross.CPU {
			m["baseline.cpu_run_ms_per_batch32"] = l.medianWallMs()
		}
	}
	oursPerSample := float64(ours) / float64(len(work)*batchSize)
	vsCPU := perSample[recross.CPU] / oursPerSample
	vsTRiMB := perSample[recross.TRiMB] / oursPerSample
	m["baseline.cpu_cycles_per_sample"] = perSample[recross.CPU]
	m["baseline.trimb_cycles_per_sample"] = perSample[recross.TRiMB]
	m["baseline.speedup_vs_cpu"] = vsCPU
	m["baseline.speedup_vs_trimb"] = vsTRiMB
	m["baseline.err_vs_paper_cpu_pct"] = 100 * (vsCPU - paperSpeedupVsCPU) / paperSpeedupVsCPU
	m["baseline.err_vs_paper_trimb_pct"] = 100 * (vsTRiMB - paperSpeedupVsTRiMB) / paperSpeedupVsTRiMB
	return m, nil
}

// runSimWorkload is sim_infer (train false) and sim_train (train true):
// the architect's use of the repository. One "lookup" here is one call of
// Run or RunTraining on a 32-sample batch.
func runSimWorkload(rc runConfig, train bool) (*result, error) {
	cfg := recross.Config{Spec: recross.CriteoKaggle(64, 80)}
	warm, perSecond := 16, 8.0
	if train {
		warm, perSecond = 8, 4.0
	}
	counted := atLeast(int(perSecond*rc.seconds), 4)
	m := metrics{}

	var sys *recross.ReCrossSystem
	if rc.trace {
		mod, bm, err := buildModel(cfg)
		if err != nil {
			return nil, err
		}
		sys, cfg = mod.sys, mod.cfg
		m.merge(bm)
		counted = atLeast(counted/2, 4)
	} else {
		setup, err := medianSetup(rc.setups, func() (func() error, error) {
			s, err := recross.NewSystem(recross.ReCross, cfg)
			if err != nil {
				return nil, err
			}
			sys = s.(*recross.ReCrossSystem)
			return func() error { return nil }, nil
		})
		if err != nil {
			return nil, err
		}
		m["setup_s"] = setup
	}
	run := runFunc(sys.Run)
	if train {
		run = sys.RunTraining
	}

	gen, err := recross.NewGenerator(cfg.Spec, rc.seed)
	if err != nil {
		return nil, err
	}
	batches, genUs := genBatches(gen, warm+counted)
	m["trace.gen_us_per_sample"] = genUs
	warmB, work := batches[:warm], batches[warm:]

	res := &result{}
	var l *simLog
	if !rc.trace {
		if l, err = runSim(run, warmB, work, rc.dur(0.8), nil); err != nil {
			return nil, err
		}
		s := summarize(l.ph)
		m["sim_cycles_per_sample"] = l.cyclesPerSample()
		m["sim_samples_per_host_s"] = batchSize / (s.p50 / 1e3)
		m["lookup_p50_ms"] = s.p50
		m["lookups_per_s"] = s.perSecond
		m["cpu_ms_per_lookup"] = s.cpuMsPerOp
	} else {
		rec := newRecorder()
		// A few untraced calls first: further warm-up, and the untraced
		// median the tracing overhead is quoted against.
		plain, err := runSim(run, warmB, work[:atLeast(counted/4, 4)], 0, nil)
		if err != nil {
			return nil, err
		}
		rec.on.Store(true)
		before := markMem()
		if l, err = runSim(run, nil, work, rc.dur(0.35), rec); err != nil {
			return nil, err
		}
		after := markMem()
		l.errs += plain.errs
		s := summarize(l.ph)
		m.merge(l.layerMetrics(train))
		m.merge(loadgenMetrics(s, s))
		m.merge(processMetrics(before, after, s.sent))
		m["process.tracing_overhead_pct"] = 100 * (l.medianWallMs() - plain.medianWallMs()) / plain.medianWallMs()
		for name, writeShare := range map[string]float64{"memctrl.drain_ms_4k": 0, "memctrl.drain_rw_ms_4k": 0.25} {
			if m[name], err = drainMs(rec, writeShare); err != nil {
				return nil, err
			}
		}
		if !train {
			bm, err := baselineMetrics(cfg, warmB[warm-2:], work[:atLeast(counted/2, 2)], l.cycles)
			if err != nil {
				return nil, err
			}
			m.merge(bm)
		}
		res.rec = rec
	}

	mismatched, err := verifyBatches(sys, cfg.Spec, work)
	if err != nil {
		return nil, err
	}
	res.attempted = len(l.ph.ops)
	res.failed = l.errs + mismatched
	res.mismatched = mismatched
	res.metrics = m
	return res, nil
}

func atLeast(n, min int) int {
	if n < min {
		return min
	}
	return n
}
