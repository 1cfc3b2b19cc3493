package arch

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"recross/internal/dram"
	"recross/internal/embedding"
	"recross/internal/memctrl"
	"recross/internal/sim"
	"recross/internal/trace"
)

// fakeSystem records what it ran and returns canned stats.
type fakeSystem struct {
	spec trace.ModelSpec
	got  trace.Batch
	cyc  sim.Cycle
}

func (f *fakeSystem) Name() string { return "fake" }

func (f *fakeSystem) Run(b trace.Batch) (*RunStats, error) {
	f.got = b
	lookups, _ := CountBatch(b)
	return &RunStats{
		Cycles:    f.cyc,
		Lookups:   lookups,
		NodeLoads: []int64{lookups},
		Imbalance: 1,
	}, nil
}

func TestMultiChannelValidation(t *testing.T) {
	spec := trace.Uniform(4, 100, 16, 2)
	build := func(sub trace.ModelSpec) (System, error) { return &fakeSystem{spec: sub}, nil }
	if _, err := NewMultiChannel(spec, 0, build); err == nil {
		t.Error("zero channels should error")
	}
	if _, err := NewMultiChannel(spec, 5, build); err == nil {
		t.Error("more channels than tables should error")
	}
	if _, err := NewMultiChannel(trace.ModelSpec{}, 1, build); err == nil {
		t.Error("empty spec should error")
	}
}

func TestMultiChannelShardsRoundRobin(t *testing.T) {
	spec := trace.Uniform(5, 100, 16, 2)
	var fakes []*fakeSystem
	m, err := NewMultiChannel(spec, 2, func(sub trace.ModelSpec) (System, error) {
		f := &fakeSystem{spec: sub, cyc: sim.Cycle(100 * (len(fakes) + 1))}
		fakes = append(fakes, f)
		return f, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Channels() != 2 {
		t.Fatalf("channels = %d", m.Channels())
	}
	// Tables 0,2,4 -> channel 0; tables 1,3 -> channel 1.
	if len(fakes[0].spec.Tables) != 3 || len(fakes[1].spec.Tables) != 2 {
		t.Fatalf("shard sizes %d/%d, want 3/2",
			len(fakes[0].spec.Tables), len(fakes[1].spec.Tables))
	}
	// Table names survive sharding (popularity permutations must match).
	if fakes[0].spec.Tables[1].Name != spec.Tables[2].Name {
		t.Fatalf("table identity lost: %q", fakes[0].spec.Tables[1].Name)
	}
	if !strings.Contains(m.Name(), "multichannel") {
		t.Fatalf("name = %q", m.Name())
	}

	// Run a batch: ops must be routed to the right shard with remapped
	// table indices, and the merged cycle count is the slowest channel's.
	g, err := trace.NewGenerator(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Batch(2)
	rs, err := m.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cycles != 200 {
		t.Fatalf("merged cycles = %d, want the slowest channel's 200", rs.Cycles)
	}
	lookups, _ := CountBatch(b)
	if rs.Lookups != lookups {
		t.Fatalf("merged lookups = %d, want %d", rs.Lookups, lookups)
	}
	for c, f := range fakes {
		for _, s := range f.got {
			for _, op := range s {
				if op.Table < 0 || op.Table >= len(f.spec.Tables) {
					t.Fatalf("channel %d got unremapped table %d", c, op.Table)
				}
			}
		}
	}
}

// realMini is a minimal real system: host reads only.
type realMini struct {
	sub trace.ModelSpec
}

func (r *realMini) Name() string { return "mini" }

func (r *realMini) Run(b trace.Batch) (*RunStats, error) {
	geo := dram.DDR5(2)
	base := make([]int64, len(r.sub.Tables))
	var total int64
	for i, t := range r.sub.Tables {
		base[i] = total
		total += t.Rows
	}
	banks := make([]int, geo.TotalBanks())
	for i := range banks {
		banks[i] = i
	}
	var reqs []memctrl.Request
	var lookups int64
	rankLoads := make([]int64, geo.Ranks)
	for _, s := range b {
		for _, op := range s {
			for _, idx := range op.Indices {
				lookups++
				loc, err := Stripe(geo, banks, base[op.Table]+idx, 4)
				if err != nil {
					return nil, err
				}
				rankLoads[loc.Rank]++
				reqs = append(reqs, memctrl.Request{Loc: loc, Cols: 4, Consumer: dram.ToHost})
			}
		}
	}
	cs, err := NewChannelSim(ChannelSpec{Geo: geo, Tm: dram.DDR5Timing(), Mode: dram.Conventional, Policy: memctrl.FRFCFS})
	if err != nil {
		return nil, err
	}
	finish, st, res, err := cs.Run(reqs, 0)
	if err != nil {
		return nil, err
	}
	return &RunStats{
		Cycles: finish, DRAM: st, Lookups: lookups,
		RowHits: res.RowHits, RowMisses: res.RowMisses,
		NodeLoads: rankLoads, Imbalance: 1,
	}, nil
}

func TestMultiChannelScalesRealDrains(t *testing.T) {
	spec := trace.Uniform(4, 100000, 64, 8)
	g, err := trace.NewGenerator(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Batch(8)

	single := &realMini{sub: spec}
	one, err := single.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewMultiChannel(spec, 4, func(sub trace.ModelSpec) (System, error) {
		return &realMini{sub: sub}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	four, err := multi.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if four.Lookups != one.Lookups || four.DRAM.RDs != one.DRAM.RDs {
		t.Fatalf("multi-channel lost work: %d/%d lookups, %d/%d RDs",
			four.Lookups, one.Lookups, four.DRAM.RDs, one.DRAM.RDs)
	}
	speedup := float64(one.Cycles) / float64(four.Cycles)
	if speedup < 2.5 {
		t.Fatalf("4-channel speedup = %.2f, want >= 2.5 on a DQ-bound workload", speedup)
	}
}

// funcShard is a channel "system" that functionally reduces its shard's
// ops against the GLOBAL embedding layer (mapping its local table indices
// back through the global spec by table name), recording one output
// vector per (sample, global table). It turns MultiChannel.Run into a
// functional computation so routing and index remapping can be checked
// bit-for-bit.
type funcSink struct {
	mu      sync.Mutex
	outputs map[[2]int][]float32 // (sample, global table) -> vector
}

type funcShard struct {
	sub    trace.ModelSpec
	global map[string]int // table name -> global index
	layer  *embedding.Layer
	sink   *funcSink // shared across shards (channels run concurrently)
}

func (f *funcShard) Name() string { return "func" }

func (f *funcShard) Run(b trace.Batch) (*RunStats, error) {
	var lookups int64
	for si, s := range b {
		for _, op := range s {
			if op.Table < 0 || op.Table >= len(f.sub.Tables) {
				return nil, fmt.Errorf("local table %d out of shard range", op.Table)
			}
			gt, ok := f.global[f.sub.Tables[op.Table].Name]
			if !ok {
				return nil, fmt.Errorf("table %q not in global spec", f.sub.Tables[op.Table].Name)
			}
			gop := op
			gop.Table = gt
			v, err := f.layer.Reduce(gop)
			if err != nil {
				return nil, err
			}
			f.sink.mu.Lock()
			if _, dup := f.sink.outputs[[2]int{si, gt}]; dup {
				f.sink.mu.Unlock()
				return nil, fmt.Errorf("sample %d table %d reduced twice", si, gt)
			}
			f.sink.outputs[[2]int{si, gt}] = v
			f.sink.mu.Unlock()
			lookups += int64(len(op.Indices))
		}
	}
	return &RunStats{Cycles: 1, Lookups: lookups, Imbalance: 1}, nil
}

// TestMultiChannelUnevenTables shards 7 tables over 3 channels
// (7 % 3 != 0): every table must land on exactly one channel, and the
// routed-and-remapped ops must reproduce the functional embedding layer's
// outputs bit-for-bit.
func TestMultiChannelUnevenTables(t *testing.T) {
	spec := trace.Uniform(7, 500, 8, 3)
	layer, err := embedding.NewLayer(spec)
	if err != nil {
		t.Fatal(err)
	}
	global := make(map[string]int, len(spec.Tables))
	for i, tb := range spec.Tables {
		global[tb.Name] = i
	}

	sink := &funcSink{outputs: make(map[[2]int][]float32)}
	seen := map[string]int{} // table name -> times assigned to a shard
	m, err := NewMultiChannel(spec, 3, func(sub trace.ModelSpec) (System, error) {
		for _, tb := range sub.Tables {
			seen[tb.Name]++
		}
		return &funcShard{sub: sub, global: global, layer: layer, sink: sink}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every table on exactly one channel.
	if len(seen) != len(spec.Tables) {
		t.Fatalf("%d of %d tables assigned", len(seen), len(spec.Tables))
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("table %q assigned to %d channels, want exactly 1", name, n)
		}
	}

	g, err := trace.NewGenerator(spec, 21)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Batch(4)
	if _, err := m.Run(b); err != nil {
		t.Fatal(err)
	}

	// The sharded functional outputs must match the unsharded layer
	// bit-for-bit (same ops, same tables, same order within each op).
	var checked int
	for si, s := range b {
		for _, op := range s {
			want, err := layer.Reduce(op)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := sink.outputs[[2]int{si, op.Table}]
			if !ok {
				t.Fatalf("sample %d table %d never reached a channel", si, op.Table)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("sample %d table %d: sharded result differs from functional layer", si, op.Table)
			}
			checked++
		}
	}
	if lookups, _ := CountBatch(b); checked == 0 || lookups == 0 {
		t.Fatal("empty batch checked nothing")
	}
}

// TestMultiChannelLeavesNoGoroutines: a MultiChannel has no lifecycle to
// close, so building and running many instances and dropping them must
// leave the goroutine count where it started.
func TestMultiChannelLeavesNoGoroutines(t *testing.T) {
	spec := trace.Uniform(4, 100, 16, 2)
	gen, err := trace.NewGenerator(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := gen.Batch(4)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		m, err := NewMultiChannel(spec, 4, func(sub trace.ModelSpec) (System, error) {
			return &fakeSystem{spec: sub, cyc: 100}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(b); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d after 5 build+Run", before, after)
	}
}

// benchMulti builds a 4-channel MultiChannel over fake Systems and runs
// one real batch through it so m.shards holds routed per-channel work.
func benchMulti(b *testing.B) *MultiChannel {
	b.Helper()
	spec := trace.Uniform(8, 1000, 16, 4)
	m, err := NewMultiChannel(spec, 4, func(sub trace.ModelSpec) (System, error) {
		return &fakeSystem{spec: sub}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trace.NewGenerator(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(gen.Batch(32)); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkMultiChannelDispatch measures fanning one pre-routed batch out
// to the channels: one goroutine per channel beyond the first.
func BenchmarkMultiChannelDispatch(b *testing.B) {
	m := benchMulti(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.dispatch(m.shards)
	}
}

// BenchmarkMultiChannelRun covers the full path — shard routing included
// — for the end-to-end cost picture.
func BenchmarkMultiChannelRun(b *testing.B) {
	spec := trace.Uniform(8, 1000, 16, 4)
	m, err := NewMultiChannel(spec, 4, func(sub trace.ModelSpec) (System, error) {
		return &fakeSystem{spec: sub}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trace.NewGenerator(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	batch := gen.Batch(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// statSystem returns a fixed RunStats from every Run.
type statSystem struct{ rs RunStats }

func (s *statSystem) Name() string { return "stat" }

func (s *statSystem) Run(trace.Batch) (*RunStats, error) {
	rs := s.rs
	return &rs, nil
}

// fillStats sets every numeric leaf of v to a distinct nonzero value and
// every slice to one such element, counting from *next.
func fillStats(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillStats(v.Field(i), next)
		}
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(*next)
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next))
	case reflect.Slice:
		*next++
		v.Set(reflect.ValueOf([]int64{*next}))
	}
}

// checkMerged walks got against the two channels' stats a and b: scalars
// must be summed, except the latencies the merge takes as the slower
// channel's and the per-channel percentiles it leaves zero; slices must be
// concatenated.
func checkMerged(t *testing.T, path string, got, a, b reflect.Value) {
	t.Helper()
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			checkMerged(t, path+"."+got.Type().Field(i).Name, got.Field(i), a.Field(i), b.Field(i))
		}
	case reflect.Int, reflect.Int64:
		want := a.Int() + b.Int()
		switch path {
		case ".Cycles", ".ColdCycles":
			want = max(a.Int(), b.Int())
		case ".OpP50", ".OpP99":
			want = 0
		}
		if got.Int() != want {
			t.Errorf("%s = %d, want %d", path, got.Int(), want)
		}
	case reflect.Float64:
		if path == ".Imbalance" {
			return
		}
		if want := a.Float() + b.Float(); got.Float() != want {
			t.Errorf("%s = %g, want %g", path, got.Float(), want)
		}
	case reflect.Slice:
		want := reflect.AppendSlice(reflect.AppendSlice(reflect.MakeSlice(a.Type(), 0, 2), a), b)
		if !reflect.DeepEqual(got.Interface(), want.Interface()) {
			t.Errorf("%s = %v, want %v", path, got.Interface(), want.Interface())
		}
	}
}

// TestMultiChannelMergesEveryCounter: the merged RunStats carries every
// channel counter — DRAM events, cold-tier traffic, energy — not only the
// ones a hand-written merge happened to list.
func TestMultiChannelMergesEveryCounter(t *testing.T) {
	spec := trace.Uniform(2, 100, 16, 2)
	var next int64
	var chans []*statSystem
	m, err := NewMultiChannel(spec, 2, func(trace.ModelSpec) (System, error) {
		s := &statSystem{}
		fillStats(reflect.ValueOf(&s.rs).Elem(), &next)
		chans = append(chans, s)
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.Run(gen.Batch(2))
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, "", reflect.ValueOf(*rs), reflect.ValueOf(chans[0].rs), reflect.ValueOf(chans[1].rs))
}
