package chaos

import (
	"errors"
	"testing"
	"time"

	"recross/internal/arch"
	"recross/internal/sim"
	"recross/internal/trace"
)

// countSys is a minimal healthy System.
type countSys struct{ runs int }

func (c *countSys) Name() string { return "count" }
func (c *countSys) Run(b trace.Batch) (*arch.RunStats, error) {
	c.runs++
	return &arch.RunStats{Cycles: sim.Cycle(100), Imbalance: 1}, nil
}

func batch() trace.Batch {
	return trace.Batch{{{Table: 0, Kind: trace.Sum, Indices: []int64{1}, Weights: []float32{1}}}}
}

// outcomeOf classifies one Run call of a FaultySystem: "panic", "corrupt",
// "ok", or "err".
func outcomeOf(t *testing.T, fs *FaultySystem) (kind string) {
	t.Helper()
	defer func() {
		if recover() != nil {
			kind = "panic"
		}
	}()
	st, err := fs.Run(batch())
	switch {
	case err != nil:
		return "err"
	case st == nil || st.Cycles < 0:
		return "corrupt"
	default:
		return "ok"
	}
}

// TestDeterminism: two wrappers with the same seed, id and config must
// inject the identical fault sequence.
func TestDeterminism(t *testing.T) {
	cfg := Config{Rates: Rates{Panic: 0.2, Corrupt: 0.2, Latency: 0.1}, Seed: 7}
	a := Wrap(&countSys{}, cfg, 3, NewInjector())
	b := Wrap(&countSys{}, cfg, 3, NewInjector())
	var seqA, seqB []string
	for i := 0; i < 50; i++ {
		seqA = append(seqA, outcomeOf(t, a))
		seqB = append(seqB, outcomeOf(t, b))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("run %d: %q != %q — injection not deterministic", i, seqA[i], seqB[i])
		}
	}
	kinds := map[string]bool{}
	for _, k := range seqA {
		kinds[k] = true
	}
	if !kinds["panic"] || !kinds["corrupt"] || !kinds["ok"] {
		t.Errorf("50 runs at 20%%/20%% rates produced %v; want panics, corruptions and clean runs", kinds)
	}
}

// TestSchedule: "replica 2 panics on batch 5" fires exactly there, and
// rules for other replicas are ignored.
func TestSchedule(t *testing.T) {
	cfg := Config{Schedule: []Rule{
		{Replica: 2, Batch: 5, Kind: Panic},
		{Replica: 0, Batch: 1, Kind: Panic}, // not ours
	}}
	fs := Wrap(&countSys{}, cfg, 2, NewInjector())
	for i := 1; i <= 7; i++ {
		got := outcomeOf(t, fs)
		want := "ok"
		if i == 5 {
			want = "panic"
		}
		if got != want {
			t.Fatalf("batch %d: outcome %q, want %q", i, got, want)
		}
	}
}

// TestScheduleFiresWhileDisabled: scripted rules ignore the injector
// switch; probabilistic faults respect it.
func TestScheduleFiresWhileDisabled(t *testing.T) {
	inj := NewInjector()
	inj.SetEnabled(false)
	fs := Wrap(&countSys{}, Config{
		Rates:    Rates{Panic: 1.0},
		Schedule: []Rule{{Replica: 0, Batch: 3, Kind: Corrupt}},
	}, 0, inj)
	for i := 1; i <= 4; i++ {
		got := outcomeOf(t, fs)
		want := "ok" // Panic rate 1.0 is suppressed by the disabled switch
		if i == 3 {
			want = "corrupt"
		}
		if got != want {
			t.Fatalf("batch %d: outcome %q, want %q", i, got, want)
		}
	}
	if n := inj.Count(Corrupt); n != 1 {
		t.Errorf("corrupt count = %d, want 1", n)
	}
	if n := inj.Count(Panic); n != 0 {
		t.Errorf("panic count = %d while disabled", n)
	}
}

// TestCorrupt: corrupted stats carry a negative cycle count, the marker
// the pool validates for.
func TestCorrupt(t *testing.T) {
	fs := Wrap(&countSys{}, Config{Schedule: []Rule{{Replica: 0, Batch: 1, Kind: Corrupt}}}, 0, nil)
	st, err := fs.Run(batch())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles >= 0 {
		t.Fatalf("corrupt stats cycles = %d, want negative", st.Cycles)
	}
}

// TestWedgeRelease: a wedged Run blocks until ReleaseWedges, then
// returns ErrWedgeReleased.
func TestWedgeRelease(t *testing.T) {
	inj := NewInjector()
	fs := Wrap(&countSys{}, Config{Schedule: []Rule{{Replica: 0, Batch: 1, Kind: Wedge}}}, 0, inj)
	done := make(chan error, 1)
	go func() {
		_, err := fs.Run(batch())
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("wedged Run returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	inj.ReleaseWedges()
	select {
	case err := <-done:
		if !errors.Is(err, ErrWedgeReleased) {
			t.Fatalf("released wedge err = %v, want ErrWedgeReleased", err)
		}
	case <-time.After(time.Second):
		t.Fatal("wedge did not release")
	}
	if n := inj.Count(Wedge); n != 1 {
		t.Errorf("wedge count = %d, want 1", n)
	}
}

// TestLatency: an injected stall delays the batch by at least Stall but
// still runs it.
func TestLatency(t *testing.T) {
	const stall = 10 * time.Millisecond
	inner := &countSys{}
	fs := Wrap(inner, Config{
		Stall:    stall,
		Schedule: []Rule{{Replica: 0, Batch: 1, Kind: Latency}},
	}, 0, nil)
	t0 := time.Now()
	if _, err := fs.Run(batch()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < stall {
		t.Errorf("stalled run took %v, want >= %v", d, stall)
	}
	if inner.runs != 1 {
		t.Errorf("inner runs = %d, want 1 (latency faults still execute)", inner.runs)
	}
}

// TestFleetCounters: replicas wrapped with one shared injector count
// into it, and Total sums the per-kind counts.
func TestFleetCounters(t *testing.T) {
	systems := []arch.System{&countSys{}, &countSys{}}
	cfg := Config{Schedule: []Rule{
		{Replica: 0, Batch: 1, Kind: Corrupt},
		{Replica: 1, Batch: 1, Kind: Latency},
	}, Stall: time.Microsecond}
	inj := NewInjector()
	var wrapped []*FaultySystem
	for i, sys := range systems {
		wrapped = append(wrapped, Wrap(sys, cfg, i, inj))
	}
	for _, w := range wrapped {
		if _, err := w.Run(batch()); err != nil {
			t.Fatal(err)
		}
	}
	if inj.Count(Corrupt) != 1 || inj.Count(Latency) != 1 || inj.Total() != 2 {
		t.Errorf("counts corrupt=%d latency=%d total=%d, want 1/1/2",
			inj.Count(Corrupt), inj.Count(Latency), inj.Total())
	}
	if name := wrapped[0].Name(); name != "chaos(count)" {
		t.Errorf("name = %q", name)
	}
}
