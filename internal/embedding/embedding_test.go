package embedding

import (
	"testing"
	"testing/quick"

	"recross/internal/trace"
)

func TestProceduralDeterministic(t *testing.T) {
	tab, err := NewProcedural(3, 1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	a := tab.Row(500, make([]float32, 16))
	b := tab.Row(500, make([]float32, 16))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same row read twice differs")
		}
		if a[i] < -1 || a[i] >= 1 {
			t.Fatalf("element %g out of [-1,1)", a[i])
		}
	}
	c := tab.Row(501, make([]float32, 16))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("adjacent rows identical")
	}
}

func TestProceduralDistinctTables(t *testing.T) {
	t1, _ := NewProcedural(1, 10, 8)
	t2, _ := NewProcedural(2, 10, 8)
	a := t1.Row(0, make([]float32, 8))
	b := t2.Row(0, make([]float32, 8))
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different tables produced identical rows")
	}
}

func TestProceduralBoundsPanic(t *testing.T) {
	tab, _ := NewProcedural(1, 10, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range row should panic")
		}
	}()
	tab.Row(10, make([]float32, 4))
}

func TestShapeValidation(t *testing.T) {
	if _, err := NewProcedural(1, 0, 4); err == nil {
		t.Error("zero rows should error")
	}
	if _, err := NewProcedural(1, 4, 0); err == nil {
		t.Error("zero veclen should error")
	}
}

func TestLayerReduceMatchesManual(t *testing.T) {
	spec := trace.Uniform(2, 100, 4, 3)
	l, err := NewLayer(spec)
	if err != nil {
		t.Fatal(err)
	}
	op := trace.Op{
		Table:   1,
		Indices: []int64{5, 10, 5},
		Weights: []float32{1, 2, 0.5},
	}
	got, err := l.Reduce(op)
	if err != nil {
		t.Fatal(err)
	}
	tab := l.Table(1)
	r5 := tab.Row(5, make([]float32, 4))
	r10 := tab.Row(10, make([]float32, 4))
	for j := 0; j < 4; j++ {
		want := 1*r5[j] + 2*r10[j] + 0.5*r5[j]
		if diff := got[j] - want; diff > 1e-5 || diff < -1e-5 {
			t.Fatalf("element %d = %g, want %g", j, got[j], want)
		}
	}
}

func TestLayerReduceErrors(t *testing.T) {
	l, _ := NewLayer(trace.Uniform(1, 10, 4, 2))
	bad := []trace.Op{
		{Table: 5, Indices: []int64{0}, Weights: []float32{1}},
		{Table: 0, Indices: []int64{0, 1}, Weights: []float32{1}},
		{Table: 0, Indices: []int64{99}, Weights: []float32{1}},
	}
	for i, op := range bad {
		if _, err := l.Reduce(op); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReduceSample(t *testing.T) {
	spec := trace.Uniform(3, 50, 4, 2)
	l, _ := NewLayer(spec)
	g, err := trace.NewGenerator(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Sample()
	out, err := l.ReduceSample(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d results, want 3", len(out))
	}
	for _, v := range out {
		if len(v) != 4 {
			t.Fatalf("result width %d, want 4", len(v))
		}
	}
}

// Property: Reduce is linear in the weights — scaling all weights scales
// the result.
func TestReduceLinearityProperty(t *testing.T) {
	l, _ := NewLayer(trace.Uniform(1, 100, 8, 4))
	f := func(seed int64, scaleRaw uint8) bool {
		scale := float32(scaleRaw%10) + 1
		g, err := trace.NewGenerator(trace.Uniform(1, 100, 8, 4), seed)
		if err != nil {
			return false
		}
		op := g.Sample()[0]
		base, err := l.Reduce(op)
		if err != nil {
			return false
		}
		scaled := op
		scaled.Weights = make([]float32, len(op.Weights))
		for i, w := range op.Weights {
			scaled.Weights[i] = w * scale
		}
		got, err := l.Reduce(scaled)
		if err != nil {
			return false
		}
		want := make([]float32, len(base))
		for i := range base {
			want[i] = base[i] * scale
		}
		return AlmostEqual(got, want, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual([]float32{1, 2}, []float32{1.0000001, 2}, 1e-5) {
		t.Fatal("near-equal should pass")
	}
	if AlmostEqual([]float32{1}, []float32{1, 2}, 1) {
		t.Fatal("length mismatch should fail")
	}
	if AlmostEqual([]float32{1}, []float32{2}, 0.5) {
		t.Fatal("distant values should fail")
	}
}

func BenchmarkProceduralRow(b *testing.B) {
	tab, _ := NewProcedural(1, 1<<20, 64)
	dst := make([]float32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Row(int64(i)&(1<<20-1), dst)
	}
}

func TestReduceKinds(t *testing.T) {
	l, _ := NewLayer(trace.Uniform(1, 100, 4, 2))
	tab := l.Table(0)
	r5 := tab.Row(5, make([]float32, 4))
	r9 := tab.Row(9, make([]float32, 4))
	base := trace.Op{Table: 0, Indices: []int64{5, 9}, Weights: []float32{2, 3}}

	sum := base
	sum.Kind = trace.Sum
	got, err := l.Reduce(sum)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		if diff := got[j] - (r5[j] + r9[j]); diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("sum wrong at %d", j)
		}
	}

	mx := base
	mx.Kind = trace.Max
	got, err = l.Reduce(mx)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		want := r5[j]
		if r9[j] > want {
			want = r9[j]
		}
		if got[j] != want {
			t.Fatalf("max wrong at %d: %g vs %g", j, got[j], want)
		}
	}

	bad := base
	bad.Kind = trace.ReduceKind(9)
	if _, err := l.Reduce(bad); err == nil {
		t.Fatal("unknown kind should error")
	}
	// Sum/Max do not require weights.
	noW := trace.Op{Table: 0, Kind: trace.Sum, Indices: []int64{1, 2}}
	if _, err := l.Reduce(noW); err != nil {
		t.Fatal(err)
	}
}
