package trace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"recross/internal/stats"
)

func TestCriteoKaggleSpec(t *testing.T) {
	m := CriteoKaggle(64, 80)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Tables) != 26 {
		t.Fatalf("tables = %d, want 26", len(m.Tables))
	}
	if m.Tables[2].Rows != 8000000 {
		t.Fatalf("C3 rows = %d, want 8000000", m.Tables[2].Rows)
	}
	// The model must be multi-GB scale at veclen 64 (paper: embedding
	// layers dominate model size).
	if m.TotalBytes() < 5<<30 {
		t.Fatalf("total bytes = %d, implausibly small", m.TotalBytes())
	}
	// Skews vary across tables.
	seen := map[float64]bool{}
	for _, tb := range m.Tables {
		seen[tb.Skew] = true
	}
	if len(seen) < 5 {
		t.Fatalf("expected varied skews, got %d distinct", len(seen))
	}
}

func TestCriteoTerabyteLargerThanKaggle(t *testing.T) {
	k := CriteoKaggle(64, 80)
	tb := CriteoTerabyte(64, 80)
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	if tb.TotalBytes() <= k.TotalBytes() {
		t.Fatal("terabyte spec should be larger than kaggle")
	}
	for _, tab := range tb.Tables {
		if tab.Rows > 40_000_000 {
			t.Fatalf("table %s exceeds the 40M hashing cap: %d", tab.Name, tab.Rows)
		}
	}
}

func TestTableSpecValidate(t *testing.T) {
	bad := []TableSpec{
		{Name: "r", Rows: 0, VecLen: 64, Pooling: 1},
		{Name: "v", Rows: 10, VecLen: 0, Pooling: 1},
		{Name: "p", Rows: 10, VecLen: 64, Pooling: 0},
		{Name: "pr", Rows: 10, VecLen: 64, Pooling: 1, Prob: 1.5},
		{Name: "s", Rows: 10, VecLen: 64, Pooling: 1, Skew: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %q should fail validation", s.Name)
		}
	}
	if err := (ModelSpec{Name: "empty"}).Validate(); err == nil {
		t.Error("empty model should fail validation")
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	z, err := NewZipf(100000, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	inTop1pct := 0
	for i := 0; i < n; i++ {
		if z.Rank(rng) < 1000 {
			inTop1pct++
		}
	}
	frac := float64(inTop1pct) / n
	// With alpha 1.1 over 100k elements, the top 1% of ranks should absorb
	// well over half the accesses — the paper's long-tail phenomenon.
	if frac < 0.5 {
		t.Fatalf("top-1%% coverage = %.3f, want skewed (> 0.5)", frac)
	}
	// And the analytic CDF should roughly agree with the empirical draw.
	if a := z.CDF(1000); math.Abs(a-frac) > 0.05 {
		t.Fatalf("analytic CDF %.3f vs empirical %.3f", a, frac)
	}
}

func TestZipfUniform(t *testing.T) {
	z, err := NewZipf(1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(z.Rank(rng))
	}
	mean := sum / n
	if math.Abs(mean-499.5) > 10 {
		t.Fatalf("uniform mean = %.1f, want ~499.5", mean)
	}
	if z.CDF(500) != 0.5 {
		t.Fatalf("uniform CDF(500) = %g, want 0.5", z.CDF(500))
	}
}

func TestZipfRankInBounds(t *testing.T) {
	f := func(seed int64, alphaRaw uint8, nRaw uint16) bool {
		n := int64(nRaw%5000) + 1
		alpha := float64(alphaRaw) / 100 // 0 .. 2.55
		z, err := NewZipf(n, alpha)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			r := z.Rank(rng)
			if r < 0 || r >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("zero universe should error")
	}
	if _, err := NewZipf(10, -0.5); err == nil {
		t.Error("negative alpha should error")
	}
}

func TestScatterIsBijection(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 97, 100, 1024, 5000} {
		s, err := NewScatter(n, 99)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int64]bool, n)
		for i := int64(0); i < n; i++ {
			v := s.Map(i)
			if v < 0 || v >= n {
				t.Fatalf("n=%d: Map(%d)=%d out of range", n, i, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: Map(%d)=%d collides", n, i, v)
			}
			seen[v] = true
		}
	}
}

func TestScatterDeterministic(t *testing.T) {
	a, _ := NewScatter(1000, 5)
	b, _ := NewScatter(1000, 5)
	c, _ := NewScatter(1000, 6)
	same, diff := true, false
	for i := int64(0); i < 1000; i++ {
		if a.Map(i) != b.Map(i) {
			same = false
		}
		if a.Map(i) != c.Map(i) {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed should give same permutation")
	}
	if !diff {
		t.Fatal("different seeds should give different permutations")
	}
}

func TestScatterOutOfRangePanics(t *testing.T) {
	s, _ := NewScatter(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Map should panic")
		}
	}()
	s.Map(10)
}

func TestNextPrime(t *testing.T) {
	cases := map[int64]int64{1: 2, 2: 2, 3: 3, 4: 5, 90: 97, 100: 101, 7919: 7919}
	for in, want := range cases {
		if got := nextPrime(in); got != want {
			t.Errorf("nextPrime(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	spec := Uniform(3, 1000, 16, 4)
	g1, err := NewGenerator(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(spec, 11)
	b1 := g1.Batch(5)
	b2 := g2.Batch(5)
	if len(b1) != 5 || len(b2) != 5 {
		t.Fatal("batch size wrong")
	}
	for i := range b1 {
		for j := range b1[i] {
			for k := range b1[i][j].Indices {
				if b1[i][j].Indices[k] != b2[i][j].Indices[k] {
					t.Fatal("same seed produced different traces")
				}
				if b1[i][j].Weights[k] != b2[i][j].Weights[k] {
					t.Fatal("same seed produced different weights")
				}
			}
		}
	}
}

func TestGeneratorShapeAndBounds(t *testing.T) {
	spec := CriteoKaggle(64, 8)
	g, err := NewGenerator(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Batch(4)
	// Small tables are one-hot (pooling 1); large tables pool 8.
	want := 0
	for _, tab := range spec.Tables {
		want += 4 * tab.Pooling
	}
	if got := b.Lookups(); got != want {
		t.Fatalf("lookups = %d, want %d", got, want)
	}
	if spec.Tables[8].Pooling != 1 || spec.Tables[2].Pooling != 8 {
		t.Fatalf("pooling split wrong: tiny=%d large=%d",
			spec.Tables[8].Pooling, spec.Tables[2].Pooling)
	}
	for _, s := range b {
		if len(s) != 26 {
			t.Fatalf("sample accesses %d tables, want 26", len(s))
		}
		for _, op := range s {
			rows := spec.Tables[op.Table].Rows
			for k, idx := range op.Indices {
				if idx < 0 || idx >= rows {
					t.Fatalf("table %d index %d out of [0,%d)", op.Table, idx, rows)
				}
				w := op.Weights[k]
				if w < 0.5 || w >= 1.5 {
					t.Fatalf("weight %g out of [0.5,1.5)", w)
				}
			}
		}
	}
}

func TestGeneratorProbSkipsTables(t *testing.T) {
	spec := Uniform(1, 100, 8, 2)
	spec.Tables[0].Prob = 0
	g, err := NewGenerator(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Batch(10).Lookups(); got != 0 {
		t.Fatalf("prob-0 table generated %d lookups", got)
	}
}

func TestGeneratorProfileSkew(t *testing.T) {
	spec := ModelSpec{Name: "m", Tables: []TableSpec{
		{Name: "hot", Rows: 100000, VecLen: 16, Pooling: 10, Prob: 1, Skew: 1.2},
	}}
	g, err := NewGenerator(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := new(stats.Histogram)
	for i := 0; i < 2000; i++ {
		for _, idx := range g.Sample()[0].Indices {
			h.Add(idx)
		}
	}
	cdf, err := stats.AccessCDF(h, int(spec.Tables[0].Rows))
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 3: under 20% of rows absorb the vast majority of accesses.
	if cov := cdf.At(0.20); cov < 0.8 {
		t.Fatalf("top-20%% coverage = %.3f, want long tail (> 0.8)", cov)
	}
}

func TestGeneratorScattersHotRows(t *testing.T) {
	// The hottest rows must not cluster at low indices: scatter should
	// spread them through the address space (low spatial locality).
	spec := ModelSpec{Name: "m", Tables: []TableSpec{
		{Name: "t", Rows: 1 << 20, VecLen: 16, Pooling: 10, Prob: 1, Skew: 1.1},
	}}
	g, err := NewGenerator(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	h := new(stats.Histogram)
	for _, s := range g.Batch(200) {
		for _, idx := range s[0].Indices {
			h.Add(idx)
		}
	}
	hot := h.HotKeys(50)
	inLowHalf := 0
	for _, k := range hot {
		if k < 1<<19 {
			inLowHalf++
		}
	}
	if inLowHalf < 10 || inLowHalf > 40 {
		t.Fatalf("hot keys in low half = %d/50, want roughly balanced", inLowHalf)
	}
}

func BenchmarkGeneratorBatch(b *testing.B) {
	spec := CriteoKaggle(64, 80)
	g, err := NewGenerator(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Batch(32)
	}
}
