package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := new(Histogram)
	h.Add(1)
	h.Add(1)
	h.Add(2)
	h.AddN(3, 5)
	if h.Total() != 8 {
		t.Fatalf("total = %d, want 8", h.Total())
	}
	if h.Distinct() != 3 {
		t.Fatalf("distinct = %d, want 3", h.Distinct())
	}
	if h.Count(1) != 2 || h.Count(3) != 5 || h.Count(99) != 0 {
		t.Fatalf("counts wrong: %d %d %d", h.Count(1), h.Count(3), h.Count(99))
	}
	sc := h.SortedCounts()
	if len(sc) != 3 || sc[0] != 5 || sc[1] != 2 || sc[2] != 1 {
		t.Fatalf("sorted counts = %v", sc)
	}
}

func TestHistogramZeroValueUsable(t *testing.T) {
	var h Histogram
	h.Add(7)
	if h.Total() != 1 || h.Count(7) != 1 {
		t.Fatal("zero-value histogram not usable")
	}
}

func TestHotKeysOrderAndTies(t *testing.T) {
	h := new(Histogram)
	h.AddN(10, 3)
	h.AddN(20, 3)
	h.AddN(30, 9)
	h.AddN(40, 1)
	keys := h.HotKeys(3)
	if len(keys) != 3 || keys[0] != 30 || keys[1] != 10 || keys[2] != 20 {
		t.Fatalf("hot keys = %v, want [30 10 20]", keys)
	}
	if got := h.HotKeys(100); len(got) != 4 {
		t.Fatalf("HotKeys over-count: %v", got)
	}
}

func TestAccessCDFSkewedCurve(t *testing.T) {
	// 1 key with 90 accesses + 9 keys with 1 access each, universe 100:
	// the hottest 1% of keys covers 90/99 of accesses.
	h := new(Histogram)
	h.AddN(0, 90)
	for k := int64(1); k <= 9; k++ {
		h.Add(k)
	}
	c, err := AccessCDF(h, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.At(0.01); math.Abs(got-90.0/99.0) > 1e-9 {
		t.Fatalf("At(0.01) = %g, want %g", got, 90.0/99.0)
	}
	if got := c.At(1); got != 1 {
		t.Fatalf("At(1) = %g, want 1", got)
	}
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0) = %g, want 0", got)
	}
	// Past all observed keys, the curve saturates at 1 (the tail is cold).
	if got := c.At(0.5); got != 1 {
		t.Fatalf("At(0.5) = %g, want 1", got)
	}
}

func TestAccessCDFErrors(t *testing.T) {
	h := new(Histogram)
	h.Add(0)
	h.Add(1)
	if _, err := AccessCDF(h, 1); err == nil {
		t.Fatal("universe smaller than observed keys should error")
	}
	if _, err := AccessCDF(new(Histogram), 0); err == nil {
		t.Fatal("empty universe should error")
	}
}

// Property: a CDF is monotone nondecreasing in p and bounded by [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := new(Histogram)
		n := rng.Intn(200) + 1
		for i := 0; i < n; i++ {
			h.AddN(int64(rng.Intn(50)), int64(rng.Intn(20)+1))
		}
		c, err := AccessCDF(h, 50+rng.Intn(100))
		if err != nil {
			return false
		}
		prev := 0.0
		for p := 0.0; p <= 1.0001; p += 0.01 {
			v := c.At(p)
			if v < prev-1e-12 || v < 0 || v > 1+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestImbalanceRatio(t *testing.T) {
	cases := []struct {
		loads []int64
		want  float64
	}{
		{[]int64{10, 10, 10, 10}, 1},
		{[]int64{40, 0, 0, 0}, 4},
		{[]int64{30, 10}, 1.5},
		{nil, 1},
		{[]int64{0, 0}, 1},
	}
	for _, c := range cases {
		if got := ImbalanceRatio(c.loads); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ImbalanceRatio(%v) = %g, want %g", c.loads, got, c.want)
		}
	}
}

// Property: imbalance ratio is always >= 1 and <= number of nodes.
func TestImbalanceBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		loads := make([]int64, len(raw))
		for i, v := range raw {
			loads[i] = int64(v)
		}
		r := ImbalanceRatio(loads)
		return r >= 1-1e-12 && r <= float64(len(loads))+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanGeoMeanPercentile(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	xs := []float64{5, 1, 3, 2, 4}
	if p := Percentile(xs, 50); p != 3 {
		t.Fatalf("median = %g, want 3", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %g, want 1", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Fatalf("p100 = %g, want 5", p)
	}
	// input must not be reordered
	if xs[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}
