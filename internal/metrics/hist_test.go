package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestHistPercentiles(t *testing.T) {
	h := NewHist()
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 1000 {
		t.Errorf("max = %d", s.Max)
	}
	check := func(name string, got, want float64) {
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("%s = %.1f, want within 10%% of %.0f", name, got, want)
		}
	}
	check("p50", s.P50, 500)
	check("p95", s.P95, 950)
	check("p99", s.P99, 990)
	check("mean", s.Mean, 500.5)
}

func TestHistEdgeCases(t *testing.T) {
	h := NewHist()
	if s := h.Snapshot(); s.Count != 0 || s.P99 != 0 {
		t.Errorf("empty snapshot: %+v", s)
	}
	h.Record(-5) // clamps to zero
	h.Record(0)
	h.Record(math.MaxInt64)
	s := h.Snapshot()
	if s.Count != 3 || s.Max != math.MaxInt64 {
		t.Errorf("snapshot: %+v", s)
	}
}

func TestHistConcurrent(t *testing.T) {
	h := NewHist()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestBucketMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 15, 16, 17, 100, 1 << 20, 1 << 40, math.MaxInt64} {
		b := bucketOf(v)
		if b <= prev {
			t.Fatalf("bucketOf(%d) = %d, not increasing past %d", v, b, prev)
		}
		if mid := bucketMid(b); v >= 16 && math.Abs(mid-float64(v))/float64(v) > 0.07 {
			t.Errorf("bucketMid(%d) = %.0f for value %d: error > 7%%", b, mid, v)
		}
		prev = b
	}
}
