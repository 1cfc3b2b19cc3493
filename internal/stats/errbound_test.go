package stats

import (
	"math"
	"testing"
)

func TestMaxAbsError(t *testing.T) {
	if e := MaxAbsError([]float32{1, 2, 3}, []float32{1, 2.5, 3}); e != 0.5 {
		t.Errorf("MaxAbsError = %v, want 0.5", e)
	}
	if e := MaxAbsError(nil, nil); e != 0 {
		t.Errorf("empty MaxAbsError = %v", e)
	}
	if e := MaxAbsError([]float32{float32(math.NaN())}, []float32{1}); !math.IsInf(e, 1) {
		t.Errorf("NaN MaxAbsError = %v, want +Inf", e)
	}
	nan := float32(math.NaN())
	if e := MaxAbsError([]float32{nan}, []float32{nan}); !math.IsInf(e, 1) {
		t.Errorf("NaN==NaN MaxAbsError = %v, want +Inf", e)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	MaxAbsError([]float32{1}, []float32{1, 2})
}

func TestULPDistance(t *testing.T) {
	cases := []struct {
		a, b float32
		want int64
	}{
		{1, 1, 0},
		{0, float32(math.Copysign(0, -1)), 0},
		{1, math.Nextafter32(1, 2), 1},
		{1, math.Nextafter32(1, 0), 1},
		{-1, math.Nextafter32(-1, -2), 1},
		{0, math.SmallestNonzeroFloat32, 1},
		{0, -math.SmallestNonzeroFloat32, 1},
		{math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 2},
		{1, 2, 1 << 23}, // one binade apart
	}
	for _, c := range cases {
		if got := ULPDistance(c.a, c.b); got != c.want {
			t.Errorf("ULPDistance(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := ULPDistance(c.b, c.a); got != c.want {
			t.Errorf("ULPDistance(%v, %v) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
	if got := ULPDistance(float32(math.NaN()), 1); got != math.MaxInt64 {
		t.Errorf("ULPDistance(NaN, 1) = %d", got)
	}
}

func TestMaxULPDistance(t *testing.T) {
	got := []float32{1, math.Nextafter32(2, 3)}
	want := []float32{1, 2}
	if d := MaxULPDistance(got, want); d != 1 {
		t.Errorf("MaxULPDistance = %d, want 1", d)
	}
	if d := MaxULPDistance(want, want); d != 0 {
		t.Errorf("identical MaxULPDistance = %d, want 0", d)
	}
}
