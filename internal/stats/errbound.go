package stats

import "math"

// Error-bound helpers for the differential-accuracy suites: the int8
// data-plane paths are not bit-identical to the fp32 reference, so their
// tests assert bounded error instead. These helpers give the two standard
// distances — worst-case absolute error in float64, and ULP distance for
// "how many representable float32 values apart" (0 meaning bit-identical
// up to signed zero).

// MaxAbsError returns the largest |got[i]-want[i]| over both slices,
// computed in float64. Panics if the lengths differ. NaN in either input
// yields +Inf for that element (NaN==NaN included: a NaN result never
// silently passes an error bound).
func MaxAbsError(got, want []float32) float64 {
	if len(got) != len(want) {
		panic("stats: MaxAbsError length mismatch")
	}
	m := 0.0
	for i := range got {
		g, w := float64(got[i]), float64(want[i])
		d := math.Abs(g - w)
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > m {
			m = d
		}
	}
	return m
}

// ULPDistance returns how many representable float32 values apart a and b
// are: 0 for bit-identical values and for +0 vs -0, 1 for adjacent
// floats, and so on. Values of opposite sign are the sum of each one's
// distance to zero. Either input NaN returns math.MaxInt64.
func ULPDistance(a, b float32) int64 {
	if a != a || b != b { // NaN
		return math.MaxInt64
	}
	return absI64(ulpIndex(a) - ulpIndex(b))
}

// MaxULPDistance returns the largest ULPDistance over both slices.
// Panics if the lengths differ.
func MaxULPDistance(got, want []float32) int64 {
	if len(got) != len(want) {
		panic("stats: MaxULPDistance length mismatch")
	}
	var m int64
	for i := range got {
		if d := ULPDistance(got[i], want[i]); d > m {
			m = d
		}
	}
	return m
}

// ulpIndex maps a float32 onto a signed integer line where consecutive
// representable values (including across zero) differ by exactly 1:
// non-negative floats map to their bit pattern, negative floats to the
// negated magnitude pattern.
func ulpIndex(f float32) int64 {
	b := math.Float32bits(f)
	if b&0x80000000 != 0 {
		return -int64(b & 0x7fffffff)
	}
	return int64(b)
}

func absI64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
