package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// lens covers the unroll boundary (8), both sides of it, a pure tail, and
// larger mixed bodies.
var lens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64, 127, 128}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestAddMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range lens {
		dst := randVec(rng, n)
		src := randVec(rng, n)
		want := make([]float32, n)
		copy(want, dst)
		for i := range want {
			want[i] += src[i]
		}
		Add(dst, src)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("Add len %d lane %d: got %v want %v", n, i, dst[i], want[i])
			}
		}
	}
}

func TestAxpyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range lens {
		for _, w := range []float32{0, 1, -2.5, 0.3333} {
			dst := randVec(rng, n)
			src := randVec(rng, n)
			want := make([]float32, n)
			copy(want, dst)
			for i := range want {
				want[i] += float32(w * src[i]) // rounded product, as Axpy's
			}
			Axpy(dst, src, w)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("Axpy len %d w %v lane %d: got %v want %v", n, w, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestMaxMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range lens {
		dst := randVec(rng, n)
		src := randVec(rng, n)
		if n > 2 {
			// Exercise the exact NaN/zero semantics of the scalar compare.
			dst[0], src[0] = float32(math.NaN()), 1
			dst[1], src[1] = 1, float32(math.NaN())
			dst[2], src[2] = float32(math.Copysign(0, -1)), 0
		}
		want := make([]float32, n)
		copy(want, dst)
		for i := range want {
			if src[i] > want[i] {
				want[i] = src[i]
			}
		}
		Max(dst, src)
		for i := range want {
			if dst[i] != want[i] && !(math.IsNaN(float64(dst[i])) && math.IsNaN(float64(want[i]))) {
				t.Fatalf("Max len %d lane %d: got %v want %v", n, i, dst[i], want[i])
			}
		}
	}
}

func TestZero(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range lens {
		v := randVec(rng, n)
		Zero(v)
		for i := range v {
			if v[i] != 0 {
				t.Fatalf("Zero len %d lane %d: got %v", n, i, v[i])
			}
		}
	}
}

func BenchmarkAxpy64(b *testing.B) {
	dst := make([]float32, 64)
	src := make([]float32, 64)
	for i := range src {
		src[i] = float32(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Axpy(dst, src, 0.5)
	}
}
