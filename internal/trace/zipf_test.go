package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// exactRank is the rank the closed-form inverse gives with math.Pow, as
// Zipf computed it before it had an exp/log path, from Rank's own b.
func exactRank(z *Zipf, u float64) int64 {
	y := u * z.total
	x := math.Exp(y)
	if z.alpha != 1 {
		x = math.Pow(z.base(y), z.invOneMinus)
	}
	return max(0, min(int64(x)-1, z.n-1))
}

// TestZipfRankExact holds Rank's exp/log path to the exact math.Pow rank:
// at u within 4 ulps of each of the first 1,024 rank bounds and of every
// 997th bound past them, and over 10^7 random draws for each skew
// CriteoKaggle produces on an 8M-row table, plus alpha == 1, tables
// smaller than 1,024 rows, alpha below 1, a steep alpha and one so near 1
// that math.Pow always decides.
func TestZipfRankExact(t *testing.T) {
	type cell struct {
		n     int64
		alpha float64
		draws int
	}
	var cells []cell
	for _, tab := range CriteoKaggle(64, 80).Tables[:6] {
		cells = append(cells, cell{8_000_000, tab.Skew, 10_000_000})
	}
	cells = append(cells,
		cell{40_000_000, 1.16, 1_000_000}, cell{500, 1.24, 1_000_000}, cell{500, 1, 1_000_000},
		cell{1025, 1.4, 1_000_000}, cell{3, 1.08, 100_000}, cell{1, 1.3, 1000},
		cell{1_000_000, 0.6, 1_000_000}, cell{100_000, 2.55, 1_000_000}, cell{100_000, 1.004, 1_000_000})
	for _, c := range cells {
		t.Run(fmt.Sprintf("n%d/alpha%g", c.n, c.alpha), func(t *testing.T) {
			t.Parallel()
			z, err := NewZipf(c.n, c.alpha)
			if err != nil {
				t.Fatal(err)
			}
			check := func(u float64) {
				if got, want := z.rankAt(u), exactRank(z, u); got != want {
					t.Fatalf("u %v: rank %d, exact %d", u, got, want)
				}
			}
			// The first 1,024 rank bounds and every 997th past them, where
			// y = h(k) for k = j+2, and 4 ulps either side.
			for k := int64(2); k <= c.n+1; k++ {
				if k > 1024+2 {
					k += 996
				}
				u := z.h(float64(k)) / z.total
				for i := 0; i < 4; i++ {
					u = math.Nextafter(u, 0)
				}
				for i := 0; i < 9 && u < 1; i++ {
					check(u)
					u = math.Nextafter(u, 1)
				}
			}
			rng := rand.New(rand.NewSource(c.n + int64(c.alpha*1000)))
			for i := 0; i < c.draws; i++ {
				check(rng.Float64())
			}
		})
	}
}
