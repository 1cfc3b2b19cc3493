package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Zipf samples ranks in [0, n) with P(rank k) roughly proportional to
// 1/(k+1)^alpha. Unlike math/rand.Zipf it supports any alpha >= 0
// (alpha == 0 is uniform, alpha <= ~1.3 covers realistic recommendation
// skews), using the continuous inverse-transform approximation of the
// generalized harmonic CDF: a draw u becomes y = u·H(n+1) and the rank
// floor(x) - 1, where x = b^(1/(1-alpha)) with b = y·(1-alpha) + 1 (e^y
// at alpha == 1), evaluated with math.Pow. That exact evaluation defines
// every rank; Rank reproduces it as exp(log(b)/(1-alpha)), falling back to
// math.Pow when the answer could differ (see Rank). It is O(1) per draw
// and keeps no per-rank state, whatever the universe.
type Zipf struct {
	n                     int64
	alpha                 float64
	total                 float64 // H(n+1), mass of the continuous approximation
	oneMinus, invOneMinus float64 // 1-alpha and 1/(1-alpha)
	fastExp               bool    // exp/log is close enough to math.Pow
}

const (
	// rankMargin is the relative distance from an integer x within which
	// the exp/log inverse is replaced by math.Pow.
	rankMargin = 1e-12
	// maxFastExp bounds |1/(1-alpha)| for the exp/log path: math.Pow's
	// error grows with its exponent's integer part.
	maxFastExp = 100
)

// NewZipf returns a sampler over [0, n). alpha < 0 or n <= 0 is an error.
func NewZipf(n int64, alpha float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: zipf universe must be positive, got %d", n)
	}
	if alpha < 0 {
		return nil, fmt.Errorf("trace: negative zipf exponent %g", alpha)
	}
	z := &Zipf{n: n, alpha: alpha, oneMinus: 1 - alpha, invOneMinus: 1 / (1 - alpha)}
	z.total = z.h(float64(n + 1))
	z.fastExp = alpha != 1 && math.Abs(z.invOneMinus) <= maxFastExp
	return z, nil
}

// h is the continuous generalized harmonic: integral of x^-alpha from 1 to x.
func (z *Zipf) h(x float64) float64 {
	if z.alpha == 1 {
		return math.Log(x)
	}
	return (math.Pow(x, z.oneMinus) - 1) / z.oneMinus
}

// base is b, the number math.Pow inverts for y. The product is rounded on
// its own (no fused multiply-add), so b has the same bits on every
// platform and in every caller.
func (z *Zipf) base(y float64) float64 { return float64(y*z.oneMinus) + 1 }

// Rank draws a rank in [0, n); rank 0 is the hottest. It returns exactly
// the rank math.Pow gives (exact), from the same single RNG draw.
//
// Why exp/log agrees with exact, for e = 1/(1-alpha) and x = b^e: both
// use the same b. exp(e·log(b)) is within (2|log x|+2) ulps of x, under
// 1e-14 relative for any x below 2^63, and for |e| <= maxFastExp
// math.Pow(b, e) is within (2|e|+4) ulps of x (its repeated squaring
// doubles the error per squaring), under 3e-14. So an exp/log x more than
// rankMargin (1e-12) relative from every integer floors as math.Pow's
// does. An x inside the margin, NaN or Inf takes exact; at alpha == 1
// exact is one math.Exp.
func (z *Zipf) Rank(rng *rand.Rand) int64 {
	if z.alpha == 0 {
		return rng.Int63n(z.n)
	}
	return z.rankAt(rng.Float64())
}

// rankAt is Rank for the uniform draw u in [0, 1).
func (z *Zipf) rankAt(u float64) int64 {
	y := u * z.total
	b := z.base(y)
	if z.fastExp {
		x := math.Exp(z.invOneMinus * math.Log(b))
		if k, m := int64(x), float64(rankMargin*x); x > float64(k)+m && x < float64(k+1)-m {
			return max(0, min(k-1, z.n-1))
		}
	}
	return z.exact(y, b)
}

// exact is the rank the closed-form inverse gives with math.Pow, for y
// and its b.
func (z *Zipf) exact(y, b float64) int64 {
	x := math.Exp(y)
	if z.alpha != 1 {
		x = math.Pow(b, z.invOneMinus)
	}
	return max(0, min(int64(x)-1, z.n-1))
}

// CDF returns the fraction of probability mass on ranks [0, k), useful for
// analytic expectations in tests.
func (z *Zipf) CDF(k int64) float64 {
	if k <= 0 {
		return 0
	}
	if k >= z.n {
		return 1
	}
	if z.alpha == 0 {
		return float64(k) / float64(z.n)
	}
	return z.h(float64(k+1)) / z.total
}

// Scatter is a pseudorandom bijection on [0, n): an affine map modulo the
// smallest prime >= n, with rejection resampling back into [0, n). It
// scatters Zipf ranks across the index space so that hot rows are randomly
// distributed through the table — the paper's "low spatial locality"
// property (§3.1) — without storing an O(n) permutation for multi-million
// row tables.
type Scatter struct {
	n, p, a, b int64
}

// NewScatter builds a bijection on [0, n) seeded deterministically.
func NewScatter(n int64, seed int64) (*Scatter, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: scatter domain must be positive, got %d", n)
	}
	p := nextPrime(n)
	rng := rand.New(rand.NewSource(seed))
	a := rng.Int63n(p-1) + 1 // in [1, p)
	b := rng.Int63n(p)       // in [0, p)
	return &Scatter{n: n, p: p, a: a, b: b}, nil
}

// Map applies the bijection.
func (s *Scatter) Map(i int64) int64 {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("trace: scatter input %d out of [0,%d)", i, s.n))
	}
	x := i
	for {
		x = (s.a*x + s.b) % s.p
		if x < s.n {
			return x
		}
	}
}

// nextPrime returns the smallest prime >= n (n >= 1). Trial division is fine
// for the table sizes we use (< 10^8).
func nextPrime(n int64) int64 {
	if n <= 2 {
		return 2
	}
	c := n
	if c%2 == 0 {
		c++
	}
	for ; ; c += 2 {
		if isPrime(c) {
			return c
		}
	}
}

func isPrime(n int64) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := int64(3); d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}
