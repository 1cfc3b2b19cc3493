// Package stats provides the statistical utilities shared by the workload
// characterisation and the experiment harness: frequency histograms,
// cumulative-access curves (paper Fig. 3), load-imbalance ratios (paper
// Figs. 4 and 13), and small numeric helpers.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Histogram counts occurrences of integer keys (e.g. embedding row indices,
// or bank IDs). The zero value is ready to use.
type Histogram struct {
	counts map[int64]int64
	total  int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return NewHistogramSize(0) }

// NewHistogramSize returns an empty histogram with room for n distinct
// keys before it grows.
func NewHistogramSize(n int) *Histogram {
	return &Histogram{counts: make(map[int64]int64, n)}
}

// Add increments the count of key by one.
func (h *Histogram) Add(key int64) { h.AddN(key, 1) }

// AddN increments the count of key by n.
func (h *Histogram) AddN(key int64, n int64) {
	if h.counts == nil {
		h.counts = make(map[int64]int64)
	}
	h.counts[key] += n
	h.total += n
}

// Total returns the sum of all counts.
func (h *Histogram) Total() int64 { return h.total }

// Distinct returns the number of distinct keys observed.
func (h *Histogram) Distinct() int { return len(h.counts) }

// Count returns the count recorded for key.
func (h *Histogram) Count(key int64) int64 { return h.counts[key] }

// SortedCounts returns all counts in descending order.
func (h *Histogram) SortedCounts() []int64 {
	out := make([]int64, 0, len(h.counts))
	for _, c := range h.counts {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b int64) int { return cmp.Compare(b, a) })
	return out
}

// HotKeys returns the n most frequent keys in descending count order.
// Ties are broken by ascending key for determinism.
func (h *Histogram) HotKeys(n int) []int64 {
	type kv struct {
		k int64
		c int64
	}
	all := make([]kv, 0, len(h.counts))
	for k, c := range h.counts {
		all = append(all, kv{k, c})
	}
	slices.SortFunc(all, func(a, b kv) int {
		if c := cmp.Compare(b.c, a.c); c != 0 {
			return c
		}
		return cmp.Compare(a.k, b.k)
	})
	if n > len(all) {
		n = len(all)
	}
	keys := make([]int64, n)
	for i := 0; i < n; i++ {
		keys[i] = all[i].k
	}
	return keys
}

// CDF is a cumulative-access curve: CDF.At(p) is the fraction of all
// accesses absorbed by the hottest p fraction of distinct keys. This is the
// curve the paper plots in Fig. 3 and the access-distribution function f_i
// used by the bandwidth-aware partitioner (§4.3).
type CDF struct {
	// cum[i] is the fraction of observed accesses covered by the i+1
	// hottest keys.
	cum []float64
	// universe is the number of keys the curve is normalised over (the
	// table's row count, which may exceed the number of keys actually
	// observed in the trace).
	universe int
	// obsMass is the probability mass credited to the observed keys; the
	// remaining 1-obsMass (the Good-Turing unseen-mass estimate) ramps
	// linearly across the unobserved tail. 1 for unsmoothed curves.
	obsMass float64
	// tailExp, when positive, shapes the unobserved tail as a power law
	// with this exponent instead of a uniform ramp: unseen mass density
	// at rank r falls as r^-tailExp. A bounded top-k sketch truncates a
	// Zipf stream right where its mid-ranks still hold real mass — a
	// uniform ramp there starves the warm segments and the partitioner
	// parks them in the slow region. 0 keeps the linear ramp.
	tailExp float64
}

// AccessCDF builds the cumulative-access curve of h over a universe of
// `universe` distinct keys. universe must be >= h.Distinct(); keys never
// observed contribute zero accesses (the long tail).
func AccessCDF(h *Histogram, universe int) (*CDF, error) {
	if universe < h.Distinct() {
		return nil, fmt.Errorf("stats: universe %d smaller than %d observed keys", universe, h.Distinct())
	}
	if universe == 0 {
		return nil, fmt.Errorf("stats: empty universe")
	}
	counts := h.SortedCounts()
	cum := make([]float64, len(counts))
	var run float64
	total := float64(h.Total())
	for i, c := range counts {
		run += float64(c)
		if total > 0 {
			cum[i] = run / total
		}
	}
	return &CDF{cum: cum, universe: universe, obsMass: 1}, nil
}

// AccessCDFSmoothed builds the cumulative-access curve with Good-Turing
// missing-mass smoothing: a finite profiling trace systematically misses
// tail keys that a longer run WILL draw, so the raw empirical curve
// overstates head concentration. The unseen mass is estimated as
// (singleton count)/(total draws) and spread uniformly over the unobserved
// keys; the observed curve is scaled down accordingly. This is what the
// bandwidth-aware partitioner consumes — without it the cold region's load
// is underestimated and the LP balance fails in live runs.
func AccessCDFSmoothed(h *Histogram, universe int) (*CDF, error) {
	c, err := AccessCDF(h, universe)
	if err != nil {
		return nil, err
	}
	if h.Total() == 0 || h.Distinct() >= universe {
		return c, nil
	}
	singles := int64(0)
	for _, n := range h.counts {
		if n == 1 {
			singles++
		}
	}
	unseen := float64(singles) / float64(h.Total())
	if unseen > 0.95 {
		unseen = 0.95
	}
	c.obsMass = 1 - unseen
	return c, nil
}

// CDFFromCounts builds a cumulative-access curve directly from a
// descending-sorted count slice, crediting the observed keys with obsMass
// of the total probability (the remaining 1-obsMass ramps linearly over
// the unobserved tail). This is the constructor for sketch-derived curves:
// a streaming top-k tracker knows the counts of the keys it retained and,
// separately, the exact total access count, so the observed mass is the
// retained share rather than a Good-Turing estimate. counts must be
// non-increasing and non-negative; obsMass is clamped to [0,1].
func CDFFromCounts(counts []int64, universe int, obsMass float64) (*CDF, error) {
	if universe <= 0 {
		return nil, fmt.Errorf("stats: empty universe")
	}
	if len(counts) > universe {
		return nil, fmt.Errorf("stats: universe %d smaller than %d counts", universe, len(counts))
	}
	var total int64
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("stats: negative count %d at rank %d", c, i)
		}
		if i > 0 && c > counts[i-1] {
			return nil, fmt.Errorf("stats: counts not sorted descending at rank %d", i)
		}
		total += c
	}
	if obsMass < 0 {
		obsMass = 0
	}
	if obsMass > 1 {
		obsMass = 1
	}
	cum := make([]float64, len(counts))
	var run float64
	for i, c := range counts {
		run += float64(c)
		if total > 0 {
			cum[i] = run / float64(total)
		}
	}
	return &CDF{cum: cum, universe: universe, obsMass: obsMass}, nil
}

// CDFFromCountsTail is CDFFromCounts with a power-law unobserved tail:
// the unseen 1-obsMass is distributed with density proportional to
// r^-tailExp over the unobserved ranks instead of uniformly. tailExp is
// typically fitted from the observed counts themselves (see FitZipf);
// tailExp <= 0 falls back to the uniform ramp.
func CDFFromCountsTail(counts []int64, universe int, obsMass, tailExp float64) (*CDF, error) {
	c, err := CDFFromCounts(counts, universe, obsMass)
	if err != nil {
		return nil, err
	}
	if tailExp > 0 {
		c.tailExp = tailExp
	}
	return c, nil
}

// FitZipf estimates a power-law exponent from a descending count slice
// by least squares on (log rank, log count). Only ranks strictly above
// the minimum count are fitted: in a Space-Saving sketch the bottom of
// the slice is a churn plateau of entries pinned at the eviction floor,
// whose flat log-log run would drag the slope toward zero (and in an
// exact histogram the floor is just the quantisation limit). Returns 0
// (meaning: no usable fit, callers should fall back to a uniform tail)
// when fewer than 8 usable points remain; otherwise the result is
// clamped to [0.05, 4].
func FitZipf(counts []int64) float64 {
	if len(counts) == 0 {
		return 0
	}
	floor := counts[len(counts)-1]
	var n float64
	var sx, sy, sxx, sxy float64
	for i := 0; i < len(counts); i++ {
		if counts[i] <= 0 || counts[i] <= floor {
			break
		}
		x := math.Log(float64(i + 1))
		y := math.Log(float64(counts[i]))
		n++
		sx += x
		sy += y
		sxx += float64(x * x)
		sxy += float64(x * y)
	}
	if n < 8 {
		return 0
	}
	den := float64(n*sxx) - float64(sx*sx)
	if den <= 0 {
		return 0
	}
	s := -(float64(n*sxy) - float64(sx*sy)) / den
	if s < 0.05 {
		s = 0.05
	}
	if s > 4 {
		s = 4
	}
	return s
}

// At returns the fraction of accesses covered by the hottest p (in [0,1])
// fraction of the universe, interpolating linearly between ranks.
func (c *CDF) At(p float64) float64 {
	if p <= 0 || len(c.cum) == 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	rank := float64(p * float64(c.universe)) // number of hottest keys included
	if rank >= float64(len(c.cum)) {
		// Past the observed keys: the unseen mass covers the unobserved
		// tail — linearly by default, as a power law when tailExp is set.
		if float64(c.universe) <= float64(len(c.cum)) {
			return 1
		}
		if c.tailExp > 0 {
			return c.obsMass + float64((1-c.obsMass)*c.tailCoverage(rank))
		}
		tail := float64(c.universe - len(c.cum))
		return c.obsMass + (1-c.obsMass)*(rank-float64(len(c.cum)))/tail
	}
	i := int(rank)
	frac := rank - float64(i)
	lo := 0.0
	if i > 0 {
		lo = c.cum[i-1]
	}
	hi := c.cum[i]
	return (lo + float64(frac*(hi-lo))) * c.obsMass
}

// tailCoverage returns the fraction of the unseen tail mass covered by
// ranks (len(cum), rank], under density proportional to r^-tailExp over
// r in (k, universe]. Closed form via the power-law integral; the
// near-1 exponent uses the logarithmic limit.
func (c *CDF) tailCoverage(rank float64) float64 {
	k := float64(len(c.cum))
	if k < 1 {
		k = 1
	}
	u := float64(c.universe)
	r := rank
	if r < k {
		r = k
	}
	if r > u {
		r = u
	}
	s := c.tailExp
	if math.Abs(s-1) < 1e-3 {
		den := math.Log(u) - math.Log(k)
		if den <= 0 {
			return 1
		}
		return (math.Log(r) - math.Log(k)) / den
	}
	e := 1 - s
	den := math.Pow(u, e) - math.Pow(k, e)
	if den == 0 {
		return 1
	}
	return (math.Pow(r, e) - math.Pow(k, e)) / den
}

// Coverage returns, for each fraction in ps, the covered access share.
func (c *CDF) Coverage(ps []float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = c.At(p)
	}
	return out
}

// ImbalanceRatio measures load imbalance across memory nodes as the paper
// defines it (§3.1): the largest per-node load divided by the load of an
// ideally even distribution. A perfectly balanced load returns 1. An empty
// or zero load returns 1 (nothing to imbalance).
func ImbalanceRatio(loads []int64) float64 {
	if len(loads) == 0 {
		return 1
	}
	var max, sum int64
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 1
	}
	ideal := float64(sum) / float64(len(loads))
	return float64(max) / ideal
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation. xs need not be sorted; it is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := float64(p / 100 * float64(len(s)-1))
	i := int(rank)
	frac := rank - float64(i)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + float64(frac*(s[i+1]-s[i]))
}
