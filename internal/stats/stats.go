// Package stats provides the statistical utilities shared by the workload
// characterisation and the experiment harness: frequency histograms,
// cumulative-access curves (paper Fig. 3), load-imbalance ratios (paper
// Figs. 4 and 13), and small numeric helpers.
package stats

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Histogram counts occurrences of integer keys (e.g. embedding row indices,
// or bank IDs). The zero value is ready to use.
type Histogram struct {
	counts map[int64]int64
	total  int64
}

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
		// Past the observed keys: the unseen mass ramps linearly across
		// the unobserved tail.
		if float64(c.universe) <= float64(len(c.cum)) {
			return 1
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
