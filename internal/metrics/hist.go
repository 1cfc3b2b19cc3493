package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is a lock-free streaming histogram of non-negative int64 samples
// (latencies in nanoseconds, simulated cycles, batch sizes). Samples are
// bucketed log-linearly — 16 sub-buckets per power of two — so percentile
// estimates carry at most ~6% relative error while Record is a single
// atomic add on the hot path. The zero value is NOT ready; use NewHist.
type Hist struct {
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// histSubBits is the log2 of the sub-buckets per octave.
const histSubBits = 4

// NewHist returns an empty histogram.
func NewHist() *Hist {
	// 64 octaves x 16 sub-buckets covers the whole non-negative int64 range.
	return &Hist{buckets: make([]atomic.Int64, 64<<histSubBits)}
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v < 1<<histSubBits {
		return int(v) // exact buckets for tiny values
	}
	// Position of the leading bit selects the octave; the next histSubBits
	// bits select the sub-bucket.
	exp := 63 - bits.LeadingZeros64(uint64(v))
	sub := (v >> (uint(exp) - histSubBits)) & (1<<histSubBits - 1)
	return (exp << histSubBits) + int(sub)
}

// bucketMid returns a representative value for bucket i (its midpoint).
func bucketMid(i int) float64 {
	if i < 1<<histSubBits {
		return float64(i)
	}
	exp := i >> histSubBits
	sub := i & (1<<histSubBits - 1)
	// The octave's low edge 2^exp·(1 + sub/2^k) plus half the sub-bucket
	// width 2^(exp-k), as one exact scaling.
	return math.Ldexp(float64(2<<histSubBits+2*sub+1), exp-histSubBits-1)
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordSince records the elapsed nanoseconds since t.
func (h *Hist) RecordSince(t time.Time) { h.Record(time.Since(t).Nanoseconds()) }

// HistSnapshot is a point-in-time percentile summary of a Hist.
type HistSnapshot struct {
	Count, Sum    int64
	Mean          float64
	P50, P95, P99 float64
	Max           int64
}

// Snapshot summarizes the histogram. Concurrent Records may or may not be
// included; the snapshot is internally consistent enough for reporting.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	ranks := []float64{0.50, 0.95, 0.99}
	out := make([]float64, len(ranks))
	var seen int64
	ri := 0
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		for ri < len(ranks) && float64(seen) >= ranks[ri]*float64(s.Count) {
			out[ri] = bucketMid(i)
			ri++
		}
		if ri == len(ranks) {
			break
		}
	}
	for ; ri < len(ranks); ri++ {
		out[ri] = float64(s.Max)
	}
	s.P50, s.P95, s.P99 = out[0], out[1], out[2]
	return s
}
