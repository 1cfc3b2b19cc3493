package adapt

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"recross/internal/partition"
	"recross/internal/stats"
	"recross/internal/trace"
)

// Tracker observes per-table, per-row access streams from the serving
// path with bounded memory: one Space-Saving top-k sketch per table plus
// an exact access total. Space-Saving (Metwally et al.) guarantees every
// key with true count > total/k is retained and overestimates a retained
// key's count by at most the smallest retained count — exactly the error
// profile the partitioner tolerates, since it places the head
// individually and hashes the tail anyway.
//
// Locking is striped per table: Observe takes one table's mutex at a time
// for a few O(log k) heap fixes, so concurrent Lookup goroutines touching
// different tables never contend and same-table contention is a short
// critical section.
type Tracker struct {
	spec   trace.ModelSpec
	tables []tableSketch
	// samples counts samples observed since the last Reset; totals are
	// per-table accesses.
	samples atomic.Int64
}

// TrackerOptions configures NewTracker.
type TrackerOptions struct {
	// TopK is the per-table sketch capacity (default 512).
	TopK int
}

func (o TrackerOptions) withDefaults() TrackerOptions {
	if o.TopK == 0 {
		o.TopK = 512
	}
	return o
}

// NewTracker builds a tracker for spec.
func NewTracker(spec trace.ModelSpec, opts TrackerOptions) (*Tracker, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.TopK < 1 {
		return nil, fmt.Errorf("adapt: TopK %d < 1", opts.TopK)
	}
	t := &Tracker{spec: spec, tables: make([]tableSketch, len(spec.Tables))}
	for i := range t.tables {
		t.tables[i].init(opts.TopK)
	}
	return t, nil
}

// Observe feeds one served sample into the sketches. Safe for concurrent
// use; this is the serving hot path.
func (t *Tracker) Observe(s trace.Sample) {
	t.samples.Add(1)
	for _, op := range s {
		if op.Table < 0 || op.Table >= len(t.tables) {
			continue // malformed op; Lookup validates before us, but stay safe
		}
		t.tables[op.Table].observe(op.Indices)
	}
}

// Samples returns the samples observed since construction or the last
// Reset.
func (t *Tracker) Samples() int64 { return t.samples.Load() }

// Decay halves every sketch count (dropping keys that reach zero) and the
// access totals. Called once per control window, it gives the sketch an
// exponential horizon of roughly two windows: after a hot-set shift the
// old head's counts are gone in a handful of halvings, so the detector
// sees the new regime instead of an ever-longer average over both.
func (t *Tracker) Decay() {
	for i := range t.tables {
		t.tables[i].decay()
	}
	// Halve the observed-sample counter too, keeping the "enough data to
	// replan" guard proportional to what the sketches actually hold.
	for {
		cur := t.samples.Load()
		if t.samples.CompareAndSwap(cur, cur/2) {
			return
		}
	}
}

// Reset empties every sketch and the sample counter. The controller
// calls it on adoption: the old counts were accumulated against the
// placement just replaced (often straddling the very drift that forced
// the change), so the next replan should price pure post-adoption
// traffic instead of a decaying mixture.
func (t *Tracker) Reset() {
	for i := range t.tables {
		t.tables[i].reset()
	}
	t.samples.Store(0)
}

// Hot reports whether row idx of table ti is currently frequency-hot:
// the Space-Saving sketch retains it with an estimated count of at least
// total/k — the guarantee threshold above which a true heavy hitter is
// never silently dropped. It is the admission signal for the hot-row
// cache (embedding.RowCache.SetAdmit): while a table's sketch is empty
// everything is admitted (cold start, no evidence either way); once
// traffic accumulates only rows the tracker ranks as heavy earn cache
// slots, so one-off scans cannot wash the working set out. Safe for
// concurrent use with Observe — one short per-table critical section on
// the same striped lock.
func (t *Tracker) Hot(ti int, idx int64) bool {
	if ti < 0 || ti >= len(t.tables) {
		return false
	}
	return t.tables[ti].hot(idx)
}

func (ts *tableSketch) hot(idx int64) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.total == 0 {
		return true
	}
	e, ok := ts.entries[idx]
	return ok && e.count*int64(ts.cap) >= ts.total
}

// TableSnapshot is one table's sketch content: keys with their estimated
// counts (descending), the exact access total, and the number of
// Space-Saving evictions (0 means every count is exact).
type TableSnapshot struct {
	Keys    []int64
	Counts  []int64
	Total   int64
	Evicted int64
}

// Snapshot copies every table's sketch state.
func (t *Tracker) Snapshot() []TableSnapshot {
	out := make([]TableSnapshot, len(t.tables))
	for i := range t.tables {
		out[i] = t.tables[i].snapshot()
	}
	return out
}

// Profile rebuilds a partition.Profile from the sketches: per-table
// histograms holding the top-k keys (the rows the placement will map
// individually) and cumulative-access curves whose observed mass is the
// share of traffic the sketch retained, with the untracked remainder
// ramping over the tail. The result feeds partition.SolveLP and
// partition.Build exactly like an offline profile.
func (t *Tracker) Profile() (*partition.Profile, error) {
	snaps := t.Snapshot()
	hists := make([]*stats.Histogram, len(snaps))
	cdfs := make([]*stats.CDF, len(snaps))
	for i, sn := range snaps {
		h := stats.NewHistogram()
		for k, key := range sn.Keys {
			h.AddN(key, sn.Counts[k])
		}
		// Space-Saving counts sum to the stream total by construction (an
		// eviction moves the minimum count to the newcomer, it never drops
		// mass), so "retained/total" is uselessly 1.0. The real question is
		// how much of that mass belongs to the retained keys: each count
		// overestimates its key's true frequency by at most the minimum
		// retained count (Metwally et al.), so count − min is a guaranteed
		// lower bound per key and Σ(count − min) = total − k·min bounds the
		// attributable mass. The remainder is eviction churn owned by the
		// untracked tail. If nothing was ever evicted the counts are exact
		// and the sketch holds the whole stream.
		obsMass := 1.0
		if sn.Evicted > 0 && sn.Total > 0 && len(sn.Counts) > 0 {
			minCount := sn.Counts[len(sn.Counts)-1]
			attrib := sn.Total - int64(len(sn.Counts))*minCount
			if attrib < 0 {
				attrib = 0
			}
			obsMass = float64(attrib) / float64(sn.Total)
		}
		// The sketch truncates the stream at k ranks; under a skewed
		// workload the mass just past the truncation is still substantial,
		// so the unseen remainder follows a power-law tail fitted from the
		// retained counts rather than a uniform ramp (which would starve
		// the warm mid-ranks and misplace them into the slow region).
		c, err := stats.CDFFromCountsTail(sn.Counts, int(t.spec.Tables[i].Rows), obsMass, stats.FitZipf(sn.Counts))
		if err != nil {
			return nil, fmt.Errorf("adapt: table %q: %w", t.spec.Tables[i].Name, err)
		}
		hists[i] = h
		cdfs[i] = c
	}
	return &partition.Profile{Spec: t.spec, Hists: hists, CDFs: cdfs}, nil
}

// tableSketch is one table's Space-Saving summary: capacity-bounded
// entries in a min-heap by count, plus the exact access total.
type tableSketch struct {
	mu      sync.Mutex
	cap     int
	entries map[int64]*ssEntry
	heap    ssHeap
	total   int64
	evicted int64
}

type ssEntry struct {
	key   int64
	count int64
	pos   int // heap index
}

func (ts *tableSketch) init(capacity int) {
	ts.cap = capacity
	ts.entries = make(map[int64]*ssEntry, capacity)
	ts.heap = make(ssHeap, 0, capacity)
}

func (ts *tableSketch) observe(indices []int64) {
	ts.mu.Lock()
	for _, idx := range indices {
		ts.total++
		if e, ok := ts.entries[idx]; ok {
			e.count++
			heap.Fix(&ts.heap, e.pos)
			continue
		}
		if len(ts.heap) < ts.cap {
			e := &ssEntry{key: idx, count: 1}
			ts.entries[idx] = e
			heap.Push(&ts.heap, e)
			continue
		}
		// Space-Saving eviction: the newcomer takes over the minimum
		// entry, inheriting its count + 1 (the overestimate bound).
		ts.evicted++
		min := ts.heap[0]
		delete(ts.entries, min.key)
		min.key = idx
		min.count++
		ts.entries[idx] = min
		heap.Fix(&ts.heap, 0)
	}
	ts.mu.Unlock()
}

func (ts *tableSketch) decay() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	kept := ts.heap[:0]
	for _, e := range ts.heap {
		e.count /= 2
		if e.count > 0 {
			kept = append(kept, e)
		} else {
			delete(ts.entries, e.key)
		}
	}
	ts.heap = kept
	heap.Init(&ts.heap)
	for i, e := range ts.heap {
		e.pos = i
	}
	ts.total /= 2
}

func (ts *tableSketch) reset() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.entries = make(map[int64]*ssEntry, ts.cap)
	ts.heap = ts.heap[:0]
	ts.total = 0
	ts.evicted = 0
}

func (ts *tableSketch) snapshot() TableSnapshot {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	sn := TableSnapshot{
		Keys:    make([]int64, len(ts.heap)),
		Counts:  make([]int64, len(ts.heap)),
		Total:   ts.total,
		Evicted: ts.evicted,
	}
	// Copy then sort descending by count (ties by key, deterministic).
	ents := make([]*ssEntry, len(ts.heap))
	copy(ents, ts.heap)
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].count != ents[j].count {
			return ents[i].count > ents[j].count
		}
		return ents[i].key < ents[j].key
	})
	for i, e := range ents {
		sn.Keys[i] = e.key
		sn.Counts[i] = e.count
	}
	return sn
}

// ssHeap is a min-heap of entries by count.
type ssHeap []*ssEntry

func (h ssHeap) Len() int            { return len(h) }
func (h ssHeap) Less(i, j int) bool  { return h[i].count < h[j].count }
func (h ssHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].pos = i; h[j].pos = j }
func (h *ssHeap) Push(x interface{}) { e := x.(*ssEntry); e.pos = len(*h); *h = append(*h, e) }
func (h *ssHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
