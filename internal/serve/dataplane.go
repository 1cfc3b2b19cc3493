package serve

import (
	"runtime"
	"sync"

	"recross/internal/embedding"
	"recross/internal/trace"
)

// The functional data plane of the server: every answered request's
// result vectors come from embedding.Layer reductions. Two pieces keep
// it off the allocator and off a single core:
//
//   - a reducerPool of persistent worker goroutines, each owning one
//     embedding.Scratch, reducing independent samples of a batch
//     concurrently (ops are independent; per-op association order is
//     untouched, so results stay bit-identical to the scalar reference
//     — TestParallelReduceBitIdentical enforces it);
//   - the layer's optional sharded hot-row cache (Options.RowCacheBytes),
//     whose hit/miss/eviction/bytes counters ride /metrics as the
//     recross_dataplane_* series.
//
// The timing simulators keep their documented single-goroutine ownership:
// only the functional layer — immutable tables plus the internally locked
// row cache — is touched from multiple goroutines.

// reduceJob is one sample's reduction, fanned to the pool by a replica
// worker (per batch) or a degraded-path caller (single sample).
type reduceJob struct {
	sample trace.Sample
	out    *[][]float32
	err    *error
	wg     *sync.WaitGroup
}

// reducerPool is the small persistent pool of data-plane reduction
// workers. Workers never block on anything but their own reductions, so
// submissions cannot deadlock; the pool is shared by every replica
// worker and the degraded answer paths.
type reducerPool struct {
	layer *embedding.Layer
	jobs  chan reduceJob
	wg    sync.WaitGroup
}

// defaultReduceWorkers sizes the pool when Options.ReduceWorkers is 0:
// a few workers saturate the data plane long before they contend on the
// row-cache shards, and the timing simulators want the remaining cores.
func defaultReduceWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

func newReducerPool(layer *embedding.Layer, workers int) *reducerPool {
	p := &reducerPool{layer: layer, jobs: make(chan reduceJob, 2*workers)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// worker owns one Scratch for its lifetime. ReduceSampleInto's result
// vectors live in that Scratch (valid only until its next call), while a
// served Result's vectors escape indefinitely — to HTTP marshalling,
// caller futures — so each sample's answer is cloned into caller-owned
// memory before the job completes.
func (p *reducerPool) worker() {
	defer p.wg.Done()
	var scratch embedding.Scratch
	for j := range p.jobs {
		vecs, err := p.layer.ReduceSampleInto(j.sample, &scratch)
		if err == nil {
			vecs = embedding.CloneVectors(vecs)
		}
		*j.out, *j.err = vecs, err
		j.wg.Done()
	}
}

// reduceOne reduces a single sample through the pool — the degraded
// answer path, callable from any goroutine.
func (p *reducerPool) reduceOne(sample trace.Sample) ([][]float32, error) {
	var out [][]float32
	var err error
	var wg sync.WaitGroup
	wg.Add(1)
	p.jobs <- reduceJob{sample: sample, out: &out, err: &err, wg: &wg}
	wg.Wait()
	return out, err
}

// close drains the pool; no submissions may follow.
func (p *reducerPool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// initDataplane builds the server's reducer pool and, when configured,
// the layer's hot-row cache. Called once from New.
func (s *Server) initDataplane() error {
	if s.opts.RowCacheBytes > 0 && s.opts.Layer.RowCache() == nil {
		c, err := embedding.NewRowCache(s.opts.RowCacheBytes, s.opts.Layer.Table(0).VecLen())
		if err != nil {
			return err
		}
		if err := s.opts.Layer.AttachRowCache(c); err != nil {
			return err
		}
	}
	s.rowCache = s.opts.Layer.RowCache()
	workers := s.opts.ReduceWorkers
	if workers == 0 {
		workers = defaultReduceWorkers()
	}
	s.reducers = newReducerPool(s.opts.Layer, workers)
	return nil
}

// RowCache returns the layer's hot-row cache, or nil when disabled.
func (s *Server) RowCache() *embedding.RowCache { return s.rowCache }

// Layer returns the shared functional embedding layer the server answers
// from — the facade re-routes its cold tier through it on adoption.
func (s *Server) Layer() *embedding.Layer { return s.opts.Layer }

// registerDataplane publishes the data-plane series. The row-cache series
// are registered even when the cache is disabled (as zeros) so scrapes see
// a stable schema.
func (s *Server) registerDataplane() {
	var st embedding.RowCacheStats
	if s.rowCache != nil {
		s.set.OnScrape(func() { st = s.rowCache.Stats() })
	}
	s.set.Counter("recross_dataplane_row_cache_hits_total", "Row-cache probes that hit.", func() int64 { return st.Hits })
	s.set.Counter("recross_dataplane_row_cache_misses_total", "Row-cache probes that missed.", func() int64 { return st.Misses })
	s.set.Counter("recross_dataplane_row_cache_evictions_total", "Resident rows replaced by CLOCK.", func() int64 { return st.Evictions })
	s.set.Counter("recross_dataplane_cold_fallbacks_total", "Cold rows materialized directly because the store could not serve them.", s.opts.Layer.ColdFallbacks)
	s.set.IntGauge("recross_dataplane_row_cache_bytes", "Resident row bytes (fp32).", func() int64 { return st.Bytes })
	s.set.IntGauge("recross_dataplane_row_cache_capacity_bytes", "Row-cache capacity.", func() int64 { return st.CapBytes })
	s.set.Gauge("recross_dataplane_row_cache_hit_rate", "Hits over probes.", func() float64 { return st.HitRate() })
	// Precision accounting: resident rows are always fp32; the quantized
	// series is what the same rows occupy in the backing store, and the
	// ratio is the effective compression a quantized layer buys.
	s.set.IntGauge("recross_dataplane_row_bytes_fp32", "Resident rows at fp32.", func() int64 { return st.Bytes })
	s.set.IntGauge("recross_dataplane_row_bytes_quantized", "The same rows at the backing store's precision.", func() int64 { return st.LogicalBytes })
	s.set.Gauge("recross_dataplane_row_compression_ratio", "fp32 bytes over backing-store bytes.", func() float64 { return st.CompressionRatio() })
}
