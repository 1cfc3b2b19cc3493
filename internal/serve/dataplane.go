package serve

import (
	"time"

	"recross/internal/embedding"
)

// The functional data plane of the server: every answered request's
// result vectors come from embedding.Layer reductions, and every one runs
// on the goroutine of the Lookup that asked for it (answer). Two pieces
// keep it off the allocator and off a single core:
//
//   - a sync.Pool of embedding.Scratch arenas, so concurrent callers
//     reduce concurrently without allocating working memory (samples are
//     independent and per-op association order is untouched, so results
//     stay bit-identical to the scalar reference —
//     TestParallelReduceBitIdentical enforces it);
//   - the layer's optional sharded hot-row cache (Options.RowCacheBytes),
//     whose hit/miss/eviction/bytes counters ride /metrics as the
//     recross_dataplane_* series.
//
// The timing simulators keep their documented single-goroutine ownership:
// only the functional layer — immutable tables plus the internally locked
// row cache — is touched from multiple goroutines.

// answer turns a request's verdict into its caller's answer, on the
// caller's goroutine: it reduces the sample and fills the fields the
// verdict leaves out. It is the one place a Result gets its vectors and
// the one place an answered request is counted.
func (s *Server) answer(r *request, res *Result) (*Result, error) {
	sc := s.scratch.Get().(*embedding.Scratch)
	defer s.scratch.Put(sc)
	vecs, err := s.opts.Layer.ReduceSampleInto(r.sample, sc)
	if err != nil {
		s.metrics.Failed.Add(1)
		return nil, err
	}
	// The reduced vectors live in the pooled Scratch; the answer escapes
	// (to HTTP marshalling, the caller), so it gets its own copy.
	res.Vectors = embedding.CloneVectors(vecs)
	res.ColdDegraded = s.coldDegraded()
	res.QueueWait = r.deq.Sub(r.enq)
	res.Total = time.Since(r.enq)
	s.metrics.Completed.Add(1)
	s.metrics.E2E.Record(res.Total.Nanoseconds())
	if res.Degraded {
		s.metrics.Degraded.Add(1)
	}
	if res.ColdDegraded {
		s.metrics.DegradedCold.Add(1)
	}
	return res, nil
}

// initDataplane builds the server's scratch pool and, when configured,
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
	s.scratch.New = func() any { return new(embedding.Scratch) }
	return nil
}

// RowCache returns the layer's hot-row cache, or nil when disabled.
func (s *Server) RowCache() *embedding.RowCache { return s.rowCache }

// Layer returns the shared functional embedding layer the server answers
// from.
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
