package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"recross"
	"recross/internal/cluster"
	"recross/internal/embedding"
	"recross/internal/kernels"
	"recross/internal/serve"
)

// Standalone replays: each times one layer alone, outside the request
// path, so its cost can be set against the stage it sits in. They run in
// the traced run only, after the timed phases.

// replay calls fn(i) for dur (and at least min times) and returns the
// median duration in microseconds; each call is recorded as a span.
func replay(rec *recorder, name string, dur time.Duration, min int, fn func(i int) error) (float64, error) {
	var us []float64
	start := time.Now()
	rec.on.Store(true)
	defer rec.on.Store(false)
	for i := 0; i < min || time.Since(start) < dur; i++ {
		var err error
		d := rec.timed(name, func() { err = fn(i) })
		if err != nil {
			return 0, fmt.Errorf("%s replay: %w", name, err)
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	return median(us), nil
}

// zeroSystem is a timing model that costs nothing, leaving the serving
// layer's own work.
type zeroSystem struct{}

func (zeroSystem) Name() string { return "bench-zero" }

func (zeroSystem) Run(b recross.Batch) (*recross.RunStats, error) {
	return &recross.RunStats{Cycles: 1, Imbalance: 1}, nil
}

// fixedBackend answers every wire lookup with the same prepared result, so
// a round trip through it is transport cost alone.
type fixedBackend struct{ res *serve.Result }

func (f fixedBackend) Lookup(context.Context, recross.Sample) (*serve.Result, error) {
	return f.res, nil
}

func (fixedBackend) Health() serve.HealthReport { return serve.HealthReport{Status: "ok"} }

// replayLayers runs the serving-side replays for one workload.
func replayLayers(rec *recorder, t *target, sp serveSpec, samples []recross.Sample, rc runConfig) (metrics, error) {
	m := metrics{}
	dur := rc.dur(0.03)
	var err error

	// embedding: the workload's own samples through the server's layer,
	// row cache and cold route included, on one goroutine.
	layer := t.servers[0].Layer()
	var scr embedding.Scratch
	if m["embedding.reduce_us_per_sample"], err = replay(rec, "embedding.reduce", dur, 64, func(i int) error {
		_, err := layer.ReduceSampleInto(samples[i%len(samples)], &scr)
		return err
	}); err != nil {
		return nil, err
	}

	// kernels: the accumulate step of a weighted-sum reduce over 4096 rows
	// of 64, from fp32 rows and from int8 codes.
	const rows, width = 4096, 64
	rng := rand.New(rand.NewSource(1))
	src := make([]float32, rows*width)
	for i := range src {
		src[i] = rng.Float32()
	}
	q := make([]uint8, rows*width)
	for r := 0; r < rows; r++ {
		kernels.QuantizeI8(q[r*width:(r+1)*width], src[r*width:(r+1)*width])
	}
	dst := make([]float32, width)
	fp32Us, _ := replay(rec, "kernels.axpy", 0, 9, func(int) error {
		for r := 0; r < rows; r++ {
			kernels.Axpy(dst, src[r*width:(r+1)*width], 0.5)
		}
		return nil
	})
	int8Us, _ := replay(rec, "kernels.axpy", 0, 9, func(int) error {
		for r := 0; r < rows; r++ {
			kernels.AxpyI8(dst, q[r*width:(r+1)*width], 0.5, 0.01, 3)
		}
		return nil
	})
	m["kernels.axpy_ns_per_row_fp32"] = fp32Us * 1e3 / rows
	m["kernels.axpy_ns_per_row_int8"] = int8Us * 1e3 / rows

	// serve: one caller, one-sample batches, a free timing model and a
	// one-row reduce, so what is left is admission, batcher, replica
	// hand-off, watchdog and the reducer pool hop.
	tiny := recross.ModelSpec{Name: "bench-tiny", Tables: []recross.TableSpec{
		{Name: "t", Rows: 1024, VecLen: 16, Pooling: 1, Prob: 1},
	}}
	tinyLayer, err := recross.NewLayer(tiny)
	if err != nil {
		return nil, err
	}
	tinySrv, err := serve.New(serve.Options{Systems: []recross.System{zeroSystem{}}, Layer: tinyLayer, MaxBatch: 1})
	if err != nil {
		return nil, err
	}
	tinySample := recross.Sample{{Table: 0, Indices: []int64{7}, Weights: []float32{1}}}
	m["serve.overhead_us_per_lookup"], err = replay(rec, "serve.overhead", dur, 64, func(int) error {
		_, err := tinySrv.Lookup(context.Background(), tinySample)
		return err
	})
	tinySrv.Close()
	if err != nil {
		return nil, err
	}

	if sp.nodes > 0 {
		if m["wire.rtt_us_p50"], err = wireRTT(rec, sp, samples, dur); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// wireRTT times sequential BinNode lookups of the workload's samples
// against a listener whose backend is free.
func wireRTT(rec *recorder, sp serveSpec, samples []recross.Sample, dur time.Duration) (float64, error) {
	layer, err := recross.NewLayer(sp.cfg.Spec)
	if err != nil {
		return 0, err
	}
	vecs, err := layer.ReduceSample(samples[0])
	if err != nil {
		return 0, err
	}
	bs, err := cluster.NewBinServer(cluster.BinServerOptions{
		Backend: fixedBackend{&serve.Result{Vectors: vecs, BatchSize: 1}}, Layer: layer,
	})
	if err != nil {
		return 0, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		bs.Serve(lis)
	}()
	bn := cluster.NewBinNode("rtt", lis.Addr().String(), cluster.BinNodeOptions{Conns: 1})
	us, err := replay(rec, "wire.rtt", dur, 64, func(i int) error {
		_, err := bn.Lookup(context.Background(), samples[i%len(samples)])
		return err
	})
	bn.Close()
	bs.Close()
	<-served
	return us, err
}

// scrapeMetrics reads srv's /metrics text through its handler (no
// listener) and returns the series starting with prefix, keyed without it.
func scrapeMetrics(srv *recross.Server, prefix string) map[string]float64 {
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(w.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, prefix) {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[strings.TrimPrefix(name, prefix)] = v
		}
	}
	return out
}

// loadgenMetrics reports the load generator's side of the open and closed
// phases.
func loadgenMetrics(open, closed summary) metrics {
	return metrics{
		"loadgen.sent":              float64(open.sent),
		"loadgen.ok":                float64(open.ok),
		"loadgen.late_ms_max":       open.lateMax,
		"loadgen.lookup_p50_all_ms": open.p50All,
		"loadgen.lookup_p90_ms":     open.p90,
		"loadgen.lookup_p99_ms":     open.tail,
		"loadgen.tail_pct":          open.tailPct,
		"loadgen.closed_p50_ms":     closed.p50,
	}
}

// processMetrics reports allocation and GC cost between two marks, per
// completed operation.
func processMetrics(a, b memMark, ops int) metrics {
	if ops == 0 {
		return metrics{}
	}
	return metrics{
		"process.allocs_per_lookup":   float64(b.mallocs-a.mallocs) / float64(ops),
		"process.alloc_kb_per_lookup": float64(b.bytes-a.bytes) / 1024 / float64(ops),
		"process.gc_pause_ms":         float64(b.pauseNs-a.pauseNs) / 1e6,
	}
}
