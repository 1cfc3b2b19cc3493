package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"recross/internal/stats"
	"recross/internal/trace"
)

// LoadgenOptions configures Loadgen, the built-in closed-loop load
// generator: Clients goroutines each issue Lookup calls back-to-back
// (closed loop — a client's next request waits for its previous answer)
// for Duration.
type LoadgenOptions struct {
	// Spec is the workload the clients draw samples from (required; must
	// match the spec the server's systems were built for).
	Spec trace.ModelSpec
	// Clients is the number of concurrent closed-loop clients
	// (default 8).
	Clients int
	// Duration is how long to generate load (default 5s).
	Duration time.Duration
	// Seed seeds client i's generator with Seed+i (default 1).
	Seed int64
	// Timeout, when positive, bounds each request with a deadline.
	Timeout time.Duration
	// TailMass, in [0,1], redirects this fraction of every client's index
	// draws to a uniform pick from the cold half of the rank space
	// (trace.Generator.SetTailMass) — shifting load toward cold-tier rows.
	TailMass float64
}

func (o LoadgenOptions) withDefaults() LoadgenOptions {
	if o.Clients == 0 {
		o.Clients = 8
	}
	if o.Duration == 0 {
		o.Duration = 5 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// LoadRun is what the shared closed-loop driver measures for any target:
// wall time, completed requests, throughput, and exact latency
// percentiles (every request's latency is kept, unlike the server's
// streaming histograms). Target-specific reports embed it.
type LoadRun struct {
	Clients  int
	Wall     time.Duration
	Requests int64   // completed successfully (including degraded)
	Thru     float64 // completed requests per second
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
	Max      time.Duration
}

// ErrLoadStop, returned by a DriveLoad lookup, ends that client's loop
// quietly — the target is closed or draining.
var ErrLoadStop = errors.New("serve: load target closed")

// DriveLoad is the one closed-loop load driver, shared by the single-node
// and cluster generators: opts.Clients goroutines each draw samples from
// their own seeded generator (with the tail-mass redirection) and call
// lookup back-to-back until opts.Duration elapses.
//
// lookup issues one request and classifies its outcome for the target:
// (true, nil) is a completed request whose latency is kept; (false, nil)
// an unsuccessful one the target has tallied; ErrLoadStop ends the client;
// any other error is an unclassified failure (tallied by the target too)
// remembered only to explain a run that completed nothing. counts is the
// calling client's private slice of nCounts target-defined tallies; the
// per-client slices are summed into the returned totals. who prefixes
// the driver's own errors. The totals are nil only when the run never
// started (invalid options); a run that completed no request returns its
// measurements together with an error.
func DriveLoad(who string, opts LoadgenOptions, nCounts int,
	lookup func(ctx context.Context, s trace.Sample, counts []int64) (bool, error)) (LoadRun, []int64, error) {
	opts = opts.withDefaults()
	if err := opts.Spec.Validate(); err != nil {
		return LoadRun{}, nil, err
	}
	if opts.Clients < 1 {
		return LoadRun{}, nil, fmt.Errorf("%s: %d clients", who, opts.Clients)
	}

	lat := make([][]float64, opts.Clients) // ns, per client
	counts := make([][]int64, opts.Clients)
	start := time.Now()
	deadline := start.Add(opts.Duration)

	var wg sync.WaitGroup
	errc := make(chan error, 1) // first unclassified error
	note := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	for c := 0; c < opts.Clients; c++ {
		gen, err := trace.NewGenerator(opts.Spec, opts.Seed+int64(c))
		if err != nil {
			return LoadRun{}, nil, err
		}
		if opts.TailMass > 0 {
			if err := gen.SetTailMass(opts.TailMass); err != nil {
				return LoadRun{}, nil, err
			}
		}
		counts[c] = make([]int64, nCounts)
		wg.Add(1)
		go func(c int, gen *trace.Generator) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sample := gen.Sample()
				if len(sample) == 0 {
					continue // all-probabilistic spec rolled no tables
				}
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if opts.Timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
				}
				t0 := time.Now()
				ok, err := lookup(ctx, sample, counts[c])
				cancel()
				switch {
				case ok:
					lat[c] = append(lat[c], float64(time.Since(t0).Nanoseconds()))
				case errors.Is(err, ErrLoadStop):
					return
				case err != nil:
					note(err)
				}
			}
		}(c, gen)
	}
	wg.Wait()

	run := LoadRun{Clients: opts.Clients, Wall: time.Since(start)}
	totals := make([]int64, nCounts)
	var all []float64
	for c := range lat {
		all = append(all, lat[c]...)
		for i, n := range counts[c] {
			totals[i] += n
		}
	}
	run.Requests = int64(len(all))
	if run.Wall > 0 {
		run.Thru = float64(run.Requests) / run.Wall.Seconds()
	}
	run.P50 = time.Duration(stats.Percentile(all, 50))
	run.P95 = time.Duration(stats.Percentile(all, 95))
	run.P99 = time.Duration(stats.Percentile(all, 99))
	for _, ns := range all {
		if d := time.Duration(ns); d > run.Max {
			run.Max = d
		}
	}
	if run.Requests == 0 {
		select {
		case err := <-errc:
			return run, totals, fmt.Errorf("%s: loadgen completed no requests: %w", who, err)
		default:
			return run, totals, fmt.Errorf("%s: loadgen completed no requests", who)
		}
	}
	return run, totals, nil
}

// IsCanceled reports a deadline/cancellation error — the one outcome
// class every load target tallies the same way.
func IsCanceled(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// Report summarizes one load-generation run. Unsuccessful requests are
// reported as separate counts — shed (admission rejected), canceled
// (deadline/cancellation), errors (anything else) — rather than one
// bucket; replica faults never reach the caller. Degradation is split
// by cause: Degraded counts answers that completed from the functional
// fallback after a compute-quorum loss, ColdDegraded answers completed
// while the storage tier was degraded (cold rows through the slow direct
// path); a request may count in both.
type Report struct {
	LoadRun
	Degraded     int64 // completed via the functional fallback (compute)
	ColdDegraded int64 // completed while the cold tier was degraded (storage)
	Shed         int64
	Canceled     int64
	Errors       int64 // any other failures
	MeanBatch    float64
	// ServiceP50/P99 are simulated DRAM-cycle batch latencies.
	ServiceP50, ServiceP99 float64
}

// String renders the human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d clients, %.2fs wall\n", r.Clients, r.Wall.Seconds())
	fmt.Fprintf(&b, "  completed  %d (%.0f req/s)\n", r.Requests, r.Thru)
	if r.Degraded > 0 {
		fmt.Fprintf(&b, "  degraded   %d (compute: functional fallback)\n", r.Degraded)
	}
	if r.ColdDegraded > 0 {
		fmt.Fprintf(&b, "  degraded   %d (storage: cold tier fallback)\n", r.ColdDegraded)
	}
	if r.Shed > 0 || r.Canceled > 0 || r.Errors > 0 {
		fmt.Fprintf(&b, "  shed %d, canceled %d, errors %d\n", r.Shed, r.Canceled, r.Errors)
	}
	fmt.Fprintf(&b, "  latency    p50 %v  p95 %v  p99 %v  max %v\n", r.P50, r.P95, r.P99, r.Max)
	fmt.Fprintf(&b, "  batching   mean %.1f samples/batch\n", r.MeanBatch)
	fmt.Fprintf(&b, "  simulated  p50 %.0f  p99 %.0f DRAM cycles/batch\n", r.ServiceP50, r.ServiceP99)
	return b.String()
}

// Loadgen drives the server with closed-loop clients (DriveLoad) and
// reports throughput, latency percentiles and the per-cause outcome split.
func Loadgen(s *Server, opts LoadgenOptions) (*Report, error) {
	const (
		degraded = iota
		coldDegraded
		shed
		canceled
		other
		nCounts
	)
	run, n, err := DriveLoad("serve", opts, nCounts, func(ctx context.Context, sample trace.Sample, n []int64) (bool, error) {
		res, err := s.Lookup(ctx, sample)
		switch {
		case err == nil:
			if res.Degraded {
				n[degraded]++
			}
			if res.ColdDegraded {
				n[coldDegraded]++
			}
			return true, nil
		case errors.Is(err, ErrOverloaded):
			n[shed]++
		case IsCanceled(err):
			n[canceled]++
		case errors.Is(err, ErrClosed):
			return false, ErrLoadStop
		default:
			n[other]++
			return false, err
		}
		return false, nil
	})
	if n == nil {
		return nil, err
	}
	snap := s.Metrics().Snapshot()
	return &Report{
		LoadRun: run, Degraded: n[degraded], ColdDegraded: n[coldDegraded],
		Shed: n[shed], Canceled: n[canceled], Errors: n[other],
		MeanBatch:  snap.MeanBatch(),
		ServiceP50: snap.ServiceCycles.P50, ServiceP99: snap.ServiceCycles.P99,
	}, err
}
