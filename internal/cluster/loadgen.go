package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"recross/internal/serve"
	"recross/internal/trace"
)

// Report summarizes one cluster load-generation run.
type Report struct {
	serve.LoadRun
	Degraded int64 // completed with >=1 functional-fallback op
	Retried  int64 // completed after >=1 sub-request failover
	Canceled int64
	Errors   int64
	// Stats is the router's counter snapshot at the end of the run.
	Stats Stats
}

// String renders the human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster loadgen: %d clients, %.2fs wall\n", r.Clients, r.Wall.Seconds())
	fmt.Fprintf(&b, "  completed  %d (%.0f req/s)\n", r.Requests, r.Thru)
	if r.Degraded > 0 {
		fmt.Fprintf(&b, "  degraded   %d (functional fallback)\n", r.Degraded)
	}
	if r.Retried > 0 {
		fmt.Fprintf(&b, "  retried    %d\n", r.Retried)
	}
	if r.Canceled > 0 || r.Errors > 0 {
		fmt.Fprintf(&b, "  canceled %d, errors %d\n", r.Canceled, r.Errors)
	}
	fmt.Fprintf(&b, "  latency    p50 %v  p95 %v  p99 %v  max %v\n", r.P50, r.P95, r.P99, r.Max)
	fmt.Fprintf(&b, "  subreqs    %d (failures %d)\n", r.Stats.Subrequests, r.Stats.SubFailures)
	return b.String()
}

// Loadgen drives the router with the shared closed-loop driver
// (serve.DriveLoad, same serve.LoadgenOptions) and reports the
// cluster-side outcome split.
func Loadgen(r *Router, opts serve.LoadgenOptions) (*Report, error) {
	const (
		degraded = iota
		retried
		canceled
		other
		nCounts
	)
	run, n, err := serve.DriveLoad("cluster", opts, nCounts, func(ctx context.Context, sample trace.Sample, n []int64) (bool, error) {
		res, err := r.Lookup(ctx, sample)
		switch {
		case err == nil:
			if res.Degraded {
				n[degraded]++
			}
			if res.Retries > 0 {
				n[retried]++
			}
			return true, nil
		case serve.IsCanceled(err):
			n[canceled]++
		case errors.Is(err, ErrRouterClosed):
			return false, serve.ErrLoadStop
		default:
			n[other]++
			return false, err
		}
		return false, nil
	})
	if n == nil {
		return nil, err
	}
	return &Report{
		LoadRun: run, Degraded: n[degraded], Retried: n[retried],
		Canceled: n[canceled], Errors: n[other], Stats: r.Stats(),
	}, err
}
