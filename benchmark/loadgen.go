package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// maxInFlight caps concurrent open-loop lookups; a request due while
	// the cap is reached is refused and counts as failed.
	maxInFlight = 512
	// opDeadline bounds one lookup; a timeout counts as failed.
	opDeadline = 2 * time.Second
	// closedCallers is the closed loop's client count.
	closedCallers = 32
)

// doFunc performs operation i and reports whether it failed. It is called
// from many goroutines; i is unique per call.
type doFunc func(ctx context.Context, i int) error

// opRecord is one attempted operation, in nanoseconds since the phase
// began. Latency runs from due, not sent: in an open loop a stalled
// generator delays later requests, and their callers waited that long.
type opRecord struct {
	due, sent, done int64
	failed          bool
}

// phase is the log of one measured loop.
type phase struct {
	ops  []opRecord
	wall time.Duration
	cpu  time.Duration // process CPU time spent while it ran
}

// openLoop issues request i at start + i/rate for dur, whatever the
// system's speed, one goroutine per in-flight request. sleep is
// time.Sleep except in tests, which inject generator stalls through it.
func openLoop(rate float64, dur time.Duration, first int, do doFunc, sleep func(time.Duration)) *phase {
	n := int(rate * dur.Seconds())
	p := &phase{ops: make([]opRecord, n)}
	cpu0, start := cpuTime(), time.Now()
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if wait := due - time.Since(start); wait > 0 {
			sleep(wait)
		}
		rec := &p.ops[i]
		rec.due = due.Nanoseconds()
		rec.sent = time.Since(start).Nanoseconds()
		if inFlight.Load() >= maxInFlight {
			rec.done, rec.failed = rec.sent, true
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
			err := do(ctx, first+i)
			cancel()
			rec.done = time.Since(start).Nanoseconds()
			rec.failed = err != nil
			inFlight.Add(-1)
		}(i)
	}
	wg.Wait()
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	return p
}

// closedLoop runs callers clients for dur (and at least minOps
// operations); each sends its next request only after the previous answer.
func closedLoop(callers int, dur time.Duration, minOps, first int, do doFunc) *phase {
	cpu0, start := cpuTime(), time.Now()
	var next atomic.Int64
	logs := make([][]opRecord, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if time.Since(start) >= dur && i >= minOps {
					return
				}
				sent := time.Since(start).Nanoseconds()
				ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
				err := do(ctx, first+i)
				cancel()
				logs[c] = append(logs[c], opRecord{sent, sent, time.Since(start).Nanoseconds(), err != nil})
			}
		}(c)
	}
	wg.Wait()
	p := &phase{wall: time.Since(start), cpu: cpuTime() - cpu0}
	for _, l := range logs {
		p.ops = append(p.ops, l...)
	}
	return p
}

// summary is what a phase reduces to.
type summary struct {
	sent, ok, failed int
	p50              float64 // ms from due time: median of the quietest half second
	p50All           float64 // ms: plain median over the whole phase
	p90, tail        float64 // ms, whole phase
	tailPct          float64 // the percentile tail was taken at
	lateMax          float64 // ms the generator ran behind, worst case
	perSecond        float64 // completed operations per second, best full second
	cpuMsPerOp       float64 // process CPU per completed operation, whole phase
}

const (
	latencyWindow    = 500 * time.Millisecond
	throughputWindow = time.Second
	// minWindowOps is how many completions a window needs before its
	// median counts.
	minWindowOps = 5
)

// summarize reduces a phase.
//
// The recording box shares its memory system with other tenants, and every
// operation is slowed by a factor that wanders between about 1.05 and 1.5
// over seconds to minutes (see the README). Whole-phase medians and means
// carry that wander, 10 to 20 % from run to run; the quietest window of a
// run is much steadier, 1 to 4 %. So the two headline figures are taken
// from the quietest window: p50 is the lowest half-second median latency,
// perSecond the completions of the best full second. Both are measured
// values, biased towards the undisturbed machine; p50All is the plain
// median for comparison.
func summarize(p *phase) summary {
	s := summary{sent: len(p.ops)}
	var lat []float64
	windows := map[int64][]float64{}
	for _, r := range p.ops {
		if late := float64(r.sent-r.due) / 1e6; late > s.lateMax {
			s.lateMax = late
		}
		if r.failed {
			s.failed++
			continue
		}
		ms := float64(r.done-r.due) / 1e6
		lat = append(lat, ms)
		w := r.done / int64(latencyWindow)
		windows[w] = append(windows[w], ms)
	}
	s.ok = len(lat)
	sort.Float64s(lat)
	s.p50All = percentile(lat, 50)
	s.p90 = percentile(lat, 90)
	s.tailPct = tailPercentile(len(lat))
	s.tail = percentile(lat, s.tailPct)
	s.p50 = s.p50All
	for _, w := range windows {
		if m := median(w); len(w) >= minWindowOps && m < s.p50 {
			s.p50 = m
		}
	}
	s.perSecond = bestSecond(p)
	if s.ok > 0 {
		s.cpuMsPerOp = float64(p.cpu.Nanoseconds()) / 1e6 / float64(s.ok)
	}
	return s
}

// bestSecond is the highest completion rate over the phase's full
// one-second windows. A window's rate is its completions over the time
// from the last completion before it to its own last completion, so a slow
// loop (tens of operations a second) is not rounded to whole operations.
// A phase shorter than two windows reports its overall rate.
func bestSecond(p *phase) float64 {
	var done []int64
	for _, r := range p.ops {
		if !r.failed {
			done = append(done, r.done)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	full := int64(p.wall / throughputWindow) // the last, partial window is left out
	best, prevLast, i := 0.0, int64(0), 0
	for w := int64(0); w < full; w++ {
		end := (w + 1) * int64(throughputWindow)
		n, last := 0, prevLast
		for ; i < len(done) && done[i] < end; i++ {
			n, last = n+1, done[i]
		}
		if w > 0 && n > 0 && last > prevLast { // the first window starts from a standstill
			if r := float64(n) / (float64(last-prevLast) / 1e9); r > best {
				best = r
			}
		}
		prevLast = last
	}
	if best == 0 && p.wall > 0 {
		return float64(len(done)) / p.wall.Seconds()
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted values
// (0 for an empty sample).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentile is the highest of 99, 90 and 50 that still has at least
// ten samples beyond it in a sample of n; a tail read from fewer is one
// outlier's latency, not the distribution's.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
