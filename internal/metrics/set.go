// Package metrics is the one place a recross_* series is written: a Set of
// registered series with the single exposition writer behind every /metrics
// endpoint, and the streaming Hist the latency series read. Nothing on a
// request path touches a Set; DESIGN.md ("Metrics") has the rationale.
package metrics

import (
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// series is one sample line: family name + suffix, rendered labels, and an
// int or a float source. A family is every series sharing a name.
type series struct {
	suffix, labels string
	i              func() int64
	f              func() float64
}

type family struct {
	name, kind, help string
	series           []series
}

// Set is an ordered list of metric families. A series is one registration
// line binding a name, kind, help and constant labels (name, value pairs)
// to a value that already exists: the Load method of an atomic counter its
// component owns, a func reading a gauge, or a Hist. Registration and scrapes
// are safe for concurrent use; families print in first-registration order.
type Set struct {
	mu      sync.Mutex
	fams    []*family
	byName  map[string]*family
	samples map[string]bool // name+suffix+labels: duplicate detection
	before  []func()
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{byName: map[string]*family{}, samples: map[string]bool{}} }

// Counter registers a monotonically increasing integer series.
func (s *Set) Counter(name, help string, v func() int64, labels ...string) {
	s.add(name, "counter", help, series{labels: render(labels), i: v})
}

// IntGauge registers an integer series that can go down.
func (s *Set) IntGauge(name, help string, v func() int64, labels ...string) {
	s.add(name, "gauge", help, series{labels: render(labels), i: v})
}

// Gauge registers a float series; NaN and ±Inf print as 0.
func (s *Set) Gauge(name, help string, v func() float64, labels ...string) {
	s.add(name, "gauge", help, series{labels: render(labels), f: v})
}

// Summary registers h as one summary family: name{quantile=…}, name_sum
// (the exact sum of the recorded samples) and name_count, each value times
// scale (1e-9 turns recorded nanoseconds into seconds).
func (s *Set) Summary(name, help string, h *Hist, scale float64) {
	var snap HistSnapshot // refreshed once per scrape
	s.OnScrape(func() { snap = h.Snapshot() })
	s.add(name, "summary", help,
		series{labels: `{quantile="0.5"}`, f: func() float64 { return snap.P50 * scale }},
		series{labels: `{quantile="0.95"}`, f: func() float64 { return snap.P95 * scale }},
		series{labels: `{quantile="0.99"}`, f: func() float64 { return snap.P99 * scale }},
		series{suffix: "_sum", f: func() float64 { return float64(snap.Sum) * scale }},
		series{suffix: "_count", i: func() int64 { return snap.Count }})
}

// OnScrape registers f to run at the start of every scrape: how a component
// with numbers behind a lock takes one snapshot per scrape, not one lock per
// series (scrapes are serialised, so its series read what f stored as is).
func (s *Set) OnScrape(f func()) {
	s.mu.Lock()
	s.before = append(s.before, f)
	s.mu.Unlock()
}

// add appends ss to the named family, creating it on first use. A sample
// registered twice, or a name under two kinds, is a programming error: it
// panics at construction rather than corrupt every later scrape.
func (s *Set) add(name, kind, help string, ss ...series) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.byName[name]
	if f == nil {
		f = &family{name: name, kind: kind, help: help}
		s.fams, s.byName[name] = append(s.fams, f), f
	} else if f.kind != kind {
		panic("metrics: " + name + " registered as both " + f.kind + " and " + kind)
	}
	for _, sr := range ss {
		key := name + sr.suffix + sr.labels
		if s.samples[key] {
			panic("metrics: duplicate series " + key)
		}
		s.samples[key] = true
	}
	f.series = append(f.series, ss...)
}

// render formats label pairs as `{name="value",…}`; an odd list panics.
func render(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	parts := make([]string, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		parts = append(parts, pairs[i]+"="+strconv.Quote(pairs[i+1]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteTo writes the Prometheus text exposition (format 0.0.4): per family
// one # HELP and one # TYPE line, then a `name{labels} value` line a series.
func (s *Set) WriteTo(w io.Writer) (int64, error) {
	s.mu.Lock()
	for _, f := range s.before {
		f()
	}
	var b []byte
	for _, f := range s.fams {
		b = append(b, "# HELP "+f.name+" "+f.help+"\n# TYPE "+f.name+" "+f.kind+"\n"...)
		for _, sr := range f.series {
			b = append(b, f.name+sr.suffix+sr.labels+" "...)
			if sr.i != nil {
				b = strconv.AppendInt(b, sr.i(), 10)
			} else if v := sr.f(); math.IsNaN(v) || math.IsInf(v, 0) {
				b = append(b, '0')
			} else {
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			}
			b = append(b, '\n')
		}
	}
	s.mu.Unlock()
	n, err := w.Write(b)
	return int64(n), err
}
