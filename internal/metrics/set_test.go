package metrics

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func expo(s *Set) string {
	var b strings.Builder
	s.WriteTo(&b)
	return b.String()
}

// TestSetExposition: one # HELP and # TYPE per family however many
// labelled series join it, families in first-registration order, integers
// exact, NaN and ±Inf gauges printed as 0, histograms from one snapshot.
func TestSetExposition(t *testing.T) {
	var a, b atomic.Int64
	a.Store(1 << 60)
	b.Store(7)
	h := NewHist()
	h.Record(4)
	s := NewSet()
	s.Counter("x_total", "An x.", a.Load, "node", "n0", "role", "client")
	s.Gauge("nan", "Not a number.", math.NaN)
	s.Gauge("inf", "Infinite.", func() float64 { return math.Inf(-1) })
	s.Counter("x_total", "An x.", b.Load, "node", `n"1`, "role", "client")
	s.IntGauge("open", "Open things.", b.Load)
	s.Summary("lat_seconds", "Latency.", h, 0.5)
	want := `# HELP x_total An x.
# TYPE x_total counter
x_total{node="n0",role="client"} 1152921504606846976
x_total{node="n\"1",role="client"} 7
# HELP nan Not a number.
# TYPE nan gauge
nan 0
# HELP inf Infinite.
# TYPE inf gauge
inf 0
# HELP open Open things.
# TYPE open gauge
open 7
# HELP lat_seconds Latency.
# TYPE lat_seconds summary
lat_seconds{quantile="0.5"} 2
lat_seconds{quantile="0.95"} 2
lat_seconds{quantile="0.99"} 2
lat_seconds_sum 2
lat_seconds_count 1
`
	if got := expo(s); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestSetRejectsDuplicates: a sample registered twice, a name under two
// kinds, a sample colliding with a summary's _count, or an odd label list
// panics at registration.
func TestSetRejectsDuplicates(t *testing.T) {
	zero := func() int64 { return 0 }
	for name, register := range map[string]func(*Set){
		"same name, no labels":   func(s *Set) { s.Counter("a_total", "", zero); s.Counter("a_total", "", zero) },
		"same name, same labels": func(s *Set) { s.Counter("a_total", "", zero, "k", "v"); s.Counter("a_total", "", zero, "k", "v") },
		"two kinds":              func(s *Set) { s.Counter("a", "", zero, "k", "v"); s.IntGauge("a", "", zero, "k", "w") },
		"summary count":          func(s *Set) { s.Summary("a", "", NewHist(), 1); s.Counter("a_count", "", zero) },
		"summary sum":            func(s *Set) { s.Summary("a", "", NewHist(), 1); s.Counter("a_sum", "", zero) },
		"odd labels":             func(s *Set) { s.Counter("a_total", "", zero, "k") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			register(NewSet())
		}()
	}
	s := NewSet()
	s.Counter("a_total", "", zero, "k", "v")
	s.Counter("a_total", "", zero, "k", "w") // distinct label values are distinct series
}

// TestSetConcurrent: scrapes, counter Adds and late registrations race
// freely (run under -race); every scrape sees a value some Add produced.
func TestSetConcurrent(t *testing.T) {
	var n atomic.Int64
	s := NewSet()
	s.Counter("n_total", "Adds.", n.Load)
	var snap int64
	s.OnScrape(func() { snap = n.Load() })
	s.IntGauge("snap", "Per-scrape snapshot.", func() int64 { return snap })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n.Add(1)
			}
		}()
		go func(g int) {
			defer wg.Done()
			s.IntGauge("late", "Registered while scraping.", n.Load, "g", string(rune('a'+g)))
			for i := 0; i < 200; i++ {
				if out := expo(s); !strings.Contains(out, "\nn_total ") || !strings.Contains(out, "\nsnap ") {
					t.Errorf("scrape lost a series:\n%s", out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if out := expo(s); !strings.Contains(out, "n_total 8000\n") || !strings.Contains(out, "snap 8000\n") {
		t.Errorf("final scrape:\n%s", out)
	}
}
