package serve

import (
	"strings"
	"testing"

	"recross/internal/metrics"
)

// TestExpoFormat: NewMetrics binds its series to the live counters and
// histograms (the series' names are held by the root metrics golden).
func TestExpoFormat(t *testing.T) {
	set := metrics.NewSet()
	m := NewMetrics(set)
	m.Admitted.Add(3)
	m.Batches.Add(2)
	m.BatchSamples.Add(5)
	m.ServiceCycles.Record(8)
	var b strings.Builder
	set.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		"recross_requests_admitted_total 3\n",
		"recross_batch_mean_samples 2.5\n",
		"recross_service_cycles{quantile=\"0.99\"} 8\n",
		"recross_service_cycles_sum 8\n",
		"recross_service_cycles_count 1\n",
		"recross_e2e_seconds{quantile=\"0.5\"} 0\n",
		"# TYPE recross_e2e_seconds summary\n",
		"# TYPE recross_batches_total counter\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]OverloadPolicy{"block": Block, "shed": Shed} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParsePolicy("drop"); err == nil {
		t.Error("bogus policy parsed")
	}
}
