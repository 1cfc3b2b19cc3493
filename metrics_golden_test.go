package recross

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"recross/internal/cluster"
)

// scrapeKeys GETs /metrics through h and returns the sorted sample keys
// (`name{label="…"}`, values stripped). Along the way it holds the text to
// the exposition format: every sample line parses as `name[{labels}]
// float`, every family has exactly one `# TYPE` line of kind
// counter|gauge|summary, and every sample belongs to a typed family.
func scrapeKeys(t *testing.T, h http.Handler) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-z_]+="[^"]*"(,[a-z_]+="[^"]*")*\})? (\S+)$`)
	kinds := map[string]string{}
	var keys []string
	for _, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			switch {
			case f[1] == "HELP":
			case f[1] == "TYPE" && len(f) == 4 && (f[3] == "counter" || f[3] == "gauge" || f[3] == "summary"):
				if _, dup := kinds[f[2]]; dup {
					t.Errorf("family %s has more than one # TYPE line", f[2])
				}
				kinds[f[2]] = f[3]
			default:
				t.Errorf("malformed comment line %q", line)
			}
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %q is not `name[{labels}] value`", line)
			continue
		}
		if _, err := strconv.ParseFloat(m[4], 64); err != nil {
			t.Errorf("line %q: value: %v", line, err)
		}
		if _, ok := kinds[m[1]]; !ok && kinds[strings.TrimSuffix(m[1], "_count")] != "summary" {
			t.Errorf("sample %q precedes or lacks its family's # TYPE line", line)
		}
		keys = append(keys, m[1]+m[2])
	}
	sort.Strings(keys)
	return keys
}

// TestMetricsGolden holds /metrics to testdata/metrics.golden, the sample
// keys recorded at the commit before the exposition moved to one
// metrics.Set: no series or label set may be lost, renamed or added by
// accident. Two set-ups cover every registering component — a stack with
// every optional stage plus a binary listener, and a router over two
// binary-wire nodes.
func TestMetricsGolden(t *testing.T) {
	cfg, opts := stackCase(t, true, true, INT8)
	opts.RowCacheBytes = 1 << 20
	st, err := NewStack(ReCross, cfg, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bs, err := NewBinServer(st.Server)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	bs.RegisterMetrics(st.MetricSet())
	got := "== stack\n" + strings.Join(scrapeKeys(t, st.Handler()), "\n") + "\n"

	spec := coldSpec()
	ids := []string{"n0", "n1"}
	nodes := make([]ClusterNode, len(ids))
	for i, id := range ids {
		srv, err := NewServer(ReCross, Config{Spec: spec, ProfileSamples: 400, Batch: 16}, 1, ServeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		bn := cluster.NewBinNode(id, listenBin(t, srv), cluster.BinNodeOptions{Conns: 1})
		defer bn.Close()
		nodes[i] = bn
	}
	layer, err := NewLayer(spec)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := cluster.RingPlacement(len(spec.Tables), ids, cluster.PlacementOptions{})
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(cluster.Options{Nodes: nodes, Placement: pl, Layer: layer, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	got += "== router\n" + strings.Join(scrapeKeys(t, router.Handler()), "\n") + "\n"

	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics sample keys differ from testdata/metrics.golden\n--- got\n%s--- want\n%s", got, want)
	}
}
