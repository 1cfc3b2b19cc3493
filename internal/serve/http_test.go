package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"recross/internal/arch"
	"recross/internal/baseline"
	"recross/internal/trace"
)

func newHTTPServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, Options{
		Systems:  []arch.System{&fakeSys{}},
		MaxBatch: 4,
		MaxDelay: 200 * time.Microsecond,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postLookup(t *testing.T, ts *httptest.Server, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/lookup", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPLookup(t *testing.T) {
	s, ts := newHTTPServer(t)
	defer s.Close()

	req := LookupRequest{Ops: []OpRequest{{
		Table:   0,
		Indices: []int64{1, 2, 3},
		Weights: []float32{0.5, 0.25, 1.5},
	}}}
	resp, body := postLookup(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var lr LookupResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	want, err := s.opts.Layer.Reduce(trace.Op{
		Table: 0, Kind: trace.WeightedSum,
		Indices: []int64{1, 2, 3}, Weights: []float32{0.5, 0.25, 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Vectors) != 1 || !reflect.DeepEqual(lr.Vectors[0], want) {
		t.Fatalf("vectors = %v, want %v", lr.Vectors, want)
	}
	if lr.BatchSize < 1 || lr.ServiceCycles <= 0 {
		t.Errorf("implausible response: %+v", lr)
	}
}

func TestHTTPLookupDefaultsAndKinds(t *testing.T) {
	s, ts := newHTTPServer(t)
	defer s.Close()

	// Omitted weights default to all-ones; "sum" and "max" need none.
	for _, kind := range []string{"", "sum", "max"} {
		resp, body := postLookup(t, ts, LookupRequest{Ops: []OpRequest{{
			Table: 1, Kind: kind, Indices: []int64{5, 7},
		}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("kind %q: status %d: %s", kind, resp.StatusCode, body)
		}
	}
}

// TestHTTPRealSystemKinds runs weightless sum/max ops through a REAL
// system, not fakeSys: real systems dedup ops (arch.Pass.Gather), which
// indexes Weights for every index and panics the replica goroutine —
// taking the whole server down — if the parser admits a sample with
// missing weights. Regression test for exactly that crash.
func TestHTTPRealSystemKinds(t *testing.T) {
	spec := testSpec()
	sys, err := baseline.NewCPU(baseline.Config{Spec: spec, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{
		Systems:  []arch.System{sys},
		MaxBatch: 4,
		MaxDelay: 200 * time.Microsecond,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, kind := range []string{"", "sum", "max"} {
		resp, body := postLookup(t, ts, LookupRequest{Ops: []OpRequest{{
			Table: 0, Kind: kind, Indices: []int64{1, 2, 2, 3},
		}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("kind %q: status %d: %s", kind, resp.StatusCode, body)
		}
		var lr LookupResponse
		if err := json.Unmarshal(body, &lr); err != nil {
			t.Fatal(err)
		}
		k, _ := parseKind(kind)
		want, err := s.opts.Layer.Reduce(trace.Op{
			Table: 0, Kind: k,
			Indices: []int64{1, 2, 2, 3}, Weights: []float32{1, 1, 1, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(lr.Vectors) != 1 || !reflect.DeepEqual(lr.Vectors[0], want) {
			t.Fatalf("kind %q: vectors = %v, want %v", kind, lr.Vectors, want)
		}
	}
}

func TestHTTPLookupValidation(t *testing.T) {
	s, ts := newHTTPServer(t)
	defer s.Close()

	for name, body := range map[string]LookupRequest{
		"no ops":          {},
		"bad table":       {Ops: []OpRequest{{Table: 99, Indices: []int64{1}}}},
		"no indices":      {Ops: []OpRequest{{Table: 0}}},
		"bad index":       {Ops: []OpRequest{{Table: 0, Indices: []int64{1 << 40}}}},
		"bad kind":        {Ops: []OpRequest{{Table: 0, Kind: "median", Indices: []int64{1}}}},
		"weight mismatch": {Ops: []OpRequest{{Table: 0, Indices: []int64{1, 2}, Weights: []float32{1}}}},
	} {
		resp, _ := postLookup(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestHTTPMetricsAndHealth(t *testing.T) {
	s, ts := newHTTPServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	postLookup(t, ts, LookupRequest{Ops: []OpRequest{{Table: 0, Indices: []int64{1}}}})
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(buf.Bytes(), []byte("recross_requests_admitted_total 1")) {
		t.Errorf("metrics missing admitted counter:\n%s", buf.String())
	}

	// Draining flips healthz to 503 and lookups to ErrClosed.
	s.Close()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
	resp, _ = postLookup(t, ts, LookupRequest{Ops: []OpRequest{{Table: 0, Indices: []int64{1}}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("closed lookup = %d, want 503", resp.StatusCode)
	}
}
