package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"recross/internal/arch"
	"recross/internal/baseline"
	"recross/internal/embedding"
	"recross/internal/trace"
)

// FuzzLookupJSON posts arbitrary bytes to /v1/lookup on a real handler
// over a real system (real systems dedup ops and index Weights for every
// index, so a malformed sample that slipped through would panic a replica
// rather than return an error). Whatever the body, the front-end neither
// panics — in the handler or, absorbed by its worker, in a replica —
// nor answers 5xx; and any body the parser accepts reaches Lookup as a
// sample satisfying the trace.Op shape contract: non-empty indices inside
// the table, one weight per index, table in range.
func FuzzLookupJSON(f *testing.F) {
	f.Add([]byte(`{"ops":[{"table":0,"indices":[1,2,3],"weights":[0.5,0.25,1.5]},{"table":2,"kind":"max","indices":[10,20]}]}`))
	f.Add([]byte(`{"ops":[{"table":1,"kind":"max","indices":[7,7,8]}]}`))
	f.Add([]byte(`{"ops":[]}`))
	f.Add([]byte(`{"ops":[{"table":0,"indices":[` + strings.Repeat("1,", maxLookupBody/2) + `1]}]}`))
	f.Add([]byte(`{"ops":[{"table":0,"indices":[1],"weights":[NaN]}]}`))
	f.Add([]byte(`{"ops":[{"table":0,"indices":[1,2],"weights":[1e39,-1e39]}]}`))
	f.Add([]byte(`{"ops":[{"table":3,"indices":[1]},{"table":-1,"indices":[2000]}]}`))
	f.Add([]byte(`{bad`))

	sys, err := baseline.NewCPU(baseline.Config{Spec: testSpec(), Ranks: 2})
	if err != nil {
		f.Fatal(err)
	}
	layer, err := embedding.NewLayer(testSpec())
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Options{Systems: []arch.System{sys}, Layer: layer, MaxBatch: 4, MaxDelay: 50 * time.Microsecond})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })

	var violation string // set by the lookup seam, read after ServeHTTP returns
	h := NewHandler(layer, func(ctx context.Context, sample trace.Sample) (*Result, error) {
		for i, op := range sample {
			switch {
			case op.Table < 0 || op.Table >= layer.Tables():
				violation = "table out of range"
			case len(op.Indices) == 0:
				violation = "no indices"
			case len(op.Weights) != len(op.Indices):
				violation = "weights/indices length mismatch"
			default:
				for _, idx := range op.Indices {
					if idx < 0 || idx >= layer.Table(op.Table).Rows() {
						violation = "index outside the table"
					}
				}
			}
			if violation != "" {
				violation = fmt.Sprintf("op %d: %s", i, violation)
				break
			}
		}
		return s.Lookup(ctx, sample)
	}, s.MetricSet(), func() (any, bool) { return s.Health(), false })

	f.Fuzz(func(t *testing.T, body []byte) {
		violation = ""
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lookup", bytes.NewReader(body)))
		if violation != "" {
			t.Fatalf("parser admitted a sample breaking the trace.Op contract (%s): %q", violation, body)
		}
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code == http.StatusOK {
			var lr LookupResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil || len(lr.Vectors) == 0 {
				t.Fatalf("200 with an unusable answer (%v): %s", err, rec.Body)
			}
		}
		if snap := s.Metrics().Snapshot(); snap.FaultPanics != 0 || snap.Restarts != 0 {
			t.Fatalf("a replica panicked (%d) or restarted (%d) on body %q", snap.FaultPanics, snap.Restarts, body)
		}
	})
}
