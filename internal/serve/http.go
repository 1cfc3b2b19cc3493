package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"recross/internal/embedding"
	"recross/internal/metrics"
	"recross/internal/trace"
)

// maxLookupBody bounds a POST /v1/lookup body (1 MiB is thousands of
// lookup indices — far beyond any real sample).
const maxLookupBody = 1 << 20

// OpRequest is the wire form of one embedding operation.
type OpRequest struct {
	// Table is the embedding table index.
	Table int `json:"table"`
	// Kind is "weighted-sum" (default), "sum" or "max".
	Kind string `json:"kind,omitempty"`
	// Indices are the rows to gather.
	Indices []int64 `json:"indices"`
	// Weights are the pooling weights (defaults to all-ones when
	// omitted; present but ignored for "sum" and "max").
	Weights []float32 `json:"weights,omitempty"`
}

// LookupRequest is the POST /v1/lookup body: one inference sample.
type LookupRequest struct {
	Ops []OpRequest `json:"ops"`
}

// LookupResponse is the POST /v1/lookup answer.
type LookupResponse struct {
	// Vectors is one pooled embedding vector per op.
	Vectors [][]float32 `json:"vectors"`
	// BatchSize is the coalesced batch the sample rode in.
	BatchSize int `json:"batch_size"`
	// ServiceCycles is the simulated DRAM-cycle latency of that batch.
	ServiceCycles int64 `json:"service_cycles"`
	// Replica is the pool worker that served it (-1 when degraded).
	Replica int `json:"replica"`
	// Retries is how many replica-failure resubmissions the request
	// survived (omitted when zero).
	Retries int `json:"retries,omitempty"`
	// Degraded marks an answer from the functional layer (correct
	// vectors, no timing model) because no healthy replica could serve
	// it (omitted when false).
	Degraded bool `json:"degraded,omitempty"`
	// ColdDegraded marks an answer completed while the storage tier was
	// degraded — cold rows through the slow direct-materialization
	// fallback (omitted when false).
	ColdDegraded bool `json:"cold_degraded,omitempty"`
	// QueueMicros and TotalMicros are wall-clock microseconds.
	QueueMicros float64 `json:"queue_us"`
	TotalMicros float64 `json:"total_us"`
}

// errorResponse is the JSON error body.
type errorResponse struct {
	Error string `json:"error"`
}

// parseKind maps the wire kind to a trace.ReduceKind.
func parseKind(s string) (trace.ReduceKind, error) {
	switch s {
	case "", "weighted-sum":
		return trace.WeightedSum, nil
	case "sum":
		return trace.Sum, nil
	case "max":
		return trace.Max, nil
	default:
		return 0, fmt.Errorf("unknown reduce kind %q", s)
	}
}

// ParseSample converts a wire request into a trace.Sample, validating
// shape against an embedding layer. It is the single decoder for the
// /v1/lookup wire format, shared by this server's HTTP front-end and
// the cluster router's.
func ParseSample(layer *embedding.Layer, lr LookupRequest) (trace.Sample, error) {
	if len(lr.Ops) == 0 {
		return nil, errors.New("no ops in request")
	}
	sample := make(trace.Sample, 0, len(lr.Ops))
	for i, o := range lr.Ops {
		if o.Table < 0 || o.Table >= layer.Tables() {
			return nil, fmt.Errorf("op %d: table %d out of [0,%d)", i, o.Table, layer.Tables())
		}
		if len(o.Indices) == 0 {
			return nil, fmt.Errorf("op %d: no indices", i)
		}
		rows := layer.Table(o.Table).Rows()
		for _, idx := range o.Indices {
			if idx < 0 || idx >= rows {
				return nil, fmt.Errorf("op %d: index %d out of [0,%d)", i, idx, rows)
			}
		}
		kind, err := parseKind(o.Kind)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		// trace.Op requires len(Weights) == len(Indices) for every kind
		// (Sum/Max ignore the values but Systems index them), so absent
		// weights are filled with 1s regardless of kind.
		w := o.Weights
		if w == nil {
			w = make([]float32, len(o.Indices))
			for k := range w {
				w[k] = 1
			}
		} else if len(w) != len(o.Indices) {
			return nil, fmt.Errorf("op %d: %d weights for %d indices", i, len(w), len(o.Indices))
		}
		sample = append(sample, trace.Op{Table: o.Table, Kind: kind, Indices: o.Indices, Weights: w})
	}
	return sample, nil
}

// WireRequest encodes a sample as the /v1/lookup wire form —
// ParseSample's inverse, used by HTTP clients. Weighted-sum weights ride
// verbatim so a round trip through JSON float32 encoding stays
// bit-identical; sum and max ops drop theirs (the reduction ignores
// weights, ParseSample re-defaults the omitted field) so neither wire
// ships ignored bytes.
func WireRequest(sample trace.Sample) LookupRequest {
	lr := LookupRequest{Ops: make([]OpRequest, len(sample))}
	for i, op := range sample {
		w := op.Weights
		if op.Kind != trace.WeightedSum {
			w = nil
		}
		lr.Ops[i] = OpRequest{
			Table:   op.Table,
			Kind:    op.Kind.String(),
			Indices: op.Indices,
			Weights: w,
		}
	}
	return lr
}

// Handler returns the server's HTTP front-end (see NewHandler).
func (s *Server) Handler() http.Handler {
	return NewHandler(s.opts.Layer, s.Lookup, s.set, func() (any, bool) {
		h := s.Health()
		return h, h.Status == "draining"
	})
}

// NewHandler returns the one HTTP front-end, shared by a single node's
// Server and the cluster router so clients need not care which they talk
// to:
//
//	POST /v1/lookup  — serve one sample through lookup (JSON in/out),
//	                   validated against layer's shape
//	GET  /metrics    — set's Prometheus text exposition
//	GET  /healthz    — health's report as JSON; 200 while serving
//	                   (including degraded modes, where answers are still
//	                   functionally correct), 503 once it reports draining
func NewHandler(layer *embedding.Layer, lookup func(context.Context, trace.Sample) (*Result, error),
	set *metrics.Set, health func() (report any, draining bool)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lookup", func(w http.ResponseWriter, r *http.Request) {
		var lr LookupRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLookupBody))
		if err := dec.Decode(&lr); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		sample, err := ParseSample(layer, lr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		res, err := lookup(r.Context(), sample)
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		WriteJSON(w, 0, LookupResponse{
			Vectors:       res.Vectors,
			BatchSize:     res.BatchSize,
			ServiceCycles: int64(res.ServiceCycles),
			Replica:       res.Replica,
			Retries:       res.Retries,
			Degraded:      res.Degraded,
			ColdDegraded:  res.ColdDegraded,
			QueueMicros:   float64(res.QueueWait.Nanoseconds()) / 1e3,
			TotalMicros:   float64(res.Total.Nanoseconds()) / 1e3,
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = set.WriteTo(w) // a failed write is the scraper hanging up
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		report, draining := health()
		w.Header().Set("Content-Type", "application/json")
		if draining {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(report)
	})
	return mux
}

// jsonBufPool pools the lookup handler's encode buffers. Response
// bodies are dominated by vector text (tens of KiB per lookup), so
// encoding straight into the ResponseWriter re-grows that buffer in
// net/http on every request; pooling it makes the handler's encode
// path allocation-flat in steady state. Buffers that ballooned past
// maxPooledJSONBuf are dropped rather than pinned.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledJSONBuf = 1 << 20

// WriteJSON encodes v into a pooled buffer and writes it as a JSON
// response with an explicit Content-Length (no chunked framing — the
// body length is known, and keep-alive clients reuse the conn without
// trailer handling). code 0 means 200.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Encode of our own response types cannot fail; keep the
		// fallback honest anyway.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		jsonBufPool.Put(buf)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if code != 0 {
		w.WriteHeader(code)
	}
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledJSONBuf {
		jsonBufPool.Put(buf)
	}
}

// statusOf maps serving errors to HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

func writeErr(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, errorResponse{Error: err.Error()})
}
