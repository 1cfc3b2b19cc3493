package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"recross"
	"recross/internal/serve"
)

// The traced run measures every layer from outside: the benchmark wraps
// the public seams the program already has (a replica's System, a cluster
// Node, the cold tier's Device) and records a span around each call.
// Spans stay in memory and are written out once the workload has ended.

// span is one timed call. Times are nanoseconds since the recorder's
// epoch. attrs are named per span kind by attrKeys.
type span struct {
	id, parent uint64
	name       string
	start, end int64
	attrs      [5]int64
}

var attrKeys = map[string][5]string{
	"lookup":         {"index", "failed", "queue_wait_ns", "total_ns"},
	"node.lookup":    {"node", "batch", "cycles", "queue_wait_ns", "total_ns"},
	"system.run":     {"replica", "batch", "cycles"},
	"cold.read_page": {"page"},
}

// recorder collects spans while on is set; wrappers stay installed for the
// whole traced run and cost one atomic load when it is off.
type recorder struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

func (r *recorder) newID() uint64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	if s.id == 0 {
		s.id = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed records fn as a standalone span (the replays use it) and returns
// its duration.
func (r *recorder) timed(name string, fn func()) time.Duration {
	start := r.now()
	fn()
	end := r.now()
	if r.on.Load() {
		r.add(span{name: name, start: start, end: end})
	}
	return time.Duration(end - start)
}

// named returns the recorded spans called name, ordered by end time.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].end < out[j].end })
	return out
}

type spanJSON struct {
	ID     uint64           `json:"id"`
	Parent uint64           `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// write stores the spans as one JSON document: a header, then "spans", an
// array with one object per span ordered by start time.
func (r *recorder) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	head, _ := json.Marshal(map[string]any{"workload": workload, "seed": seed, "epoch_unix_ns": r.epoch.UnixNano()})
	w.Write(head[:len(head)-1])
	w.WriteString(",\"spans\":[\n")
	for i, s := range spans {
		sj := spanJSON{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: s.end}
		if keys, ok := attrKeys[s.name]; ok {
			sj.Attrs = map[string]int64{}
			for k, key := range keys {
				if key != "" {
					sj.Attrs[key] = s.attrs[k]
				}
			}
		}
		line, _ := json.Marshal(sj)
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(line)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// spanKey carries the enclosing lookup span's id through a context, so a
// node.lookup span made deep inside the router names its parent.
type spanKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// tracedSystem wraps one replica's timing model; install it with
// Server.StageUpdate. replica is unique across the nodes of a cluster.
type tracedSystem struct {
	inner   recross.System
	rec     *recorder
	replica int64
}

func (t *tracedSystem) Name() string { return t.inner.Name() }

func (t *tracedSystem) Run(b recross.Batch) (*recross.RunStats, error) {
	if !t.rec.on.Load() {
		return t.inner.Run(b)
	}
	start := t.rec.now()
	st, err := t.inner.Run(b)
	s := span{name: "system.run", start: start, end: t.rec.now(), attrs: [5]int64{t.replica, int64(len(b))}}
	if st != nil {
		s.attrs[2] = int64(st.Cycles)
	}
	t.rec.add(s)
	return st, err
}

// traceReplicas stages the System wrapper on every replica of srv; each
// worker swaps it in before its next batch. base offsets the replica ids.
func traceReplicas(srv *recross.Server, rec *recorder, base int) {
	srv.StageUpdate(func(id int, sys recross.System) (recross.System, error) {
		return &tracedSystem{inner: sys, rec: rec, replica: int64(base + id)}, nil
	})
}

// tracedNode wraps a cluster node. Its spans carry the node-side serve
// timings the answer brought back over the wire.
type tracedNode struct {
	recross.ClusterNode
	rec *recorder
	idx int64
}

func (t *tracedNode) Lookup(ctx context.Context, sample recross.Sample) (*serve.Result, error) {
	if !t.rec.on.Load() {
		return t.ClusterNode.Lookup(ctx, sample)
	}
	start := t.rec.now()
	res, err := t.ClusterNode.Lookup(ctx, sample)
	s := span{parent: spanOf(ctx), name: "node.lookup", start: start, end: t.rec.now(), attrs: [5]int64{t.idx}}
	if res != nil {
		s.attrs = [5]int64{t.idx, int64(res.BatchSize), int64(res.ServiceCycles), res.QueueWait.Nanoseconds(), res.Total.Nanoseconds()}
	}
	t.rec.add(s)
	return res, err
}

// tracedDevice wraps the cold tier's page I/O.
type tracedDevice struct {
	recross.ColdDevice
	rec *recorder
}

func (t *tracedDevice) ReadPage(page int64, dst []byte) error {
	if !t.rec.on.Load() {
		return t.ColdDevice.ReadPage(page, dst)
	}
	start := t.rec.now()
	err := t.ColdDevice.ReadPage(page, dst)
	t.rec.add(span{name: "cold.read_page", start: start, end: t.rec.now(), attrs: [5]int64{page}})
	return err
}
