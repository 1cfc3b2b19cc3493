package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"recross/internal/arch"
	"recross/internal/embedding"
	"recross/internal/kernels"
	"recross/internal/serve"
	"recross/internal/trace"
)

func isNodeDown(err error) bool { return errors.Is(err, ErrNodeDown) }

// withWeights fills nil weight slices with ones so encode/decode
// comparisons see the canonical form both wires produce.
func withWeights(s trace.Sample) trace.Sample {
	out := make(trace.Sample, len(s))
	for i, op := range s {
		if op.Weights == nil {
			op.Weights = make([]float32, len(op.Indices))
			for j := range op.Weights {
				op.Weights[j] = 1
			}
		}
		out[i] = op
	}
	return out
}

// TestWireReqRoundTrip: a lookup request survives encode → frame read →
// arena decode bit-identically, including the canonicalized weights.
func TestWireReqRoundTrip(t *testing.T) {
	layer := clusterLayer(t)
	for _, sample := range clusterSamples(t, 10) {
		frame := appendLookupReq(nil, 7, sample, kernels.FP16)
		br := bufio.NewReader(bytes.NewReader(frame))
		var hdr [frameHeaderSize]byte
		typ, corr, payload, _, err := readFrame(br, &hdr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if typ != frameLookupReq || corr != 7 {
			t.Fatalf("frame typ=%d corr=%d", typ, corr)
		}
		var a reqArena
		got, prec, err := decodeLookupReq(payload, &a, layer)
		if err != nil {
			t.Fatal(err)
		}
		if prec != kernels.FP16 {
			t.Fatalf("precision %d, want FP16", prec)
		}
		if !reflect.DeepEqual(got, withWeights(sample)) {
			t.Fatal("decoded sample differs")
		}
	}
}

// TestWireRespRoundTrip: fp32 responses round-trip bit-identically;
// fp16/int8 match a quantize-then-dequantize of the canonical answer
// exactly (same single rounding as the storage codecs).
func TestWireRespRoundTrip(t *testing.T) {
	res := &serve.Result{
		Vectors:       [][]float32{{1.5, -2.25, 0.000123}, {float32(math.Pi), -1e-7, 42}},
		BatchSize:     3,
		ServiceCycles: 12345,
		Replica:       -1,
		Retries:       2,
		Degraded:      true,
		ColdDegraded:  true,
		QueueWait:     1717 * time.Nanosecond,
		Total:         987654 * time.Nanosecond,
	}
	decode := func(t *testing.T, prec kernels.Precision) *serve.Result {
		t.Helper()
		frame := appendLookupResp(nil, 9, res, prec)
		br := bufio.NewReader(bytes.NewReader(frame))
		var hdr [frameHeaderSize]byte
		typ, corr, payload, _, err := readFrame(br, &hdr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if typ != frameLookupResp || corr != 9 {
			t.Fatalf("frame typ=%d corr=%d", typ, corr)
		}
		got, err := decodeLookupResp(payload)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	t.Run("fp32", func(t *testing.T) {
		got := decode(t, kernels.FP32)
		// The JSON path reconstructs wall-clock fields through µs-float64
		// arithmetic; the binary path must land on the same values.
		want := *res
		want.QueueWait = time.Duration(float64(res.QueueWait.Nanoseconds()) / 1e3 * 1e3)
		want.Total = time.Duration(float64(res.Total.Nanoseconds()) / 1e3 * 1e3)
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("fp32 round trip differs:\n got %+v\nwant %+v", got, &want)
		}
	})
	t.Run("fp16", func(t *testing.T) {
		got := decode(t, kernels.FP16)
		for i, vec := range res.Vectors {
			for j, v := range vec {
				if want := kernels.F16ToF32(kernels.F32ToF16(v)); got.Vectors[i][j] != want {
					t.Fatalf("vec[%d][%d] = %v, want %v", i, j, got.Vectors[i][j], want)
				}
			}
		}
	})
	t.Run("int8", func(t *testing.T) {
		got := decode(t, kernels.INT8)
		for i, vec := range res.Vectors {
			q := make([]uint8, len(vec))
			scale, zero := kernels.QuantizeI8(q, vec)
			want := make([]float32, len(vec))
			kernels.DecodeI8(want, q, scale, zero)
			if !reflect.DeepEqual(got.Vectors[i], want) {
				t.Fatalf("vec[%d] = %v, want %v", i, got.Vectors[i], want)
			}
		}
	})
}

// TestWireErrFrame: unavailable codes map back onto ErrNodeDown so the
// router's failover treats a draining binary peer like a dead one.
func TestWireErrFrame(t *testing.T) {
	frame := appendErrFrame(nil, 3, errCodeUnavailable, "draining")
	err := decodeErrFrame(frame[frameHeaderSize:], "n0")
	if err == nil || !isNodeDown(err) {
		t.Fatalf("unavailable err = %v, want ErrNodeDown wrap", err)
	}
	frame = appendErrFrame(nil, 3, errCodeInternal, "boom")
	err = decodeErrFrame(frame[frameHeaderSize:], "n0")
	if err == nil || isNodeDown(err) {
		t.Fatalf("internal err = %v, must not wrap ErrNodeDown", err)
	}
}

// TestReadFrameRejects: bad magic, version skew and oversized frames
// fail fast instead of desynchronizing the stream.
func TestReadFrameRejects(t *testing.T) {
	var hdr [frameHeaderSize]byte
	mk := func(mut func([]byte)) error {
		frame := appendErrFrame(nil, 1, errCodeInternal, "x")
		mut(frame)
		_, _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), &hdr, nil)
		return err
	}
	if err := mk(func(b []byte) { b[0] = 'Z' }); err == nil {
		t.Error("bad magic accepted")
	}
	if err := mk(func(b []byte) { b[2] = 99 }); err == nil {
		t.Error("version skew accepted")
	}
	if err := mk(func(b []byte) { b[8] = 0xff; b[9] = 0xff; b[10] = 0xff; b[11] = 0x7f }); err == nil {
		t.Error("oversized frame accepted")
	}
	if err := mk(func(b []byte) { b[8] = 200 }); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated payload err = %v, want unexpected EOF", err)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes through the frame reader and
// every payload decoder: none may panic or over-allocate, whatever the
// corruption.
func FuzzDecodeFrame(f *testing.F) {
	sample := withWeights(wideSample())
	f.Add(appendLookupReq(nil, 1, sample, kernels.FP32))
	f.Add(appendLookupReq(nil, 2, sample, kernels.INT8))
	res := &serve.Result{Vectors: [][]float32{{1, 2, 3}}, BatchSize: 1, Replica: -1}
	f.Add(appendLookupResp(nil, 3, res, kernels.FP32))
	f.Add(appendLookupResp(nil, 4, res, kernels.FP16))
	f.Add(appendErrFrame(nil, 5, errCodeUnavailable, "gone"))
	f.Add([]byte{'r', 'X', 1, frameLookupReq, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("rX\x01\x01garbage"))

	layer, err := embedding.NewLayer(clusterSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [frameHeaderSize]byte
		br := bufio.NewReader(bytes.NewReader(data))
		_, _, payload, _, err := readFrame(br, &hdr, nil)
		if err != nil {
			payload = data // decode the raw input instead
		}
		var a reqArena
		if s, _, err := decodeLookupReq(payload, &a, layer); err == nil {
			// A decodable request must be fully in-bounds for the layer.
			for _, op := range s {
				if op.Table < 0 || op.Table >= layer.Tables() {
					t.Fatalf("decoded op table %d out of range", op.Table)
				}
			}
		}
		if r, err := decodeLookupResp(payload); err == nil {
			for _, v := range r.Vectors {
				_ = v
			}
		}
		_ = decodeErrFrame(payload, "fuzz")
	})
}

// stubBinBackend answers from the functional layer with a controllable
// delay — the wire tests' equivalent of fakeNode, but behind a real
// BinServer listener.
type stubBinBackend struct {
	layer   *embedding.Layer
	delayNs int64

	mu    sync.Mutex
	delay time.Duration
}

func (b *stubBinBackend) setDelay(d time.Duration) {
	b.mu.Lock()
	b.delay = d
	b.mu.Unlock()
}

func (b *stubBinBackend) Lookup(ctx context.Context, sample trace.Sample) (*serve.Result, error) {
	b.mu.Lock()
	d := b.delay
	b.mu.Unlock()
	if d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	vecs, err := b.layer.ReduceSample(sample)
	if err != nil {
		return nil, err
	}
	return &serve.Result{Vectors: vecs, BatchSize: 1, ServiceCycles: 100, QueueWait: time.Microsecond, Total: 2 * time.Microsecond}, nil
}

func (b *stubBinBackend) Health() serve.HealthReport {
	return serve.HealthReport{Status: "ok", Available: 1, Quorum: 1}
}

// newBinPeer stands up a BinServer over a real TCP listener and returns
// its address plus a shutdown func.
func newBinPeer(t *testing.T, backend BinBackend, layer *embedding.Layer) (string, *BinServer) {
	t.Helper()
	bs, err := NewBinServer(BinServerOptions{Backend: backend, Layer: layer})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go bs.Serve(lis)
	t.Cleanup(func() { bs.Close() })
	return lis.Addr().String(), bs
}

// TestBinNodeLookup: end-to-end over a real TCP conn, bit-identical to
// the functional layer, with service cycles, health and wire metrics
// carried.
func TestBinNodeLookup(t *testing.T) {
	layer := clusterLayer(t)
	addr, _ := newBinPeer(t, &stubBinBackend{layer: layer}, layer)
	n := NewBinNode("bin0", "bin://"+addr, BinNodeOptions{})
	defer n.Close()

	for _, sample := range clusterSamples(t, 20) {
		res, err := n.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, layer, sample, res.Vectors)
		if res.ServiceCycles != 100 {
			t.Errorf("service cycles = %d, want 100", res.ServiceCycles)
		}
	}
	h, err := n.Health(context.Background())
	if err != nil || h.Status != "ok" {
		t.Errorf("health = %+v, %v", h, err)
	}
	m := n.WireMetrics()
	if m.FramesOut.Load() != 21 || m.FramesIn.Load() != 21 {
		t.Errorf("frames out=%d in=%d, want 21 each", m.FramesOut.Load(), m.FramesIn.Load())
	}
	if m.BytesOut.Load() == 0 || m.BytesIn.Load() == 0 || m.Dials.Load() == 0 {
		t.Errorf("wire metrics not accumulated: bytes out=%d in=%d, dials=%d", m.BytesOut.Load(), m.BytesIn.Load(), m.Dials.Load())
	}
}

// TestBinJSONDifferential: the same server called directly (the
// reference), over the binary wire and through its JSON front-end
// answers bit-identically — vectors and flags — across random batches.
func TestBinJSONDifferential(t *testing.T) {
	layer := clusterLayer(t)
	srv, err := serve.New(serve.Options{Systems: []arch.System{fakeArch{}}, Layer: layer})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	addr, _ := newBinPeer(t, srv, layer)
	binNode := NewBinNode("bin", addr, BinNodeOptions{})
	defer binNode.Close()

	for i, sample := range clusterSamples(t, 30) {
		want, err := srv.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatal(err)
		}
		bres, err := binNode.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatal(err)
		}
		jres := postLookup(t, ts.URL, sample)
		if !reflect.DeepEqual(want.Vectors, bres.Vectors) || !reflect.DeepEqual(want.Vectors, jres.Vectors) {
			t.Fatalf("sample %d: wire vectors differ from the in-process answer", i)
		}
		if want.Degraded != bres.Degraded || want.ColdDegraded != bres.ColdDegraded ||
			want.Degraded != jres.Degraded || want.ColdDegraded != jres.ColdDegraded {
			t.Fatalf("sample %d: flags differ: local %+v bin %+v json %+v", i, want, bres, jres)
		}
		checkIdentical(t, layer, sample, bres.Vectors)
	}
}

// TestBinJSONDifferentialDegraded: a router with its only node down
// serves degraded functional-layer answers; both of its front-ends stay
// field-identical to the in-process RouterBackend answer (Replica -1,
// Degraded set, same vectors).
func TestBinJSONDifferentialDegraded(t *testing.T) {
	layer := clusterLayer(t)
	fake := newFakeNode("n0", layer)
	fake.down.Store(true)
	pl := manualPlacement([]string{"n0"}, [][]int{{0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}})
	r, err := NewRouter(Options{Nodes: []Node{fake}, Placement: pl, Layer: layer, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	addr, _ := newBinPeer(t, RouterBackend{R: r}, layer)
	binNode := NewBinNode("bin", addr, BinNodeOptions{})
	defer binNode.Close()

	for _, sample := range clusterSamples(t, 5) {
		want, err := RouterBackend{R: r}.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatal(err)
		}
		bres, err := binNode.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatal(err)
		}
		jres := postLookup(t, ts.URL, sample)
		if !want.Degraded || !bres.Degraded || !jres.Degraded {
			t.Fatalf("expected degraded answers, got local %v bin %v json %v", want.Degraded, bres.Degraded, jres.Degraded)
		}
		if !reflect.DeepEqual(want.Vectors, bres.Vectors) || !reflect.DeepEqual(want.Vectors, jres.Vectors) {
			t.Fatal("degraded vectors differ from the in-process answer")
		}
		if want.Replica != -1 || bres.Replica != -1 || jres.Replica != -1 {
			t.Fatalf("router replica = %d/%d/%d, want -1", want.Replica, bres.Replica, jres.Replica)
		}
	}
}

// TestBinNodeWirePrecision: fp16/int8 wire responses equal a
// quantize-then-dequantize of the canonical answer — the same single
// rounding the storage codecs guarantee.
func TestBinNodeWirePrecision(t *testing.T) {
	layer := clusterLayer(t)
	addr, _ := newBinPeer(t, &stubBinBackend{layer: layer}, layer)
	sample := clusterSamples(t, 1)[0]
	want, err := layer.ReduceSample(sample)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		prec  kernels.Precision
		check func(got, want []float32) bool
	}{
		{kernels.FP16, func(got, want []float32) bool {
			for i := range want {
				if got[i] != kernels.F16ToF32(kernels.F32ToF16(want[i])) {
					return false
				}
			}
			return true
		}},
		{kernels.INT8, func(got, want []float32) bool {
			q := make([]uint8, len(want))
			scale, zero := kernels.QuantizeI8(q, want)
			dec := make([]float32, len(want))
			kernels.DecodeI8(dec, q, scale, zero)
			return reflect.DeepEqual(got, dec)
		}},
	} {
		n := NewBinNode("bin", addr, BinNodeOptions{Precision: tc.prec})
		res, err := n.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !tc.check(res.Vectors[i], want[i]) {
				t.Errorf("precision %v: vector %d does not match single-rounded quantization", tc.prec, i)
			}
		}
		n.Close()
	}
}

// TestBinNodeConnFailureIsolation: killing one pooled conn fails only
// its own in-flight calls. The other conn's correlation IDs survive and
// its lookups complete; the next call on the dead slot redials.
func TestBinNodeConnFailureIsolation(t *testing.T) {
	layer := clusterLayer(t)
	backend := &stubBinBackend{layer: layer}
	addr, _ := newBinPeer(t, backend, layer)
	n := NewBinNode("bin", addr, BinNodeOptions{Conns: 2})
	defer n.Close()

	// Establish both pooled conns (round-robin).
	sample := withWeights(wideSample())
	for i := 0; i < 2; i++ {
		if _, err := n.Lookup(context.Background(), sample); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range n.slots {
		s.mu.Lock()
		alive := s.conn != nil
		s.mu.Unlock()
		if !alive {
			t.Fatalf("slot %d not established", i)
		}
	}

	// Stall the backend, put one in-flight lookup on each conn.
	backend.setDelay(300 * time.Millisecond)
	type out struct {
		res *serve.Result
		err error
	}
	results := make([]chan out, 2)
	for i := range results {
		results[i] = make(chan out, 1)
		go func(ch chan out) {
			res, err := n.Lookup(context.Background(), sample)
			ch <- out{res, err}
		}(results[i])
	}
	time.Sleep(50 * time.Millisecond) // both requests in flight

	// Kill one conn's socket out from under it. pickConn round-robins
	// via next, so of the two in-flight calls one is on each slot.
	n.slots[0].mu.Lock()
	victim := n.slots[0].conn
	n.slots[0].mu.Unlock()
	victim.c.Close()

	var failed, succeeded int
	for i := range results {
		o := <-results[i]
		if o.err != nil {
			if !isNodeDown(o.err) {
				t.Errorf("killed-conn lookup err = %v, want ErrNodeDown wrap", o.err)
			}
			failed++
		} else {
			checkIdentical(t, layer, sample, o.res.Vectors)
			succeeded++
		}
	}
	if failed != 1 || succeeded != 1 {
		t.Fatalf("failed=%d succeeded=%d, want exactly one of each (blast radius leaked)", failed, succeeded)
	}

	// The dead slot redials immediately (backoff only gates failed dials).
	backend.setDelay(0)
	for i := 0; i < 2; i++ {
		if _, err := n.Lookup(context.Background(), sample); err != nil {
			t.Fatalf("post-kill lookup %d: %v", i, err)
		}
	}
	if n.WireMetrics().Redials.Load() == 0 {
		t.Error("redial not counted")
	}
}

// TestBinNodeProberReadmission: a router over a BinNode marks the peer
// down when its listener dies, serves degraded meanwhile, and the
// existing prober re-admits it after a restart on the same address — no
// transport-specific recovery machinery.
func TestBinNodeProberReadmission(t *testing.T) {
	layer := clusterLayer(t)
	backend := &stubBinBackend{layer: layer}
	bs, err := NewBinServer(BinServerOptions{Backend: backend, Layer: layer})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	go bs.Serve(lis)

	n := NewBinNode("bin0", addr, BinNodeOptions{MaxBackoff: 50 * time.Millisecond})
	pl := manualPlacement([]string{"bin0"}, [][]int{{0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}})
	r, err := NewRouter(Options{
		Nodes: []Node{n}, Placement: pl, Layer: layer,
		ProbeInterval: 20 * time.Millisecond, FailThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	sample := withWeights(wideSample())
	if res, err := r.Lookup(context.Background(), sample); err != nil || res.Degraded {
		t.Fatalf("healthy lookup = %+v, %v", res, err)
	}

	// Kill the peer. Lookups must degrade, not error.
	bs.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		res, err := r.Lookup(context.Background(), sample)
		if err != nil {
			t.Fatalf("lookup during outage: %v", err)
		}
		if res.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never noticed the dead binary peer")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Restart on the same address; the prober must re-admit.
	bs2, err := NewBinServer(BinServerOptions{Backend: backend, Layer: layer})
	if err != nil {
		t.Fatal(err)
	}
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	go bs2.Serve(lis2)
	defer bs2.Close()

	deadline = time.Now().Add(5 * time.Second)
	for {
		res, err := r.Lookup(context.Background(), sample)
		if err == nil && !res.Degraded {
			checkIdentical(t, layer, sample, res.Vectors)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never re-admitted the restarted binary peer")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBinServerRejectsBadRequests: out-of-bounds tables/indices and
// unknown frame types come back as typed error frames, and the conn
// stays usable for the next request.
func TestBinServerRejectsBadRequests(t *testing.T) {
	layer := clusterLayer(t)
	addr, _ := newBinPeer(t, &stubBinBackend{layer: layer}, layer)
	n := NewBinNode("bin", addr, BinNodeOptions{Conns: 1})
	defer n.Close()

	bad := trace.Sample{{Table: 999, Kind: trace.Sum, Indices: []int64{1}, Weights: []float32{1}}}
	if _, err := n.Lookup(context.Background(), bad); err == nil {
		t.Fatal("out-of-bounds table accepted")
	} else if isNodeDown(err) {
		t.Errorf("bad request err %v must not look like a down node", err)
	}
	badIdx := trace.Sample{{Table: 0, Kind: trace.Sum, Indices: []int64{1 << 40}, Weights: []float32{1}}}
	if _, err := n.Lookup(context.Background(), badIdx); err == nil {
		t.Fatal("out-of-bounds index accepted")
	}
	// Conn survives: a good lookup still works on the same conn.
	good := withWeights(wideSample())
	res, err := n.Lookup(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, layer, good, res.Vectors)
	if dials := n.WireMetrics().Dials.Load(); dials != 1 {
		t.Errorf("dials = %d, want 1 (error frames must not burn the conn)", dials)
	}
}

// rawWireClient is a hand-written zero-allocation client for the
// node-side allocation test: every buffer is reused, responses are read
// but not decoded, so testing.AllocsPerRun (which counts mallocs
// globally) isolates the server's per-request allocations.
type rawWireClient struct {
	c     net.Conn
	br    *bufio.Reader
	hdr   [frameHeaderSize]byte
	buf   []byte
	frame []byte
	corr  uint32
}

func (rc *rawWireClient) lookup(sample trace.Sample) error {
	rc.corr++
	rc.frame = appendLookupReq(rc.frame[:0], rc.corr, sample, kernels.FP32)
	if _, err := rc.c.Write(rc.frame); err != nil {
		return err
	}
	typ, corr, _, nbuf, err := readFrame(rc.br, &rc.hdr, rc.buf)
	rc.buf = nbuf
	if err != nil {
		return err
	}
	if typ != frameLookupResp || corr != rc.corr {
		return fmt.Errorf("unexpected frame typ=%d corr=%d", typ, corr)
	}
	return nil
}

// zeroAllocBackend returns one pre-built result, so the measured
// allocations are the transport's own.
type zeroAllocBackend struct{ res *serve.Result }

func (b *zeroAllocBackend) Lookup(context.Context, trace.Sample) (*serve.Result, error) {
	return b.res, nil
}
func (b *zeroAllocBackend) Health() serve.HealthReport { return serve.HealthReport{Status: "ok"} }

// newZeroAllocRig wires a raw client to a BinServer over TCP.
func newZeroAllocRig(t testing.TB) (*rawWireClient, trace.Sample) {
	t.Helper()
	layer, err := embedding.NewLayer(clusterSpec())
	if err != nil {
		t.Fatal(err)
	}
	sample := withWeights(wideSample())
	vecs, err := layer.ReduceSample(sample)
	if err != nil {
		t.Fatal(err)
	}
	backend := &zeroAllocBackend{res: &serve.Result{Vectors: vecs, BatchSize: 1, ServiceCycles: 100}}
	bs, err := NewBinServer(BinServerOptions{Backend: backend, Layer: layer, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go bs.Serve(lis)
	t.Cleanup(func() { bs.Close() })
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawWireClient{c: c, br: bufio.NewReaderSize(c, 64<<10)}, sample
}

// TestBinServerZeroAllocSteadyState: the node-side request path —
// frame read, payload copy, arena decode, backend call, response
// encode, write — allocates nothing per round trip once warm.
func TestBinServerZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	rc, sample := newZeroAllocRig(t)
	// Warm every pool and grow every arena.
	for i := 0; i < 50; i++ {
		if err := rc.lookup(sample); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := rc.lookup(sample); err != nil {
			t.Fatal(err)
		}
	})
	// The client side is hand-rolled to zero allocations, so any
	// systematic server-side allocation shows up as avg >= 1. Allow a
	// fractional residue for GC-cleared sync.Pools mid-run.
	if avg >= 1 {
		t.Fatalf("steady-state round trip allocates %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkWireRoundTrip measures one multiplexed round trip over
// loopback TCP through the full server path (report: allocs/op covers
// both the hand-rolled client at zero and the server).
func BenchmarkWireRoundTrip(b *testing.B) {
	rc, sample := newZeroAllocRig(b)
	for i := 0; i < 20; i++ {
		if err := rc.lookup(sample); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rc.lookup(sample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodeLookupResp measures pure response encoding at each
// wire precision.
func BenchmarkWireEncodeLookupResp(b *testing.B) {
	vec := make([]float32, 64)
	for i := range vec {
		vec[i] = float32(i) * 0.37
	}
	res := &serve.Result{Vectors: [][]float32{vec, vec, vec, vec, vec, vec, vec, vec}, BatchSize: 1}
	for _, tc := range []struct {
		name string
		prec kernels.Precision
	}{{"fp32", kernels.FP32}, {"fp16", kernels.FP16}, {"int8", kernels.INT8}} {
		b.Run(tc.name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = appendLookupResp(buf[:0], uint32(i), res, tc.prec)
			}
		})
	}
}
