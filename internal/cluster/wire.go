package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"recross/internal/embedding"
	"recross/internal/metrics"
	"recross/internal/serve"
	"recross/internal/sim"
	"recross/internal/trace"
)

// The binary wire protocol. The cluster's hot path moves embedding
// vectors, and JSON moves them as decimal text — ~4-5x the bytes and
// an encode/decode CPU tax on every scatter-gather sub-request. This
// codec is the data-movement fix one level above the paper's: a
// length-prefixed frame whose sections are varint/fixed-width fields
// and whose result vectors are raw little-endian float32 bits, so every
// answer crosses the wire as the serving stack's canonical bits.
//
// Frame layout (12-byte header, all multi-byte fields little-endian):
//
//	[0:2]  magic "rX"
//	[2]    version (2)
//	[3]    frame type
//	[4:8]  correlation ID (echoed verbatim in the response frame)
//	[8:12] payload length (bounded by maxFramePayload)
//
// Lookup request payload:
//
//	uvarint op count, then per op:
//	  uvarint table · 1B reduce kind · uvarint index count ·
//	  count uvarint indices · count×4B raw float32 weights
//
// The kind byte's high bit (opFlagOnesWeights) marks an op whose
// weight block is omitted: the decoder materializes exact ones. The
// encoder sets it for nil weights (mirroring how the JSON wire omits
// the field and serve.ParseSample defaults it) and for sum/max ops,
// whose reductions ignore weights entirely — shipping ignored bytes
// would tax the dominant unweighted-pooling case 4 bytes per gather.
//
// Lookup response payload:
//
//	[0]     flags (bit0 degraded, bit1 cold-degraded)
//	uvarint batch size · uvarint service cycles · zigzag replica ·
//	uvarint retries · 8B float64-bits queue µs · 8B float64-bits
//	total µs · uvarint vector count, then per vector:
//	  uvarint element count · count×4B raw float32 bits
//
// Error payload: 1B code + uvarint-length message. Health responses
// carry the serve.HealthReport as JSON — the probe path is not hot.
const (
	wireMagic0 = 'r'
	wireMagic1 = 'X'
	// wireVersion is bumped on any incompatible layout change; peers
	// reject mismatches at the first frame.
	wireVersion = 2

	frameHeaderSize = 12
	// maxFramePayload bounds one frame (16 MiB: a 4k-op sample of 4k-dim
	// fp32 vectors fits with room to spare).
	maxFramePayload = 1 << 24
)

// Frame types.
const (
	frameLookupReq  = 1
	frameLookupResp = 2
	frameHealthReq  = 3
	frameHealthResp = 4
	frameErr        = 5
)

// Error frame codes.
const (
	errCodeBadRequest  = 1 // malformed or out-of-bounds request
	errCodeUnavailable = 2 // node not serving (draining, closed)
	errCodeInternal    = 3 // backend failure
)

// opFlagOnesWeights on the request kind byte marks an op with no
// explicit weight block: every weight is exactly 1.0.
const opFlagOnesWeights = 0x80

// Codec errors.
var (
	errBadMagic   = errors.New("cluster: wire: bad magic")
	errBadVersion = errors.New("cluster: wire: version mismatch")
	errFrameSize  = errors.New("cluster: wire: frame exceeds size bound")
	errTruncated  = errors.New("cluster: wire: truncated payload")
)

// wireBuf is a pooled frame buffer. Both transport ends encode into
// and copy payloads through these so the steady-state round trip
// allocates nothing: Get/Put recycle capacity grown on first use.
type wireBuf struct {
	b []byte
}

var wireBufPool = sync.Pool{New: func() any { return &wireBuf{} }}

func getWireBuf() *wireBuf  { return wireBufPool.Get().(*wireBuf) }
func putWireBuf(w *wireBuf) { w.b = w.b[:0]; wireBufPool.Put(w) }

// beginFrame appends a frame header with a zero payload length;
// endFrame patches the length once the payload is in place.
func beginFrame(dst []byte, typ byte, corr uint32) []byte {
	dst = append(dst, wireMagic0, wireMagic1, wireVersion, typ)
	dst = binary.LittleEndian.AppendUint32(dst, corr)
	return binary.LittleEndian.AppendUint32(dst, 0)
}

func endFrame(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start+8:start+12], uint32(len(b)-start-frameHeaderSize))
	return b
}

// appendLookupReq encodes one sample as a lookup-request frame.
func appendLookupReq(dst []byte, corr uint32, sample trace.Sample) []byte {
	start := len(dst)
	dst = beginFrame(dst, frameLookupReq, corr)
	dst = binary.AppendUvarint(dst, uint64(len(sample)))
	for _, op := range sample {
		dst = binary.AppendUvarint(dst, uint64(op.Table))
		// Nil weights are implicit exact ones (serve.ParseSample's
		// defaulting), and sum/max reductions ignore weights entirely:
		// either way the weight block stays off the wire, flagged on the
		// kind byte so the decoder materializes ones.
		elideWeights := op.Weights == nil || op.Kind != trace.WeightedSum
		if elideWeights {
			dst = append(dst, byte(op.Kind)|opFlagOnesWeights)
		} else {
			dst = append(dst, byte(op.Kind))
		}
		dst = binary.AppendUvarint(dst, uint64(len(op.Indices)))
		for _, ix := range op.Indices {
			dst = binary.AppendUvarint(dst, uint64(ix))
		}
		if !elideWeights {
			for _, w := range op.Weights {
				dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(w))
			}
		}
	}
	return endFrame(dst, start)
}

// reqArena is the server-side decode arena: one per pooled request so
// a conn's steady state re-uses every slice. Ops alias the shared
// index/weight backing arrays, which are re-sliced after the single
// decode pass (appending as we go could move the backing array out
// from under earlier ops).
type reqArena struct {
	ops  []trace.Op
	offs []int // per-op offset into idx/w
	cnts []int // per-op index count
	idx  []int64
	w    []float32
}

// decodeLookupReq decodes a lookup-request payload into the arena and
// returns the sample (aliasing arena storage — valid until the next
// decode). When layer is non-nil, tables, indices and kinds are
// bounds-checked against it, mirroring serve.ParseSample's validation.
func decodeLookupReq(payload []byte, a *reqArena, layer *embedding.Layer) (trace.Sample, error) {
	p := payload
	nOps, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, errTruncated
	}
	p = p[n:]
	if nOps == 0 {
		return nil, errors.New("cluster: wire: no ops in request")
	}
	// Each op costs >= 3 bytes (table, kind, count); a corrupt count
	// cannot force a huge allocation.
	if nOps > uint64(len(p))/3+1 {
		return nil, errTruncated
	}
	a.ops = a.ops[:0]
	a.offs = a.offs[:0]
	a.cnts = a.cnts[:0]
	a.idx = a.idx[:0]
	a.w = a.w[:0]
	for i := uint64(0); i < nOps; i++ {
		table, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, errTruncated
		}
		p = p[n:]
		if len(p) < 1 {
			return nil, errTruncated
		}
		onesWeights := p[0]&opFlagOnesWeights != 0
		kind := trace.ReduceKind(p[0] &^ opFlagOnesWeights)
		p = p[1:]
		if kind > trace.Max {
			return nil, fmt.Errorf("cluster: wire: op %d: unknown reduce kind %d", i, kind)
		}
		cnt, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, errTruncated
		}
		p = p[n:]
		if cnt == 0 {
			return nil, fmt.Errorf("cluster: wire: op %d: no indices", i)
		}
		// Indices are >= 1 byte each and weights exactly 4: bound before
		// allocating arena room.
		if cnt > uint64(len(p)) {
			return nil, errTruncated
		}
		var rows int64 = math.MaxInt64
		if layer != nil {
			if int(table) >= layer.Tables() {
				return nil, fmt.Errorf("cluster: wire: op %d: table %d out of [0,%d)", i, table, layer.Tables())
			}
			rows = layer.Table(int(table)).Rows()
		}
		off := len(a.idx)
		for j := uint64(0); j < cnt; j++ {
			ix, n := binary.Uvarint(p)
			if n <= 0 {
				return nil, errTruncated
			}
			p = p[n:]
			if int64(ix) < 0 || int64(ix) >= rows {
				return nil, fmt.Errorf("cluster: wire: op %d: index %d out of [0,%d)", i, ix, rows)
			}
			a.idx = append(a.idx, int64(ix))
		}
		if onesWeights {
			for j := uint64(0); j < cnt; j++ {
				a.w = append(a.w, 1)
			}
		} else {
			if uint64(len(p)) < 4*cnt {
				return nil, errTruncated
			}
			for j := uint64(0); j < cnt; j++ {
				a.w = append(a.w, math.Float32frombits(binary.LittleEndian.Uint32(p)))
				p = p[4:]
			}
		}
		a.ops = append(a.ops, trace.Op{Table: int(table), Kind: kind})
		a.offs = append(a.offs, off)
		a.cnts = append(a.cnts, int(cnt))
	}
	// Arena backing arrays are final: alias the per-op windows.
	for i := range a.ops {
		a.ops[i].Indices = a.idx[a.offs[i] : a.offs[i]+a.cnts[i]]
		a.ops[i].Weights = a.w[a.offs[i] : a.offs[i]+a.cnts[i]]
	}
	return trace.Sample(a.ops), nil
}

// Response flag bits.
const (
	respDegraded     = 1 << 0
	respColdDegraded = 1 << 1
)

// appendLookupResp encodes one serve.Result as a lookup-response
// frame; vectors travel as raw float bits, bit-identical.
func appendLookupResp(dst []byte, corr uint32, res *serve.Result) []byte {
	start := len(dst)
	dst = beginFrame(dst, frameLookupResp, corr)
	var flags byte
	if res.Degraded {
		flags |= respDegraded
	}
	if res.ColdDegraded {
		flags |= respColdDegraded
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(res.BatchSize))
	dst = binary.AppendUvarint(dst, uint64(res.ServiceCycles))
	dst = binary.AppendVarint(dst, int64(res.Replica))
	dst = binary.AppendUvarint(dst, uint64(res.Retries))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(res.QueueWait.Nanoseconds())/1e3))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(res.Total.Nanoseconds())/1e3))
	dst = binary.AppendUvarint(dst, uint64(len(res.Vectors)))
	for _, vec := range res.Vectors {
		dst = binary.AppendUvarint(dst, uint64(len(vec)))
		for _, v := range vec {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return endFrame(dst, start)
}

// decodeLookupResp decodes a lookup-response payload into a fresh
// serve.Result. Wall-clock fields round-trip through the same
// micros-float64 arithmetic as the JSON front-end (serve.LookupResponse),
// so a binary peer and an HTTP client see identical values.
func decodeLookupResp(payload []byte) (*serve.Result, error) {
	if len(payload) < 1 {
		return nil, errTruncated
	}
	flags := payload[0]
	p := payload[1:]
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	batch, ok := uv()
	if !ok {
		return nil, errTruncated
	}
	cycles, ok := uv()
	if !ok {
		return nil, errTruncated
	}
	replica, n := binary.Varint(p)
	if n <= 0 {
		return nil, errTruncated
	}
	p = p[n:]
	retries, ok := uv()
	if !ok {
		return nil, errTruncated
	}
	if len(p) < 16 {
		return nil, errTruncated
	}
	queueUs := math.Float64frombits(binary.LittleEndian.Uint64(p))
	totalUs := math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
	p = p[16:]
	nVecs, ok := uv()
	if !ok {
		return nil, errTruncated
	}
	if nVecs > uint64(len(p))+1 {
		return nil, errTruncated
	}
	res := &serve.Result{
		BatchSize:     int(batch),
		ServiceCycles: sim.Cycle(cycles),
		Replica:       int(replica),
		Retries:       int(retries),
		Degraded:      flags&respDegraded != 0,
		ColdDegraded:  flags&respColdDegraded != 0,
		QueueWait:     time.Duration(queueUs * 1e3),
		Total:         time.Duration(totalUs * 1e3),
		Vectors:       make([][]float32, nVecs),
	}
	for i := range res.Vectors {
		cnt, ok := uv()
		if !ok {
			return nil, errTruncated
		}
		if uint64(len(p))/4 < cnt {
			return nil, errTruncated
		}
		vec := make([]float32, cnt)
		for j := range vec {
			vec[j] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*j:]))
		}
		p = p[4*cnt:]
		res.Vectors[i] = vec
	}
	return res, nil
}

// appendErrFrame encodes an error response.
func appendErrFrame(dst []byte, corr uint32, code byte, msg string) []byte {
	start := len(dst)
	dst = beginFrame(dst, frameErr, corr)
	dst = append(dst, code)
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	dst = append(dst, msg...)
	return endFrame(dst, start)
}

// decodeErrFrame decodes an error payload into the matching Go error.
// Unavailable codes wrap ErrNodeDown so the router's failover and the
// prober treat a draining binary peer like a refused connection.
func decodeErrFrame(payload []byte, nodeID string) error {
	if len(payload) < 1 {
		return errTruncated
	}
	code := payload[0]
	p := payload[1:]
	ln, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p[n:])) < ln {
		return errTruncated
	}
	msg := string(p[n : n+int(ln)])
	if code == errCodeUnavailable {
		return fmt.Errorf("%w: node %s: %s", ErrNodeDown, nodeID, msg)
	}
	return fmt.Errorf("cluster: node %s: %s", nodeID, msg)
}

// readFrame reads one frame from br. The payload is read into buf
// (grown as needed) and aliases it — the caller owns copying before
// the next read. Returns the possibly-grown buffer for re-use.
func readFrame(br *bufio.Reader, hdr *[frameHeaderSize]byte, buf []byte) (typ byte, corr uint32, payload, newBuf []byte, err error) {
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, nil, buf, err
	}
	if hdr[0] != wireMagic0 || hdr[1] != wireMagic1 {
		return 0, 0, nil, buf, errBadMagic
	}
	if hdr[2] != wireVersion {
		return 0, 0, nil, buf, fmt.Errorf("%w: got %d want %d", errBadVersion, hdr[2], wireVersion)
	}
	typ = hdr[3]
	corr = binary.LittleEndian.Uint32(hdr[4:8])
	ln := binary.LittleEndian.Uint32(hdr[8:12])
	if ln > maxFramePayload {
		return 0, 0, nil, buf, errFrameSize
	}
	if cap(buf) < int(ln) {
		buf = make([]byte, ln)
	} else {
		buf = buf[:ln]
	}
	if _, err = io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, buf, err
	}
	return typ, corr, buf, buf, nil
}

// WireMetrics are one transport endpoint's lock-cheap counters,
// published as recross_cluster_wire_* — one series per BinNode in the
// router's set (role="client"), the binary listener's in its server's
// (role="server").
type WireMetrics struct {
	BytesIn   atomic.Int64 // payload+header bytes read
	BytesOut  atomic.Int64 // payload+header bytes written
	FramesIn  atomic.Int64 // frames read
	FramesOut atomic.Int64 // frames written
	EncodeNs  atomic.Int64 // cumulative encode time
	DecodeNs  atomic.Int64 // cumulative decode time
	Dials     atomic.Int64 // connections established
	Redials   atomic.Int64 // re-establishments after a conn failure
	ConnFails atomic.Int64 // connections failed (read/write/dial error)
	ConnsOpen atomic.Int64 // currently open connections (gauge)
}

// register publishes the endpoint's counters in set under labels.
func (m *WireMetrics) register(set *metrics.Set, labels ...string) {
	set.Counter("recross_cluster_wire_bytes_in_total", "Wire bytes read (frames incl. headers).", m.BytesIn.Load, labels...)
	set.Counter("recross_cluster_wire_bytes_out_total", "Wire bytes written (frames incl. headers).", m.BytesOut.Load, labels...)
	set.Counter("recross_cluster_wire_frames_in_total", "Frames read.", m.FramesIn.Load, labels...)
	set.Counter("recross_cluster_wire_frames_out_total", "Frames written.", m.FramesOut.Load, labels...)
	set.Counter("recross_cluster_wire_encode_ns_total", "Cumulative frame encode time, ns.", m.EncodeNs.Load, labels...)
	set.Counter("recross_cluster_wire_decode_ns_total", "Cumulative frame decode time, ns.", m.DecodeNs.Load, labels...)
	set.Counter("recross_cluster_wire_dials_total", "Connections established.", m.Dials.Load, labels...)
	set.Counter("recross_cluster_wire_redials_total", "Reconnects after a connection failure.", m.Redials.Load, labels...)
	set.Counter("recross_cluster_wire_conn_failures_total", "Connection failures.", m.ConnFails.Load, labels...)
	set.IntGauge("recross_cluster_wire_conns_open", "Open connections.", m.ConnsOpen.Load, labels...)
}
