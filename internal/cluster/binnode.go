package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recross/internal/kernels"
	"recross/internal/serve"
	"recross/internal/trace"
)

// BinDial dials one transport connection to a binary peer. Swappable
// for tests and for the chaos tier's faulty-conn wrapper.
type BinDial func(ctx context.Context, addr string) (net.Conn, error)

func defaultBinDial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// errConnClosed marks a deliberately closed connection (node Close),
// as opposed to a transport failure.
var errConnClosed = errors.New("cluster: wire: connection closed")

// dialTimeout bounds one dial attempt.
const dialTimeout = 2 * time.Second

// BinNodeOptions tunes a BinNode.
type BinNodeOptions struct {
	// Conns is the connection pool size (default 2). More conns shrink
	// head-of-line blocking on the shared writer at high concurrency and
	// bound a single conn failure's blast radius; the multiplexing means
	// even one conn carries many in-flight lookups.
	Conns int
	// Precision is the response-vector wire encoding requested from the
	// peer (default FP32: raw bits, bit-identical). FP16/INT8 shrink
	// response bytes further at the storage codecs' precision cost.
	Precision kernels.Precision
	// Dial opens transport connections (default TCP); one attempt is
	// bounded by dialTimeout.
	Dial BinDial
	// MaxBackoff caps the exponential redial backoff (default 1s; the
	// router's prober retries Health each interval, so recovery after a
	// peer restart is bounded by MaxBackoff + ProbeInterval).
	MaxBackoff time.Duration
}

func (o BinNodeOptions) withDefaults() BinNodeOptions {
	if o.Conns <= 0 {
		o.Conns = 2
	}
	if o.Dial == nil {
		o.Dial = defaultBinDial
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = time.Second
	}
	return o
}

// BinNode is the binary-protocol transport driver: a cluster.Node
// backed by a pool of long-lived connections to a peer's binary
// listener, multiplexing concurrent lookups over each conn by
// correlation ID. Requests pipeline through a flush-coalescing writer
// loop; responses are matched back by a per-conn pending table, so one
// conn failure fails only its own in-flight calls — other conns'
// correlation IDs are untouched. Dial is lazy with exponential
// backoff, and because Health runs through the same path, the router's
// existing prober re-admits a restarted peer with no extra machinery.
type BinNode struct {
	id   string
	addr string
	opts BinNodeOptions
	m    WireMetrics

	slots []*connSlot
	next  atomic.Uint32

	closed atomic.Bool
}

// NewBinNode builds a node for the binary peer at addr ("host:port";
// a "bin://" scheme prefix is accepted and stripped).
func NewBinNode(id, addr string, opts BinNodeOptions) *BinNode {
	addr = strings.TrimPrefix(addr, "bin://")
	addr = strings.TrimSuffix(addr, "/")
	n := &BinNode{id: id, addr: addr, opts: opts.withDefaults()}
	for i := 0; i < n.opts.Conns; i++ {
		n.slots = append(n.slots, &connSlot{n: n})
	}
	return n
}

// ID names the node.
func (n *BinNode) ID() string { return n.id }

// WireMetrics exposes the transport counters (the router's exposition
// discovers them through this method).
func (n *BinNode) WireMetrics() *WireMetrics { return &n.m }

// connSlot is one pool position: the live conn, or the backoff state
// gating the next dial.
type connSlot struct {
	n *BinNode

	mu       sync.Mutex
	conn     *binConn
	nextDial time.Time
	backoff  time.Duration
	dialed   bool // a conn has existed before (Redials accounting)
}

// get returns the slot's live conn, dialing lazily. During dial
// backoff it fails fast with ErrNodeDown so the router's failover sees
// a down peer immediately instead of a timeout.
func (s *connSlot) get(ctx context.Context) (*binConn, error) {
	s.mu.Lock()
	if bc := s.conn; bc != nil {
		s.mu.Unlock()
		return bc, nil
	}
	if !s.nextDial.IsZero() && time.Now().Before(s.nextDial) {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s (dial backoff)", ErrNodeDown, s.n.addr)
	}
	// Dial under the slot lock: concurrent callers coalesce onto one
	// attempt instead of racing N dials at the same peer.
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	c, err := s.n.opts.Dial(dctx, s.n.addr)
	cancel()
	if err != nil {
		if s.backoff == 0 {
			s.backoff = 50 * time.Millisecond
		} else if s.backoff *= 2; s.backoff > s.n.opts.MaxBackoff {
			s.backoff = s.n.opts.MaxBackoff
		}
		s.nextDial = time.Now().Add(s.backoff)
		s.mu.Unlock()
		s.n.m.ConnFails.Add(1)
		return nil, fmt.Errorf("%w: %s: %v", ErrNodeDown, s.n.addr, err)
	}
	s.backoff = 0
	s.nextDial = time.Time{}
	bc := newBinConn(s, c)
	s.conn = bc
	redial := s.dialed
	s.dialed = true
	s.mu.Unlock()
	s.n.m.Dials.Add(1)
	if redial {
		s.n.m.Redials.Add(1)
	}
	s.n.m.ConnsOpen.Add(1)
	return bc, nil
}

// detach clears the slot if it still points at bc, so the next call
// redials (immediately: backoff applies only to failed dials).
func (s *connSlot) detach(bc *binConn) {
	s.mu.Lock()
	if s.conn == bc {
		s.conn = nil
	}
	s.mu.Unlock()
}

// binCall is one in-flight request's rendezvous. Pooled: sig is a
// reusable one-shot (cap-1 send, receiver drains), and buf keeps its
// grown capacity across calls so steady-state delivery copies without
// allocating.
type binCall struct {
	sig chan struct{}
	typ byte
	buf []byte
	err error
}

var binCallPool = sync.Pool{New: func() any { return &binCall{sig: make(chan struct{}, 1)} }}

func getBinCall() *binCall { return binCallPool.Get().(*binCall) }
func putBinCall(c *binCall) {
	c.err = nil
	c.buf = c.buf[:0]
	binCallPool.Put(c)
}

// binConn is one multiplexed connection: a reader goroutine matching
// response frames to the pending table, and a writer goroutine
// draining writeq with flush coalescing (one Flush per burst, not per
// frame — pipelined requests share syscalls).
type binConn struct {
	slot *connSlot
	c    net.Conn

	corr atomic.Uint32

	mu      sync.Mutex
	pending map[uint32]*binCall // nil once failed

	writeq chan *wireBuf
	dead   chan struct{}

	failOnce sync.Once
}

func newBinConn(slot *connSlot, c net.Conn) *binConn {
	bc := &binConn{
		slot:    slot,
		c:       c,
		pending: make(map[uint32]*binCall),
		writeq:  make(chan *wireBuf, 64),
		dead:    make(chan struct{}),
	}
	go bc.readLoop()
	go bc.writeLoop()
	return bc
}

// fail tears the conn down once: closes the socket, wakes the loops,
// fails every pending call on THIS conn (others are untouched), and
// detaches from the slot so the next call redials.
func (bc *binConn) fail(err error, counted bool) {
	bc.failOnce.Do(func() {
		close(bc.dead)
		bc.c.Close()
		if counted {
			bc.slot.n.m.ConnFails.Add(1)
		}
		bc.slot.n.m.ConnsOpen.Add(-1)
		bc.mu.Lock()
		pend := bc.pending
		bc.pending = nil
		bc.mu.Unlock()
		for _, call := range pend {
			call.err = fmt.Errorf("%w: %v", ErrNodeDown, err)
			call.sig <- struct{}{}
		}
		bc.slot.detach(bc)
	})
}

func (bc *binConn) readLoop() {
	m := &bc.slot.n.m
	br := bufio.NewReaderSize(bc.c, 64<<10)
	var hdr [frameHeaderSize]byte
	var buf []byte
	for {
		typ, corr, payload, nbuf, err := readFrame(br, &hdr, buf)
		buf = nbuf
		if err != nil {
			bc.fail(err, true)
			return
		}
		m.BytesIn.Add(int64(frameHeaderSize + len(payload)))
		m.FramesIn.Add(1)
		bc.mu.Lock()
		call, ok := bc.pending[corr]
		if ok {
			delete(bc.pending, corr)
		}
		bc.mu.Unlock()
		if !ok {
			continue // call abandoned (ctx expired) before the reply landed
		}
		// Copy out of the read buffer before the next frame overwrites
		// it; the call's buf keeps its capacity, so this is a memcpy in
		// steady state.
		call.typ = typ
		call.buf = append(call.buf[:0], payload...)
		call.err = nil
		call.sig <- struct{}{}
	}
}

func (bc *binConn) writeLoop() {
	m := &bc.slot.n.m
	bw := bufio.NewWriterSize(bc.c, 64<<10)
	writeOne := func(wb *wireBuf) bool {
		_, err := bw.Write(wb.b)
		m.BytesOut.Add(int64(len(wb.b)))
		m.FramesOut.Add(1)
		putWireBuf(wb)
		if err != nil {
			bc.fail(err, true)
			return false
		}
		return true
	}
	for {
		var wb *wireBuf
		select {
		case <-bc.dead:
			return
		case wb = <-bc.writeq:
		}
		if !writeOne(wb) {
			return
		}
		// Flush coalescing: drain whatever pipelined behind us before
		// paying the flush syscall once for the whole burst.
	coalesce:
		for {
			select {
			case wb = <-bc.writeq:
				if !writeOne(wb) {
					return
				}
			default:
				break coalesce
			}
		}
		if err := bw.Flush(); err != nil {
			bc.fail(err, true)
			return
		}
	}
}

// roundTrip registers a call, enqueues the encoded frame, and waits
// for its response payload (delivered into call.buf). The correlation
// ID must already be encoded in wb. On ctx expiry the call is
// abandoned: if the reader has not claimed it, deregistering
// guarantees it never will; if it has, the delivery is imminent and is
// drained so the pooled call is never left with a pending signal.
func (bc *binConn) roundTrip(ctx context.Context, corr uint32, call *binCall, wb *wireBuf) (byte, []byte, error) {
	bc.mu.Lock()
	if bc.pending == nil {
		bc.mu.Unlock()
		putWireBuf(wb)
		return 0, nil, fmt.Errorf("%w: connection failed", ErrNodeDown)
	}
	bc.pending[corr] = call
	bc.mu.Unlock()

	abandon := func() (drained bool) {
		bc.mu.Lock()
		_, mine := bc.pending[corr]
		if mine {
			delete(bc.pending, corr)
		}
		bc.mu.Unlock()
		if !mine {
			<-call.sig // reader (or fail) claimed it: delivery is imminent
			return true
		}
		return false
	}

	select {
	case bc.writeq <- wb:
	case <-bc.dead:
		putWireBuf(wb)
		if !abandon() {
			return 0, nil, fmt.Errorf("%w: connection failed", ErrNodeDown)
		}
		return 0, nil, call.err
	case <-ctx.Done():
		putWireBuf(wb)
		abandon()
		return 0, nil, ctx.Err()
	}

	select {
	case <-call.sig:
		return call.typ, call.buf, call.err
	case <-ctx.Done():
		abandon()
		return 0, nil, ctx.Err()
	}
}

// pickConn round-robins the pool, dialing lazily.
func (n *BinNode) pickConn(ctx context.Context) (*binConn, error) {
	if n.closed.Load() {
		return nil, fmt.Errorf("%w: node closed", ErrNodeDown)
	}
	i := int(n.next.Add(1)) % len(n.slots)
	return n.slots[i].get(ctx)
}

// Lookup serves one sample over the binary wire.
func (n *BinNode) Lookup(ctx context.Context, sample trace.Sample) (*serve.Result, error) {
	bc, err := n.pickConn(ctx)
	if err != nil {
		return nil, err
	}
	corr := bc.corr.Add(1)
	wb := getWireBuf()
	t0 := time.Now()
	wb.b = appendLookupReq(wb.b, corr, sample, n.opts.Precision)
	n.m.EncodeNs.Add(time.Since(t0).Nanoseconds())
	call := getBinCall()
	typ, payload, err := bc.roundTrip(ctx, corr, call, wb)
	if err != nil {
		putBinCall(call)
		return nil, err
	}
	var res *serve.Result
	switch typ {
	case frameLookupResp:
		t1 := time.Now()
		res, err = decodeLookupResp(payload)
		n.m.DecodeNs.Add(time.Since(t1).Nanoseconds())
	case frameErr:
		err = decodeErrFrame(payload, n.id)
	default:
		err = fmt.Errorf("cluster: node %s: unexpected frame type %d", n.id, typ)
	}
	putBinCall(call)
	return res, err
}

// Health round-trips a health frame on the same pooled conns, so a
// probe exercises the real transport: a restarted peer is re-dialed
// here, which is exactly what lets the router's prober re-admit it.
func (n *BinNode) Health(ctx context.Context) (serve.HealthReport, error) {
	bc, err := n.pickConn(ctx)
	if err != nil {
		return serve.HealthReport{}, err
	}
	corr := bc.corr.Add(1)
	wb := getWireBuf()
	start := len(wb.b)
	wb.b = beginFrame(wb.b, frameHealthReq, corr)
	wb.b = endFrame(wb.b, start)
	call := getBinCall()
	typ, payload, err := bc.roundTrip(ctx, corr, call, wb)
	if err != nil {
		putBinCall(call)
		return serve.HealthReport{}, err
	}
	var h serve.HealthReport
	switch typ {
	case frameHealthResp:
		err = json.Unmarshal(payload, &h)
	case frameErr:
		err = decodeErrFrame(payload, n.id)
	default:
		err = fmt.Errorf("cluster: node %s: unexpected frame type %d", n.id, typ)
	}
	putBinCall(call)
	if err != nil {
		return serve.HealthReport{}, err
	}
	return h, nil
}

// Close tears down the conn pool. The peer's lifecycle is not ours.
func (n *BinNode) Close() error {
	n.closed.Store(true)
	for _, s := range n.slots {
		s.mu.Lock()
		bc := s.conn
		s.mu.Unlock()
		if bc != nil {
			bc.fail(errConnClosed, false)
		}
	}
	return nil
}
