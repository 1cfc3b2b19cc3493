package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"recross/internal/embedding"
	"recross/internal/metrics"
	"recross/internal/serve"
	"recross/internal/trace"
)

// BinBackend is what the binary listener serves from. *serve.Server
// satisfies it directly; a Router fronts it through RouterBackend —
// the same two roles the JSON/HTTP front-ends cover, so both wires
// stay available on every tier.
type BinBackend interface {
	Lookup(ctx context.Context, sample trace.Sample) (*serve.Result, error)
	Health() serve.HealthReport
}

// RouterBackend adapts a Router to BinBackend. Its Lookup is the one
// mapping of a cluster Result onto a node's (Replica -1, ServiceCycles =
// cluster critical path), used by the binary listener and the HTTP
// front-end alike, so answers from a router are field-identical on both
// wires.
type RouterBackend struct {
	R *Router
}

// Lookup scatter-gathers the sample through the router.
func (rb RouterBackend) Lookup(ctx context.Context, sample trace.Sample) (*serve.Result, error) {
	res, err := rb.R.Lookup(ctx, sample)
	if err != nil {
		return nil, err
	}
	return &serve.Result{
		Vectors:       res.Vectors,
		BatchSize:     len(sample),
		ServiceCycles: res.ServiceCycles,
		Replica:       -1,
		Retries:       res.Retries,
		Degraded:      res.Degraded,
		ColdDegraded:  res.ColdDegraded,
		Total:         res.Total,
	}, nil
}

// Health maps the router's aggregate health onto the probe report.
func (rb RouterBackend) Health() serve.HealthReport {
	h := rb.R.Health()
	return serve.HealthReport{Status: h.Status, Available: h.Available, Quorum: h.Nodes}
}

// BinServerOptions configures a binary listener.
type BinServerOptions struct {
	// Backend serves the decoded samples (required).
	Backend BinBackend
	// Layer bounds-checks request tables and indices (required), exactly
	// as serve.ParseSample does for the JSON wire.
	Layer *embedding.Layer
	// Workers is the per-connection decode/serve pool size (default 4).
	// The multiplexed wire delivers many concurrent lookups per conn;
	// workers decouple decode+serve from the reader so a slow lookup
	// does not head-of-line block frame intake.
	Workers int
}

func (o BinServerOptions) withDefaults() BinServerOptions {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	return o
}

// binReq is one pooled inbound frame: the payload copy (so the conn
// reader can keep streaming) plus the decode arena that turns it into
// a sample without allocating in steady state.
type binReq struct {
	typ     byte
	corr    uint32
	payload []byte
	arena   reqArena
}

var binReqPool = sync.Pool{New: func() any { return &binReq{} }}

// BinServer is the binary-protocol listener: the server half of
// BinNode. Each accepted conn runs a reader (frame intake), a small
// worker pool (arena decode, backend lookup, response encode into
// pooled buffers), and a flush-coalescing writer — the steady-state
// request path allocates nothing on this side, which is where a
// cluster's aggregate decode work lands.
type BinServer struct {
	opts BinServerOptions
	m    WireMetrics

	mu     sync.Mutex
	lis    []net.Listener
	conns  map[net.Conn]context.CancelFunc
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewBinServer builds a listener-less server; call Serve with one or
// more listeners.
func NewBinServer(opts BinServerOptions) (*BinServer, error) {
	if opts.Backend == nil {
		return nil, errors.New("cluster: bin server needs a backend")
	}
	if opts.Layer == nil {
		return nil, errors.New("cluster: bin server needs a layer")
	}
	return &BinServer{opts: opts.withDefaults(), conns: make(map[net.Conn]context.CancelFunc)}, nil
}

// Metrics exposes the transport counters.
func (s *BinServer) Metrics() *WireMetrics { return &s.m }

// RegisterMetrics publishes the listener's recross_cluster_wire_* series
// (role="server") in set — the MetricSet of the server it fronts.
func (s *BinServer) RegisterMetrics(set *metrics.Set) { s.m.register(set, "role", "server") }

// Serve accepts connections until the listener closes. Returns nil
// after Close; a Serve error otherwise.
func (s *BinServer) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		lis.Close()
		return errors.New("cluster: bin server closed")
	}
	s.lis = append(s.lis, lis)
	s.mu.Unlock()
	for {
		c, err := lis.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// Close stops accepting, tears down every conn, and waits for the
// per-conn goroutines to drain.
func (s *BinServer) Close() error {
	s.closed.Store(true)
	s.mu.Lock()
	for _, l := range s.lis {
		l.Close()
	}
	for c, cancel := range s.conns {
		cancel()
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *BinServer) track(c net.Conn, cancel context.CancelFunc) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.conns[c] = cancel
	return true
}

func (s *BinServer) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *BinServer) handleConn(c net.Conn) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !s.track(c, cancel) {
		c.Close()
		return
	}
	defer s.untrack(c)
	s.m.Dials.Add(1)
	s.m.ConnsOpen.Add(1)
	defer s.m.ConnsOpen.Add(-1)

	reqq := make(chan *binReq, 64)
	writeq := make(chan *wireBuf, 64)
	var workers sync.WaitGroup
	for i := 0; i < s.opts.Workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			s.worker(ctx, reqq, writeq)
		}()
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.connWriter(c, writeq)
	}()

	// Reader: frame intake. Payloads are copied into pooled requests so
	// the read buffer can take the next frame while workers decode.
	br := bufio.NewReaderSize(c, 64<<10)
	var hdr [frameHeaderSize]byte
	var buf []byte
	for {
		typ, corr, payload, nbuf, err := readFrame(br, &hdr, buf)
		buf = nbuf
		if err != nil {
			break // EOF, torn frame, bad magic: either way the conn is done
		}
		s.m.BytesIn.Add(int64(frameHeaderSize + len(payload)))
		s.m.FramesIn.Add(1)
		req := binReqPool.Get().(*binReq)
		req.typ = typ
		req.corr = corr
		req.payload = append(req.payload[:0], payload...)
		reqq <- req
	}
	// Teardown in dependency order: no more requests, drain workers,
	// then no more responses, drain writer.
	close(reqq)
	workers.Wait()
	close(writeq)
	<-writerDone
	c.Close()
}

// worker decodes, serves, and encodes requests for one conn.
func (s *BinServer) worker(ctx context.Context, reqq chan *binReq, writeq chan *wireBuf) {
	for req := range reqq {
		wb := getWireBuf()
		switch req.typ {
		case frameLookupReq:
			t0 := time.Now()
			sample, prec, err := decodeLookupReq(req.payload, &req.arena, s.opts.Layer)
			s.m.DecodeNs.Add(time.Since(t0).Nanoseconds())
			if err != nil {
				wb.b = appendErrFrame(wb.b, req.corr, errCodeBadRequest, err.Error())
				break
			}
			res, err := s.opts.Backend.Lookup(ctx, sample)
			if err != nil {
				wb.b = appendErrFrame(wb.b, req.corr, errCodeOf(err), err.Error())
				break
			}
			t1 := time.Now()
			wb.b = appendLookupResp(wb.b, req.corr, res, prec)
			s.m.EncodeNs.Add(time.Since(t1).Nanoseconds())
		case frameHealthReq:
			data, err := json.Marshal(s.opts.Backend.Health())
			if err != nil {
				wb.b = appendErrFrame(wb.b, req.corr, errCodeInternal, err.Error())
				break
			}
			start := len(wb.b)
			wb.b = beginFrame(wb.b, frameHealthResp, req.corr)
			wb.b = append(wb.b, data...)
			wb.b = endFrame(wb.b, start)
		default:
			wb.b = appendErrFrame(wb.b, req.corr, errCodeBadRequest,
				fmt.Sprintf("unexpected frame type %d", req.typ))
		}
		req.payload = req.payload[:0]
		binReqPool.Put(req)
		writeq <- wb
	}
}

// errCodeOf maps backend errors onto wire error codes. Unavailability
// (draining, closed — a closed router unwraps to serve.ErrClosed — node
// down, shedding) becomes errCodeUnavailable, which the client maps back
// onto ErrNodeDown for the router's failover.
func errCodeOf(err error) byte {
	if errors.Is(err, serve.ErrClosed) || errors.Is(err, ErrNodeDown) || errors.Is(err, serve.ErrOverloaded) {
		return errCodeUnavailable
	}
	return errCodeInternal
}

// connWriter drains writeq with flush coalescing. On a write error it
// closes the conn (unblocking the reader) and keeps draining so
// workers never block on a dead writer.
func (s *BinServer) connWriter(c net.Conn, writeq chan *wireBuf) {
	bw := bufio.NewWriterSize(c, 64<<10)
	failed := false
	writeOne := func(wb *wireBuf) {
		if !failed {
			_, err := bw.Write(wb.b)
			s.m.BytesOut.Add(int64(len(wb.b)))
			s.m.FramesOut.Add(1)
			if err != nil {
				failed = true
				s.m.ConnFails.Add(1)
				c.Close()
			}
		}
		putWireBuf(wb)
	}
	for wb := range writeq {
		writeOne(wb)
	coalesce:
		for {
			select {
			case wb, ok := <-writeq:
				if !ok {
					break coalesce
				}
				writeOne(wb)
			default:
				break coalesce
			}
		}
		if !failed {
			if err := bw.Flush(); err != nil {
				failed = true
				s.m.ConnFails.Add(1)
				c.Close()
			}
		}
	}
	if !failed {
		bw.Flush()
	}
}
