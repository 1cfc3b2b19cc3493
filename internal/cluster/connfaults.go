package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"recross/internal/chaos"
)

// Conn-level chaos for the binary wire. FaultyNode injects at the
// cluster.Node seam — one call at a time — but the binary transport's
// failure modes damage the shared connection: a torn frame desyncs the
// stream for every multiplexed call behind it, a reset fails a whole
// pending table at once, a stalled writer backs up the coalescing
// loop. faultyConn injects those at the net.Conn seam, under the
// protocol, where a per-call wrapper cannot reach; WrapFaultyDial
// threads it into a BinNode's dialer so -chaos-node-* campaigns cover
// both wires.

// errConnInjected is the write error surfaced by injected conn faults.
var errConnInjected = fmt.Errorf("chaos: injected conn fault")

// faultyConn wraps a net.Conn with write-side fault injection per
// chaos.ConnRates: Torn (write a prefix, sever), Reset (sever before
// writing), Stall (delay the write). Severing closes the underlying
// conn, so the peer and this side's reader observe it too — exactly a
// real dying-mid-write connection. One picker draw per Write, guarded:
// deterministic per (seed, node, conn sequence).
type faultyConn struct {
	net.Conn
	inj    *chaos.Injector
	mu     sync.Mutex    // guards picker, dead
	picker *chaos.Picker // op = Write call number
	dead   bool
}

func newFaultyConn(c net.Conn, r chaos.ConnRates, inj *chaos.Injector, seed int64) *faultyConn {
	return &faultyConn{
		Conn: c,
		inj:  inj,
		picker: chaos.NewPicker(rand.New(rand.NewSource(seed)), inj, nil,
			chaos.Rate{Kind: chaos.ConnTorn, P: r.Torn},
			chaos.Rate{Kind: chaos.ConnReset, P: r.Reset},
			chaos.Rate{Kind: chaos.ConnStall, P: r.Stall}),
	}
}

func (fc *faultyConn) Write(p []byte) (int, error) {
	fc.mu.Lock()
	if fc.dead {
		fc.mu.Unlock()
		return 0, errConnInjected
	}
	k, inject := fc.picker.Pick()
	if inject && k != chaos.ConnStall {
		fc.dead = true
	}
	fc.mu.Unlock()
	if !inject {
		return fc.Conn.Write(p)
	}
	fc.inj.Record(k)
	switch k {
	case chaos.ConnTorn:
		// Half the frame reaches the peer, then the conn dies — the
		// peer's reader must fail the stream, never mis-frame.
		n, _ := fc.Conn.Write(p[:len(p)/2])
		fc.Conn.Close()
		return n, errConnInjected
	case chaos.ConnReset:
		fc.Conn.Close()
		return 0, errConnInjected
	default: // ConnStall: the write lands, connStallDelay late
		time.Sleep(connStallDelay)
		return fc.Conn.Write(p)
	}
}

// connStallDelay is a ConnStall fault's write delay.
const connStallDelay = time.Millisecond

// WrapFaultyDial wraps dial so every connection it opens injects
// conn-level faults per cfg.Conn. Connection i (1-based, per node) is
// seeded with cfg.Seed + node*1009 + i, so campaigns are deterministic
// per (seed, node, conn sequence) regardless of dial interleaving
// across nodes. inj may be shared with node- and replica-tier
// injection; if nil a fresh one is made.
func WrapFaultyDial(dial BinDial, cfg chaos.NodeConfig, node int, inj *chaos.Injector) BinDial {
	cfg = cfg.WithDefaults()
	if inj == nil {
		inj = chaos.NewInjector()
	}
	if dial == nil {
		dial = defaultBinDial
	}
	var seq atomic.Int64
	return func(ctx context.Context, addr string) (net.Conn, error) {
		c, err := dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		return newFaultyConn(c, cfg.Conn, inj, cfg.Seed+int64(node)*1009+seq.Add(1)), nil
	}
}
