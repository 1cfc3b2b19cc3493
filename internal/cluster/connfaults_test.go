package cluster

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"recross/internal/chaos"
)

// TestFaultyConnTornFrame: a torn write delivers a prefix then severs.
// The peer's frame reader must surface an error — never mis-frame or
// hang — and the writer side sees errConnInjected.
func TestFaultyConnTornFrame(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	fc := newFaultyConn(client, chaos.ConnRates{Torn: 1}, chaos.NewInjector(), 1)
	frame := appendErrFrame(nil, 1, errCodeInternal, "payload-long-enough-to-tear")

	readErr := make(chan error, 1)
	go func() {
		var hdr [frameHeaderSize]byte
		_, _, _, _, err := readFrame(bufio.NewReader(server), &hdr, nil)
		readErr <- err
	}()
	if _, err := fc.Write(frame); err == nil {
		t.Fatal("torn write reported success")
	}
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("peer decoded a torn frame as valid")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer reader hung on a torn frame")
	}
	if fc.inj.Count(chaos.ConnTorn) != 1 {
		t.Errorf("torn count = %d, want 1", fc.inj.Count(chaos.ConnTorn))
	}
	// The conn is dead: further writes fail fast.
	if _, err := fc.Write(frame); err == nil {
		t.Error("write on a torn conn succeeded")
	}
}

// TestWrapFaultyDialDeterministic: same (seed, node) → same fault
// sequence, independent of wall clock.
func TestWrapFaultyDialDeterministic(t *testing.T) {
	run := func() []bool {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		go func() {
			for {
				c, err := lis.Accept()
				if err != nil {
					return
				}
				go func(c net.Conn) {
					buf := make([]byte, 1<<16)
					for {
						if _, err := c.Read(buf); err != nil {
							c.Close()
							return
						}
					}
				}(c)
			}
		}()
		cfg := chaos.NodeConfig{Seed: 42, Conn: chaos.ConnRates{Reset: 0.5}}
		dial := WrapFaultyDial(nil, cfg, 3, chaos.NewInjector())
		var outcomes []bool
		for i := 0; i < 20; i++ {
			c, err := dial(context.Background(), lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			_, werr := c.Write([]byte("ping"))
			outcomes = append(outcomes, werr == nil)
			c.Close()
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequence diverged at conn %d: %v vs %v", i, a, b)
		}
	}
	var faults int
	for _, ok := range a {
		if !ok {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Errorf("reset rate 0.5 injected %d/%d faults", faults, len(a))
	}
}

// TestBinNodeChaosConnCampaign: a router over binary peers whose conns
// tear, reset and stall keeps answering — degraded at worst, never a
// hard error — and heals to clean answers once injection stops. This is
// the binary-wire equivalent of the FaultyNode campaign.
func TestBinNodeChaosConnCampaign(t *testing.T) {
	layer := clusterLayer(t)
	backend := &stubBinBackend{layer: layer}
	inj := chaos.NewInjector()
	cfg := chaos.NodeConfig{
		Seed: 7,
		Conn: chaos.ConnRates{Torn: 0.05, Reset: 0.05, Stall: 0.1},
	}

	nodes := make([]Node, 2)
	for i := range nodes {
		addr, _ := newBinPeer(t, backend, layer)
		bn := NewBinNode(
			nodes2ID(i), addr,
			BinNodeOptions{Conns: 2, MaxBackoff: 20 * time.Millisecond,
				Dial: WrapFaultyDial(nil, cfg, i, inj)},
		)
		nodes[i] = bn
	}
	pl, err := RingPlacement(8, []string{"node0", "node1"}, PlacementOptions{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(Options{
		Nodes: nodes, Placement: pl, Layer: layer,
		ProbeInterval: 20 * time.Millisecond, FailThreshold: 2, HedgeDelay: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	samples := clusterSamples(t, 10)
	for i := 0; i < 200; i++ {
		sample := samples[i%len(samples)]
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		res, err := r.Lookup(ctx, sample)
		cancel()
		if err != nil {
			t.Fatalf("lookup %d under conn chaos: %v", i, err)
		}
		checkIdentical(t, layer, sample, res.Vectors)
	}
	if inj.Count(chaos.ConnTorn)+inj.Count(chaos.ConnReset) == 0 {
		t.Fatal("campaign never injected a severing conn fault")
	}

	// Stop injecting: the pool must heal back to clean, non-degraded
	// answers (redial replaces every dead faulty conn).
	inj.SetEnabled(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := r.Lookup(context.Background(), samples[0])
		if err == nil && !res.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster never healed after injection stopped")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func nodes2ID(i int) string {
	return [2]string{"node0", "node1"}[i]
}
