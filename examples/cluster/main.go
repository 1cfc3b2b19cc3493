// The cluster example demonstrates multi-node sharded serving end to
// end: 4 in-binary nodes, each a serving stack behind its own loopback
// binary-wire listener, fronted by the scatter-gather router. The
// tables are placed once, at start-up, dealt round the nodes, with the
// largest-volume table replicated on two nodes.
//
//  1. Healthy serving: every lookup scatters to the nodes owning its
//     tables and gathers a bit-identical answer; the hottest table's
//     load is spread across its replicas by least-outstanding dispatch.
//  2. Node loss: killing a node degrades only the tables uniquely on
//     it (the router answers those from its own functional layer, still
//     bit-exact) — lookups never fail. Reviving the node gets it
//     re-admitted by the background prober.
//
// Every answer is checked bit for bit against the functional layer; a
// mismatch exits 1.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"recross"
)

// demoSpec returns the 8-table workload with table t0 carrying 64
// gathers per sample and the rest 8 — one dominant table to replicate.
func demoSpec() recross.ModelSpec {
	tabs := make([]recross.TableSpec, 8)
	for i := range tabs {
		pool := 8
		if i == 0 {
			pool = 64
		}
		tabs[i] = recross.TableSpec{
			Name: fmt.Sprintf("t%d", i), Rows: 8000, VecLen: 32,
			Pooling: pool, Prob: 1, Skew: 1.2,
		}
	}
	return recross.ModelSpec{Name: "cluster-demo", Tables: tabs}
}

// hotOwners returns the replica set of the (first) replicated table.
func hotOwners(pl *recross.ClusterPlacement) (int, []int) {
	for t := range pl.Replicas {
		if len(pl.Replicas[t]) > 1 {
			return t, pl.Replicas[t]
		}
	}
	return -1, nil
}

func main() {
	spec := demoSpec()
	fmt.Println("building a 4-node ReCross cluster (tables dealt round the nodes, hot table replicated on 2)...")
	// Each node handle is wrapped in a fault injector with no rates: it
	// only kills and revives on command.
	nodes := make([]*recross.FaultyNode, 4)
	cs, err := recross.NewClusterServer(recross.ReCross, recross.Config{
		Spec: spec, ProfileSamples: 500, Batch: 16,
	}, recross.ClusterConfig{
		Nodes:         4,
		Replication:   2,
		HotTopK:       1,
		ProbeInterval: 50 * time.Millisecond,
		Serve:         recross.ServeOptions{MaxBatch: 8},
		WrapNode: func(i int, n recross.ClusterNode) recross.ClusterNode {
			nodes[i] = recross.WrapFaultyNode(n, recross.NodeFaultConfig{}, i, nil)
			return nodes[i]
		},
	})
	check(err)
	defer cs.Close()

	layer, err := recross.NewLayer(spec)
	check(err)
	gen, err := recross.NewGenerator(spec, 42)
	check(err)

	pl := cs.Router.Placement()
	ht, owners := hotOwners(pl)
	fmt.Printf("  placement: %d tables, hot table t%d on nodes %v\n", pl.Tables(), ht, owners)

	// Phase 1: healthy scatter-gather, answers checked bit for bit.
	fmt.Println("\nphase 1: healthy serving (300 lookups)")
	drive(cs, layer, gen, 300)
	for i, nh := range cs.Router.Health().NodeHealth {
		fmt.Printf("  node%d served %d sub-requests\n", i, nh.Lookups)
	}
	fmt.Println("  300/300 answers bit-identical to the functional layer")

	// Phase 2: kill a node that uniquely owns tables; serving degrades
	// for exactly those tables and never fails.
	victim := 0
	for i := range nodes {
		if len(pl.UniqueTables(i)) > 0 {
			victim = i
			break
		}
	}
	fmt.Printf("\nphase 2: killing node%d (uniquely owns tables %v)\n", victim, pl.UniqueTables(victim))
	nodes[victim].Kill()
	degraded := 0
	for i := 0; i < 100; i++ {
		sample := gen.Sample()
		res, err := cs.Lookup(context.Background(), sample)
		check(err)
		verify(layer, sample, res.Vectors)
		if res.Degraded {
			degraded++
		}
	}
	h := cs.Router.Health()
	fmt.Printf("  100 lookups: 0 errors, %d degraded (still bit-exact); health %q, %d/%d nodes\n",
		degraded, h.Status, h.Available, h.Nodes)

	fmt.Printf("  reviving node%d...\n", victim)
	nodes[victim].Revive()
	deadline := time.Now().Add(5 * time.Second)
	for cs.Router.Health().Available != len(nodes) {
		if time.Now().After(deadline) {
			fmt.Println("  node never re-admitted")
			os.Exit(1)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("  prober re-admitted node%d (%d revivals)\n", victim, cs.Router.Stats().Revivals)

	st := cs.Router.Stats()
	fmt.Printf("\nrouter stats: %d requests, %d sub-requests, %d degraded, %d revivals\n",
		st.Requests, st.Subrequests, st.Degraded, st.Revivals)
}

// drive pushes n lookups through the cluster, verifying each answer
// against the functional layer.
func drive(cs *recross.ClusterServer, layer *recross.Layer, gen *recross.Generator, n int) {
	for i := 0; i < n; i++ {
		sample := gen.Sample()
		res, err := cs.Lookup(context.Background(), sample)
		check(err)
		verify(layer, sample, res.Vectors)
	}
}

func verify(layer *recross.Layer, sample recross.Sample, got [][]float32) {
	want, err := layer.ReduceSample(sample)
	check(err)
	for k := range want {
		if !recross.AlmostEqual(got[k], want[k], 0) {
			fmt.Println("MISMATCH against the functional layer")
			os.Exit(1)
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}
