package core

import (
	"fmt"
	"sort"

	"recross/internal/arch"
	"recross/internal/embedding"
	"recross/internal/kernels"
	"recross/internal/trace"
)

// ReduceBatch executes a batch functionally through the cross-level PE
// hierarchy, the execution flow of §4.4: each op's lookups are split by
// the PE node their row is placed under (bank PE, bank-group PE, rank PE
// or the flash tier's accumulator), each node reduces its share with the
// embedding layer's kernels — so quantized and cold-routed rows read
// exactly as the serving path reads them — and the partial sums fold up
// the tree in node order: banks into their bank group, bank groups into
// their rank, then ranks and the cold accumulator into the rank
// summarizer's one result per op. The fold order is fixed, so repeat calls
// return the same bits. The returned slices are indexed [sample][op].
//
// This is the correctness path; Run is the timing path. Tests check
// ReduceBatch against the flat embedding.Layer reference.
func (r *ReCross) ReduceBatch(layer *embedding.Layer, b trace.Batch) ([][][]float32, error) {
	if layer == nil {
		return nil, fmt.Errorf("core: nil layer")
	}
	g := r.geo
	// Node layout: flat banks, flat bank groups, ranks, the cold
	// accumulator, then the summarizer.
	bgs := g.TotalBanks()
	ranks := bgs + g.Ranks*g.BankGroups
	cold := ranks + g.Ranks
	summ := cold + 1
	part := make([][]float32, summ+1)
	for n := range summ {
		part[n] = make([]float32, r.vecLen)
	}
	full := make([]bool, len(part))
	var node, perm []int
	var sub trace.Op
	var scr embedding.Scratch

	out := make([][][]float32, len(b))
	for si, s := range b {
		out[si] = make([][]float32, len(s))
		for oi, op := range s {
			if op.Table < 0 || op.Table >= layer.Tables() {
				return nil, fmt.Errorf("core: table %d out of range", op.Table)
			}
			tab := layer.Table(op.Table)
			if tab.VecLen() != r.vecLen {
				return nil, fmt.Errorf("core: layer vector length %d != %d", tab.VecLen(), r.vecLen)
			}
			if op.Kind == trace.WeightedSum && len(op.Weights) != len(op.Indices) {
				return nil, fmt.Errorf("core: %d indices but %d weights", len(op.Indices), len(op.Weights))
			}
			// 1. Split the lookups by the PE node their row is placed under.
			node, perm = node[:0], perm[:0]
			for k, idx := range op.Indices {
				if idx < 0 || idx >= tab.Rows() {
					return nil, fmt.Errorf("core: index %d out of [0,%d)", idx, tab.Rows())
				}
				n := cold
				if region, slot := r.pl.Locate(op.Table, idx); region != RegionCold {
					loc, err := arch.Stripe(g, r.regionBanks[region], slot, r.bursts)
					if err != nil {
						return nil, err
					}
					n = [3]int{ranks + loc.Rank, bgs + g.FlatBG(loc), g.FlatBank(loc)}[region] // by region: R, G, B
				}
				node, perm = append(node, n), append(perm, k)
			}
			sort.SliceStable(perm, func(a, b int) bool { return node[perm[a]] < node[perm[b]] })

			// 2. Each node reduces its share through the layer's kernels.
			clear(full)
			part[summ] = make([]float32, r.vecLen) // the op's result: zero if it gathers nothing
			for lo := 0; lo < len(perm); {
				n := node[perm[lo]]
				sub = trace.Op{Table: op.Table, Kind: op.Kind, Indices: sub.Indices[:0], Weights: sub.Weights[:0]}
				for ; lo < len(perm) && node[perm[lo]] == n; lo++ {
					sub.Indices = append(sub.Indices, op.Indices[perm[lo]])
					if op.Kind == trace.WeightedSum {
						sub.Weights = append(sub.Weights, op.Weights[perm[lo]])
					}
				}
				if err := layer.ReduceInto(part[n], sub, &scr); err != nil {
					return nil, err
				}
				full[n] = true
			}

			// 3. Fold the partial sums up the tree in node order, skipping
			// empty nodes; max ops fold by max.
			fold := kernels.Add
			if op.Kind == trace.Max {
				fold = kernels.Max
			}
			into := func(dst, src int) {
				switch {
				case !full[src]:
				case full[dst]:
					fold(part[dst], part[src])
				default:
					copy(part[dst], part[src])
					full[dst] = true
				}
			}
			for fb := 0; fb < bgs; fb++ {
				into(bgs+fb/g.Banks, fb)
			}
			for bg := 0; bg < ranks-bgs; bg++ {
				into(ranks+bg/g.BankGroups, bgs+bg)
			}
			for n := ranks; n <= cold; n++ {
				into(summ, n)
			}
			out[si][oi] = part[summ]
		}
	}
	return out, nil
}
