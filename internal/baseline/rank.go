package baseline

import (
	"fmt"

	"recross/internal/arch"
	"recross/internal/cache"
	"recross/internal/dram"
	"recross/internal/trace"
)

// TensorDIMM is the rank-level NMP of Kwon et al. (MICRO'19): one PE per
// rank in the DIMM buffer, with *vertical* partitioning — every embedding
// vector is striped across all ranks, so each lookup activates every rank
// on a slice of the vector. Perfectly load-balanced by construction, but
// each lookup costs an activation in every rank.
type TensorDIMM struct{ base }

// NewTensorDIMM builds the architecture.
func NewTensorDIMM(cfg Config) (*TensorDIMM, error) {
	b, err := newBase(cfg, dram.NMPTwoStage, false)
	if err != nil {
		return nil, err
	}
	return &TensorDIMM{b}, nil
}

// Name implements arch.System.
func (t *TensorDIMM) Name() string { return "tensordimm" }

// Run implements arch.System.
func (t *TensorDIMM) Run(b trace.Batch) (*arch.RunStats, error) {
	ranks := t.geo.Ranks
	sliceBursts := t.lay.bursts / ranks
	err := t.pass.Gather(b, func(table int, idx int64) error {
		slot := t.lay.slot(table, idx)
		if sliceBursts < 1 {
			// Sub-burst vectors degrade to one rank per lookup.
			return t.read(t.rankBanks[slot%int64(ranks)], slot/int64(ranks), 1, dram.ToRankPE)
		}
		// One slice per rank, identical in-rank coordinates.
		for _, banks := range t.rankBanks {
			if err := t.read(banks, slot, sliceBursts, dram.ToRankPE); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Each op's result is the concatenation of the rank slices: one vector.
	return t.pass.Finish(arch.Tally{
		ResultBursts: int(t.pass.Ops) * t.lay.bursts,
		NodeLoads:    t.pass.Loads(dram.ToRankPE),
	})
}

// RecNMP is the rank-level NMP of Liu et al. (ISCA'20): one PE per rank,
// *horizontal* partitioning — each vector lives wholly in one rank — plus a
// 1 MB per-PE cache holding hot embedding vectors (§3.1, §5.1).
type RecNMP struct {
	base
	caches []*cache.Cache
	name   string
	// tree enables FAFNIR-style in-buffer reduction across ranks: the
	// per-rank partial sums fold in a rank reduction tree, so only one
	// result vector per op crosses the channel DQ.
	tree bool
}

// RecNMPCacheBytes is the per-rank-PE cache size the paper configures.
const RecNMPCacheBytes = 1 << 20

// NewRecNMP builds the architecture.
func NewRecNMP(cfg Config) (*RecNMP, error) {
	r, err := newRankNMP(cfg, "recnmp")
	if err != nil {
		return nil, err
	}
	line := uint64(r.lay.bursts * r.geo.BurstBytes)
	for i := 0; i < r.geo.Ranks; i++ {
		c, err := cache.New(RecNMPCacheBytes, line, 8)
		if err != nil {
			return nil, fmt.Errorf("baseline: recnmp cache: %w", err)
		}
		r.caches = append(r.caches, c)
	}
	return r, nil
}

// NewRankNMP builds a generic cache-less rank-level NMP (horizontal
// partitioning) — the "rank level" row of the paper's Figs. 4 and 5, which
// isolates raw memory-level parallelism from RecNMP's cache.
func NewRankNMP(cfg Config) (*RecNMP, error) { return newRankNMP(cfg, "rank-nmp") }

// NewFAFNIR builds the rank-reduction-tree NMP of Asgari et al. (HPCA'21,
// the paper's §6): rank-level PEs as in RecNMP (without its cache), plus an
// in-buffer tree that folds all rank partial sums, so a single result
// vector per op crosses the channel DQ regardless of the rank count.
func NewFAFNIR(cfg Config) (*RecNMP, error) {
	r, err := newRankNMP(cfg, "fafnir")
	if err != nil {
		return nil, err
	}
	r.tree = true
	return r, nil
}

func newRankNMP(cfg Config, name string) (*RecNMP, error) {
	b, err := newBase(cfg, dram.NMPTwoStage, false)
	if err != nil {
		return nil, err
	}
	return &RecNMP{base: b, name: name}, nil
}

// Name implements arch.System.
func (r *RecNMP) Name() string { return r.name }

// Run implements arch.System.
func (r *RecNMP) Run(b trace.Batch) (*arch.RunStats, error) {
	ranks := int64(r.geo.Ranks)
	vecBytes := uint64(r.lay.bursts * r.geo.BurstBytes)
	err := r.pass.Gather(b, func(table int, idx int64) error {
		slot := r.lay.slot(table, idx)
		rank := int(slot % ranks)
		if r.caches != nil && r.caches[rank].Access(uint64(slot)*vecBytes) {
			r.pass.Hit(rank) // served from the PE's local cache
			return nil
		}
		return r.read(r.rankBanks[rank], slot/ranks, r.lay.bursts, dram.ToRankPE)
	})
	if err != nil {
		return nil, err
	}
	// Each rank that contributed gathers flushes one partial sum per op;
	// the host (or FAFNIR's tree) folds them.
	psums := r.pass.RankPsums
	resultBursts := int(psums) * r.lay.bursts
	if r.tree {
		// The rank tree folds psums in the buffer: one result per op.
		resultBursts = int(r.pass.Ops) * r.lay.bursts
	}
	return r.pass.Finish(arch.Tally{
		ResultBursts: resultBursts,
		PsumFolds:    psums,
		NodeLoads:    r.pass.Loads(dram.ToRankPE),
		CacheNano:    peCacheHitNano,
	})
}
