package baseline

import (
	"recross/internal/arch"
	"recross/internal/cache"
	"recross/internal/dram"
	"recross/internal/trace"
)

// CPU is the conventional baseline: a 16-core processor with a 32 MB LLC
// performing all embedding gathers and reductions itself (Table 2). Every
// gathered vector that misses the LLC crosses the channel DQ, which is what
// makes the embedding layer memory-bound (§2.1).
type CPU struct {
	base
	llc *cache.Cache
}

// LLCBytes is the baseline's last-level cache capacity (Table 2).
const LLCBytes = 32 << 20

// NewCPU builds the CPU baseline.
func NewCPU(cfg Config) (*CPU, error) {
	b, err := newBase(cfg, dram.Conventional, false)
	if err != nil {
		return nil, err
	}
	// Tag the LLC at vector granularity: one line per embedding vector.
	// (The real 64 B-line LLC either hits or misses a whole streamed
	// vector in practice; vector-granularity tags model that cheaply.)
	llc, err := cache.New(LLCBytes, uint64(b.lay.bursts*b.geo.BurstBytes), 16)
	if err != nil {
		return nil, err
	}
	return &CPU{base: b, llc: llc}, nil
}

// Name implements arch.System.
func (c *CPU) Name() string { return "cpu" }

// Run implements arch.System.
func (c *CPU) Run(b trace.Batch) (*arch.RunStats, error) {
	vecBytes := uint64(c.lay.bursts * c.geo.BurstBytes)
	err := c.pass.Gather(b, func(table int, idx int64) error {
		slot := c.lay.slot(table, idx)
		if c.llc.Access(uint64(slot) * vecBytes) {
			c.pass.Hit(-1)
			return nil
		}
		return c.read(c.banks, slot, c.lay.bursts, dram.ToHost)
	})
	if err != nil {
		return nil, err
	}
	// No result transfer: the reduced outputs are produced on the CPU.
	return c.pass.Finish(arch.Tally{NodeLoads: c.pass.Loads(dram.ToHost), CacheNano: llcHitNano})
}
