package arch

import (
	"fmt"
	"sync"

	"recross/internal/stats"
	"recross/internal/trace"
)

// MultiChannel shards an embedding model across several independent memory
// channels — the standard production deployment (each channel has its own
// controller, DIMM, and in the NMP designs its own PEs). Tables are
// distributed round-robin; each channel runs its own System instance over
// its sub-model, channels execute concurrently, and a batch finishes when
// the slowest channel does.
type MultiChannel struct {
	name     string
	spec     trace.ModelSpec
	systems  []System
	shardOf  []int // table -> channel
	tableIdx []int // table -> index within its channel's sub-spec

	// Run scratch, reused across batches under the single-goroutine
	// System contract (each channel's goroutine touches only its own
	// sub-System and result slot).
	shards  []trace.Batch
	results []*RunStats
	errs    []error
}

// NewMultiChannel builds `channels` instances via the build callback, each
// over its round-robin shard of spec's tables.
func NewMultiChannel(spec trace.ModelSpec, channels int, build func(sub trace.ModelSpec) (System, error)) (*MultiChannel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if channels <= 0 {
		return nil, fmt.Errorf("arch: channel count must be positive, got %d", channels)
	}
	if channels > len(spec.Tables) {
		return nil, fmt.Errorf("arch: %d channels for %d tables", channels, len(spec.Tables))
	}
	m := &MultiChannel{
		spec:     spec,
		shardOf:  make([]int, len(spec.Tables)),
		tableIdx: make([]int, len(spec.Tables)),
	}
	subs := make([]trace.ModelSpec, channels)
	for c := range subs {
		subs[c].Name = fmt.Sprintf("%s/ch%d", spec.Name, c)
	}
	for i, t := range spec.Tables {
		c := i % channels
		m.shardOf[i] = c
		m.tableIdx[i] = len(subs[c].Tables)
		// Keep the table's own name so its popularity permutation (seeded
		// from model+table identity) matches single-channel runs.
		subs[c].Tables = append(subs[c].Tables, t)
	}
	for c := range subs {
		sys, err := build(subs[c])
		if err != nil {
			return nil, fmt.Errorf("arch: channel %d: %w", c, err)
		}
		m.systems = append(m.systems, sys)
		if c == 0 {
			m.name = sys.Name() + "-multichannel"
		}
	}
	return m, nil
}

// Channels returns the channel count.
func (m *MultiChannel) Channels() int { return len(m.systems) }

// Name implements System.
func (m *MultiChannel) Name() string { return m.name }

// Run implements System: the batch's ops are routed to their tables'
// channels (with table indices remapped into each sub-spec), the channels
// run concurrently, and their stats merge (see add).
func (m *MultiChannel) Run(b trace.Batch) (*RunStats, error) {
	if m.shards == nil {
		m.shards = make([]trace.Batch, len(m.systems))
		m.results = make([]*RunStats, len(m.systems))
		m.errs = make([]error, len(m.systems))
	}
	shards := m.shards
	for c := range shards {
		if cap(shards[c]) < len(b) {
			grown := make(trace.Batch, len(b))
			copy(grown, shards[c])
			shards[c] = grown
		}
		shards[c] = shards[c][:len(b)]
		for si := range shards[c] {
			shards[c][si] = shards[c][si][:0]
		}
	}
	for si, s := range b {
		for _, op := range s {
			if op.Table < 0 || op.Table >= len(m.shardOf) {
				return nil, fmt.Errorf("arch: op table %d out of range", op.Table)
			}
			c := m.shardOf[op.Table]
			local := op
			local.Table = m.tableIdx[op.Table]
			shards[c][si] = append(shards[c][si], local)
		}
	}

	m.dispatch(shards)
	for c, err := range m.errs {
		if err != nil {
			return nil, fmt.Errorf("arch: channel %d: %w", c, err)
		}
	}
	out := &RunStats{}
	for _, rs := range m.results {
		out.add(rs)
	}
	out.Imbalance = stats.ImbalanceRatio(out.NodeLoads)
	return out, nil
}

// add folds one channel's stats into a multi-channel total. Counters sum
// and NodeLoads concatenate in channel order; Cycles, ColdCycles, the
// other bound terms and every consumer's finish take the slowest channel,
// since channels run concurrently. Bound is the slowest channel's (the
// first such channel on a tie). OpP50 and OpP99 are per channel and are
// not merged.
func (s *RunStats) add(o *RunStats) {
	if s.Bound == "" || o.Cycles > s.Cycles {
		s.Bound = o.Bound
	}
	s.Cycles = max(s.Cycles, o.Cycles)
	s.ColdCycles = max(s.ColdCycles, o.ColdCycles)
	s.Drain = max(s.Drain, o.Drain)
	s.BusFloor = max(s.BusFloor, o.BusFloor)
	for c, f := range o.Finish {
		s.Finish[c] = max(s.Finish[c], f)
	}
	d, od := &s.DRAM, &o.DRAM
	d.ACTs += od.ACTs
	d.PREs += od.PREs
	d.RDs += od.RDs
	d.WRs += od.WRs
	d.BurstsToHost += od.BurstsToHost
	d.BurstsToRank += od.BurstsToRank
	d.BurstsToBG += od.BurstsToBG
	d.BurstsToBank += od.BurstsToBank
	d.HostResultTx += od.HostResultTx
	d.SubarraySwitch += od.SubarraySwitch
	s.Ops.Add(o.Ops)
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.Lookups += o.Lookups
	s.CacheHits += o.CacheHits
	s.NodeLoads = append(s.NodeLoads, o.NodeLoads...)
	e, oe := &s.Energy, &o.Energy
	e.ACT += oe.ACT
	e.RD += oe.RD
	e.IO += oe.IO
	e.PE += oe.PE
	e.Static += oe.Static
	e.Cache += oe.Cache
	s.ColdLookups += o.ColdLookups
	s.ColdPageReads += o.ColdPageReads
	s.ColdPageHits += o.ColdPageHits
}

// dispatch fans the pre-routed shards out to the channels and waits for
// the slowest: shards 1..n-1 each run on a goroutine started for this
// batch, shard 0 on the calling goroutine (which would only park
// otherwise — and a single-channel instance then starts none). Every
// goroutine has returned when dispatch does, so an instance that is
// dropped leaves nothing running. Results and errors land in m.results /
// m.errs.
func (m *MultiChannel) dispatch(shards []trace.Batch) {
	var wg sync.WaitGroup
	wg.Add(len(m.systems) - 1)
	for c := 1; c < len(m.systems); c++ {
		go func() {
			defer wg.Done()
			m.results[c], m.errs[c] = m.systems[c].Run(shards[c])
		}()
	}
	m.results[0], m.errs[0] = m.systems[0].Run(shards[0])
	wg.Wait()
}
