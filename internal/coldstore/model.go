package coldstore

import (
	"recross/internal/cache"
	"recross/internal/sim"
)

// Model is the cold tier's latency/bandwidth timing model, in DRAM cycles
// (the simulator's single clock). DefaultModel approximates a modern NVMe
// flash device against a ~1.5 GHz DRAM command clock: a ~25 us page read
// is tens of thousands of DRAM cycles, so the LP prices the cold region
// two to three orders of magnitude below the DRAM regions and sends only
// essentially-unaccessed mass there.
type Model struct {
	// SeekCycles is the per-page-read command overhead (channel
	// arbitration, die addressing).
	SeekCycles float64
	// PageReadCycles is the cell-to-buffer sensing time per page.
	PageReadCycles float64
	// Channels is the number of independent flash channels reading pages
	// in parallel.
	Channels int
	// LinkBytesPerCycle is the host link bandwidth (bytes per DRAM cycle).
	LinkBytesPerCycle float64
	// ReduceCyclesPerRow is the in-storage accumulator's per-row cost when
	// in-storage reduction is on.
	ReduceCyclesPerRow float64
	// ISRTransferGain is the modeled link-transfer compression of
	// in-storage reduction: instead of every gathered row, one partial
	// sum per op crosses the link, so the effective link bandwidth for LP
	// pricing scales by the expected gather-to-transfer ratio.
	ISRTransferGain float64
	// CachePages is the per-replica device page-buffer capacity the
	// timing Sim models (a deterministic CLOCK set, independent of the
	// shared functional Store's host cache).
	CachePages int
}

// DefaultModel returns the cold-device model every cold tier is priced
// and timed with.
func DefaultModel() Model {
	return Model{
		SeekCycles:         4_000,
		PageReadCycles:     36_000,
		Channels:           8,
		LinkBytesPerCycle:  4,
		ReduceCyclesPerRow: 64,
		ISRTransferGain:    8,
		CachePages:         64,
	}
}

// EffectiveBW estimates the cold region's sustainable gather bandwidth in
// bytes per DRAM cycle for LP pricing: the worst-case (one wanted vector
// per page read) device rate across the parallel channels, capped by the
// host link. In-storage reduction adds the device accumulate cost but
// multiplies the effective link rate by the transfer gain.
func (m Model) EffectiveBW(vecBytes int, inStorageReduce bool) float64 {
	perRow := m.SeekCycles + m.PageReadCycles
	if inStorageReduce {
		perRow += m.ReduceCyclesPerRow
	}
	dev := float64(m.Channels) * float64(vecBytes) / perRow
	link := m.LinkBytesPerCycle
	if inStorageReduce {
		link *= m.ISRTransferGain
	}
	if dev < link {
		return dev
	}
	return link
}

// Sim is the per-replica cold-tier timing model: a deterministic CLOCK
// page-buffer over placement slots plus the seek/read/link accounting.
// Like every timing simulator in the tree it is single-goroutine — one Sim
// per ReCross replica, owned by that replica's worker.
type Sim struct {
	m        Model
	vecBytes int
	rpp      int // rows (vector slots) per page
	isr      bool

	buffer *cache.Clock[int64] // CLOCK page buffer keyed by page id
}

// NewSim builds a replica's cold timing model over cfg's page size and
// in-storage reduction; vecBytes is one row's size on the device.
func NewSim(cfg Config, vecBytes int) *Sim {
	cfg = cfg.withDefaults()
	rpp := cfg.PageBytes / vecBytes
	if rpp < 1 {
		rpp = 1
	}
	m := DefaultModel()
	return &Sim{
		m:        m,
		vecBytes: vecBytes,
		rpp:      rpp,
		isr:      cfg.InStorageReduce,
		buffer:   cache.NewClock[int64](m.CachePages),
	}
}

// touch probes the page buffer, installing on miss; reports a hit.
func (s *Sim) touch(page int64) bool {
	if f, ok := s.buffer.Lookup(page); ok {
		s.buffer.Touch(f)
		return true
	}
	s.buffer.Insert(page)
	return false
}

// Batch prices one batch's cold gathers: slots are the placement vector
// slots of every cold lookup, ops the number of embedding operations that
// touched the cold tier. The returned latency overlaps the DRAM phase
// (cold reads start with the batch); device time across the channels and
// link transfer overlap each other, so the bound is their max.
func (s *Sim) Batch(slots []int64, ops int) (cycles sim.Cycle, pageReads, pageHits int64) {
	if len(slots) == 0 {
		return 0, 0, 0
	}
	var misses int64
	for _, slot := range slots {
		if s.touch(slot / int64(s.rpp)) {
			pageHits++
		} else {
			misses++
		}
	}
	pageReads = misses

	device := float64(float64(misses) * (s.m.SeekCycles + s.m.PageReadCycles))
	transferRows := len(slots)
	if s.isr {
		device += float64(float64(len(slots)) * s.m.ReduceCyclesPerRow)
		transferRows = ops
	}
	device /= float64(s.m.Channels)
	link := float64(transferRows*s.vecBytes) / s.m.LinkBytesPerCycle
	t := device
	if link > t {
		t = link
	}
	return sim.Cycle(t), pageReads, pageHits
}
