package partition

import (
	"fmt"

	"recross/internal/nmp"
)

// Placement realises a Decision: it assigns every embedding row of every
// table a (region, slot) pair, hot rows individually (via the per-table
// mapping table of §4.3) and the cold tail by deterministic hashing into
// reserved ranges. Slots are vector slots within a region's address space;
// the architecture layer turns them into DRAM locations.
//
// Placement requires a uniform vector length across tables (true of every
// workload in the paper's evaluation); mixed-dimension embeddings would
// need a per-node allocator and are out of scope. A Placement keeps the
// profile and decision it was built from and never changes after Build, so
// one instance is a whole plan, safe to share read-only across goroutines.
type Placement struct {
	prof     *Profile
	dec      *Decision
	vecBytes int64
	tables   []tablePlace
	// used[j] counts vector slots allocated in region j.
	used []int64
	// capSlots[j] is region j's capacity in vector slots.
	capSlots []int64
	// fillOrder lists region indices in placement-preference order for a
	// segment's fractional split: DRAM regions from the last (finest)
	// backwards, then cold regions. Hotter sub-slices take earlier entries,
	// so the cold tier always receives the coldest slice of a segment.
	fillOrder []int
}

type tablePlace struct {
	rows int64
	// rank maps an observed row index to its frequency rank (0 hottest).
	rank map[int64]int32
	// region[r] and slot[r] give the placement of observed rank r.
	region []uint8
	slot   []int64
	// cold ranges per region for the never-observed tail.
	coldBase  []int64
	coldCount []int64
	coldTotal int64
}

// Build materialises a placement for profile p under decision d.
func Build(p *Profile, d *Decision) (*Placement, error) {
	if len(p.Spec.Tables) != len(d.SegFrac) {
		return nil, fmt.Errorf("partition: decision covers %d tables, profile has %d", len(d.SegFrac), len(p.Spec.Tables))
	}
	vecLen := p.Spec.Tables[0].VecLen
	for _, t := range p.Spec.Tables {
		if t.VecLen != vecLen {
			return nil, fmt.Errorf("partition: mixed vector lengths (%d vs %d) not supported", t.VecLen, vecLen)
		}
	}
	vecBytes := int64(vecLen) * 4
	pl := &Placement{
		prof:     p,
		dec:      d,
		vecBytes: vecBytes,
		tables:   make([]tablePlace, len(p.Spec.Tables)),
		used:     make([]int64, len(d.Regions)),
		capSlots: make([]int64, len(d.Regions)),
	}
	for j, r := range d.Regions {
		// A compressed region stores its vectors encoded, so it holds
		// compression× more logical vector slots than CapBytes/vecBytes.
		pl.capSlots[j] = int64(float64(r.CapBytes) * r.compression() / float64(vecBytes))
	}
	for j := len(d.Regions) - 1; j >= 0; j-- {
		if d.Regions[j].Level != nmp.LevelCold {
			pl.fillOrder = append(pl.fillOrder, j)
		}
	}
	for j := range d.Regions {
		if d.Regions[j].Level == nmp.LevelCold {
			pl.fillOrder = append(pl.fillOrder, j)
		}
	}

	// Pass 1: observed (hot) rows, hottest region first within a segment.
	for i := range p.Spec.Tables {
		tp := &pl.tables[i]
		tp.rows = p.Spec.Tables[i].Rows
		hot := p.Hists[i].HotKeys(p.Hists[i].Distinct())
		tp.rank = make(map[int64]int32, len(hot))
		tp.region = make([]uint8, len(hot))
		tp.slot = make([]int64, len(hot))
		segs := p.segmentsOf(i)
		for r, row := range hot {
			tp.rank[row] = int32(r)
			frac := float64(r) / float64(tp.rows)
			j := pl.regionFor(d.SegFrac[i], segs, frac)
			j = pl.spill(j)
			tp.region[r] = uint8(j)
			tp.slot[r] = pl.used[j]
			pl.used[j]++
		}
	}

	// Pass 2: reserve cold ranges per table per region.
	for i := range p.Spec.Tables {
		tp := &pl.tables[i]
		nCold := tp.rows - int64(len(tp.rank))
		tp.coldBase = make([]int64, len(d.Regions))
		tp.coldCount = make([]int64, len(d.Regions))
		tp.coldTotal = nCold
		if nCold == 0 {
			continue
		}
		// Distribute the cold tail by the decision's row fractions, net of
		// rows already placed hot.
		counts := make([]int64, len(d.Regions))
		placedHot := make([]int64, len(d.Regions))
		for _, j := range tp.region {
			placedHot[j]++
		}
		var assigned int64
		for j := range d.Regions {
			want := int64(d.RowFrac[i][j]*float64(tp.rows)) - placedHot[j]
			if want < 0 {
				want = 0
			}
			counts[j] = want
			assigned += want
		}
		// Put any rounding remainder in the roomiest region.
		if rem := nCold - assigned; rem > 0 {
			best := 0
			for j := range d.Regions {
				if pl.capSlots[j]-pl.used[j]-counts[j] > pl.capSlots[best]-pl.used[best]-counts[best] {
					best = j
				}
			}
			counts[best] += rem
		} else if rem < 0 {
			// Trim the rounding excess from the first region able to
			// absorb it.
			for j := range counts {
				if counts[j] >= -rem {
					counts[j] += rem
					break
				}
			}
		}
		// Reconcile with remaining capacity: clamp each region to its free
		// slots and spill the overflow across whatever space is left —
		// tight fits (e.g. 1 KB vectors filling 97 % of the channel) must
		// still place.
		var overflow int64
		for j := range counts {
			avail := pl.capSlots[j] - pl.used[j]
			if counts[j] > avail {
				overflow += counts[j] - avail
				counts[j] = avail
			}
		}
		for j := range counts {
			if overflow == 0 {
				break
			}
			avail := pl.capSlots[j] - pl.used[j] - counts[j]
			if avail <= 0 {
				continue
			}
			take := overflow
			if take > avail {
				take = avail
			}
			counts[j] += take
			overflow -= take
		}
		if overflow > 0 {
			return nil, fmt.Errorf("partition: table %d cold tail (%d rows) does not fit", i, overflow)
		}
		for j, n := range counts {
			if n == 0 {
				continue
			}
			tp.coldBase[j] = pl.used[j]
			tp.coldCount[j] = n
			pl.used[j] += n
		}
	}
	return pl, nil
}

// regionFor picks the region of a row at row-fraction frac, walking the
// segment's fractional split in fillOrder — DRAM regions from the
// highest-parallelism (last) down, cold regions after all of them — so
// hotter sub-slices land lower in the tree and the cold tier gets only a
// segment's coldest slice.
func (pl *Placement) regionFor(segFrac [][]float64, segs []segment, frac float64) int {
	for s, sg := range segs {
		if frac >= sg.hiFrac && s != len(segs)-1 {
			continue
		}
		// Position within the segment in [0,1).
		pos := 0.0
		if sg.hiFrac > sg.loFrac {
			pos = (frac - sg.loFrac) / (sg.hiFrac - sg.loFrac)
		}
		if pos < 0 {
			pos = 0
		}
		if pos >= 1 {
			pos = 0.999999
		}
		cum := 0.0
		for _, j := range pl.fillOrder {
			cum += segFrac[s][j]
			if pos < cum {
				return j
			}
		}
		return pl.fillOrder[len(pl.fillOrder)-1]
	}
	return 0
}

// spill returns j if it has room, otherwise the roomiest region.
func (pl *Placement) spill(j int) int {
	if pl.used[j] < pl.capSlots[j] {
		return j
	}
	return pl.roomiest()
}

func (pl *Placement) roomiest() int {
	best := 0
	for j := range pl.used {
		if pl.capSlots[j]-pl.used[j] > pl.capSlots[best]-pl.used[best] {
			best = j
		}
	}
	return best
}

// Locate returns the (region, vector slot) of a row. Hot rows resolve via
// the mapping table; cold rows hash into their table's reserved ranges
// (collisions there alias physical slots, which is harmless for rows that
// are essentially never accessed).
func (pl *Placement) Locate(table int, row int64) (region int, slot int64) {
	tp := &pl.tables[table]
	if r, ok := tp.rank[row]; ok {
		return int(tp.region[r]), tp.slot[r]
	}
	// Cold row: deterministic hash across the reserved ranges.
	h := hash64(uint64(row)*0x9E3779B97F4A7C15 + uint64(table) + 1)
	var total int64
	for _, n := range tp.coldCount {
		total += n
	}
	if total == 0 {
		// Degenerate: everything was observed; reuse the coldest slot.
		return int(tp.region[len(tp.region)-1]), tp.slot[len(tp.slot)-1]
	}
	pick := int64(h % uint64(total))
	for j, n := range tp.coldCount {
		if pick < n {
			return j, tp.coldBase[j] + pick
		}
		pick -= n
	}
	panic("partition: unreachable cold pick")
}

// Regions returns the placement's regions.
func (pl *Placement) Regions() []Region { return pl.dec.Regions }

// Profile returns the profile the placement was built from.
func (pl *Placement) Profile() *Profile { return pl.prof }

// Decision returns the partitioning the placement realises.
func (pl *Placement) Decision() *Decision { return pl.dec }

// VecBytes returns the uniform vector size in bytes.
func (pl *Placement) VecBytes() int64 { return pl.vecBytes }

// UsedSlots returns the allocated vector slots per region.
func (pl *Placement) UsedSlots() []int64 {
	out := make([]int64, len(pl.used))
	copy(out, pl.used)
	return out
}

// MappingBits returns the size of the index-to-address mapping tables in
// bits: 34 bits per embedding row (§5.6).
func (pl *Placement) MappingBits() int64 {
	var rows int64
	for i := range pl.tables {
		rows += pl.tables[i].rows
	}
	return rows * 34
}

func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}
