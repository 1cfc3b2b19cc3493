// Package partition implements ReCross's software half (§4.3): statistical
// profiling of embedding tables, the bandwidth-aware partitioning (BWP)
// formulated as a linear program over piecewise-linearised access
// distributions, a crude capacity-driven partitioner used as the ablation
// baseline (Fig. 12), and the row-to-region placement with its index
// mapping table (§5.6).
package partition

import (
	"fmt"

	"recross/internal/lp"
	"recross/internal/nmp"
	"recross/internal/stats"
	"recross/internal/trace"
)

// Region describes one NMP memory region: the R-, G- or B-region of §4.1.
type Region struct {
	Name  string
	Level nmp.Level
	// CapBytes is the region's storage capacity.
	CapBytes int64
	// BW is the region's effective internal bandwidth in bytes per DRAM
	// cycle, estimated by the architecture layer from its node count and
	// per-node read cadence.
	BW float64
	// FixedCycles is per-batch bus time the region pays regardless of the
	// gather load it receives — chiefly partial-sum collection from
	// lower-level PEs sharing the region's data path (§3.3). The LP's
	// latency bound becomes load/BW + FixedCycles <= t.
	FixedCycles float64
	// Compression is the region's storage-precision ratio: fp32 row bytes
	// divided by encoded row bytes for rows resident in this region (e.g.
	// ~3.5 for int8 with its per-row header). It acts as a
	// capacity multiplier — the region holds Compression× more logical
	// fp32 bytes — and a bandwidth divisor on gathered load, because the
	// encoded bytes are what cross the region's data path. Zero means
	// uncompressed (fp32, ratio 1).
	Compression float64
}

// compression returns the effective precision ratio (zero ⇒ 1).
func (r Region) compression() float64 {
	if r.Compression <= 0 {
		return 1
	}
	return r.Compression
}

// Validate reports the first problem with the region.
func (r Region) Validate() error {
	if r.CapBytes < 0 {
		return fmt.Errorf("partition: region %q has negative capacity", r.Name)
	}
	if r.BW < 0 {
		return fmt.Errorf("partition: region %q has negative bandwidth", r.Name)
	}
	if r.FixedCycles < 0 {
		return fmt.Errorf("partition: region %q has negative fixed cycles", r.Name)
	}
	if r.Compression < 0 {
		return fmt.Errorf("partition: region %q has negative compression ratio", r.Name)
	}
	return nil
}

// Profile is the outcome of the offline training-phase statistics pass:
// per-table access histograms and cumulative-access curves.
type Profile struct {
	Spec  trace.ModelSpec
	Hists []*stats.Histogram
	CDFs  []*stats.CDF
}

// NewProfile runs a profiling pass of nSamples synthetic samples using a
// dedicated generator (seeded independently of the measured run, as the
// paper profiles on training data). The partitioner's curves use
// Good-Turing smoothing so the finite profile does not overstate head
// concentration (see stats.AccessCDFSmoothed).
func NewProfile(spec trace.ModelSpec, seed int64, nSamples int) (*Profile, error) {
	g, err := trace.NewGenerator(spec, seed)
	if err != nil {
		return nil, err
	}
	hists := CountDraws(g, nSamples)
	cdfs := make([]*stats.CDF, len(spec.Tables))
	for i, t := range spec.Tables {
		c, err := stats.AccessCDFSmoothed(hists[i], int(t.Rows))
		if err != nil {
			return nil, fmt.Errorf("partition: table %q: %w", t.Name, err)
		}
		cdfs[i] = c
	}
	return &Profile{Spec: spec, Hists: hists, CDFs: cdfs}, nil
}

// CountDraws draws nSamples samples from g and returns each of its
// tables' access histogram over them: the counting half of the offline
// profiling pass (the generator itself only draws). It counts ranks and
// maps each distinct rank to its row once; Scatter is a bijection, so
// the (row, count) pairs are those of counting rows.
func CountDraws(g *trace.Generator, nSamples int) []*stats.Histogram {
	c := newRankCounts(g.Spec())
	c.count(g, nil, nSamples)
	return c.histograms(g)
}

// denseRanks is how many of a table's hottest ranks a rankCounts counts
// in an array; the rest, a few percent of a Kaggle profile's draws, go to
// a map. Kaggle's 26 tables hold about 2.4 MiB of these counters.
const denseRanks = 1 << 15

// rankCounts holds one profiling pass's per-table rank counts.
type rankCounts []struct {
	dense []int64
	tail  map[int64]int64
}

func newRankCounts(spec trace.ModelSpec) rankCounts {
	c := make(rankCounts, len(spec.Tables))
	for i, t := range spec.Tables {
		c[i].dense = make([]int64, min(t.Rows, denseRanks))
		if t.Rows > denseRanks {
			c[i].tail = make(map[int64]int64)
		}
	}
	return c
}

// count draws nSamples samples' ranks into buf's storage, counting each,
// and returns the buffer for reuse: a warm buffer over counters that
// have seen every tail rank draws and counts without allocating.
func (c rankCounts) count(g *trace.Generator, buf trace.Sample, nSamples int) trace.Sample {
	for i := 0; i < nSamples; i++ {
		buf = g.RanksInto(buf)
		for _, op := range buf {
			t := &c[op.Table]
			for _, r := range op.Indices {
				if r < int64(len(t.dense)) {
					t.dense[r]++
				} else {
					t.tail[r]++
				}
			}
		}
	}
	return buf
}

// histograms builds each table's row histogram: one insert per distinct
// rank, at its row under g's scatter, into a presized map.
func (c rankCounts) histograms(g *trace.Generator) []*stats.Histogram {
	hists := make([]*stats.Histogram, len(c))
	for i, t := range c {
		distinct := len(t.tail)
		for _, n := range t.dense {
			if n > 0 {
				distinct++
			}
		}
		h, sc := stats.NewHistogramSize(distinct), g.Scatter(i)
		for r, n := range t.dense {
			if n > 0 {
				h.AddN(sc.Map(int64(r)), n)
			}
		}
		for r, n := range t.tail {
			h.AddN(sc.Map(r), n)
		}
		hists[i] = h
	}
	return hists
}

// segBounds are the row-fraction boundaries of the piecewise linearisation
// of each table's access CDF. The head is resolved geometrically because
// that is where the skew lives (Fig. 3).
var segBounds = []float64{0, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0}

// Segments returns len(segBounds)-1, the per-table segment count.
func Segments() int { return len(segBounds) - 1 }

// AccessVolumes returns each table's expected gathered bytes per batch —
// the cluster's hot-table ranking.
func AccessVolumes(spec trace.ModelSpec, batch int) []float64 {
	out := make([]float64, len(spec.Tables))
	for i, t := range spec.Tables {
		out[i] = t.Prob * float64(batch) * float64(t.Pooling) * float64(t.VecLen) * 4
	}
	return out
}

// segment describes one frequency-ranked slice of a table.
type segment struct {
	loFrac, hiFrac float64 // row-fraction boundaries (hottest first)
	accessShare    float64 // fraction of the table's accesses
	bytes          float64 // storage footprint
	rows           float64
}

// segmentsOf linearises table ti of the profile.
func (p *Profile) segmentsOf(ti int) []segment {
	t := p.Spec.Tables[ti]
	c := p.CDFs[ti]
	segs := make([]segment, 0, Segments())
	for s := 0; s < Segments(); s++ {
		lo, hi := segBounds[s], segBounds[s+1]
		rows := (hi - lo) * float64(t.Rows)
		if rows <= 0 {
			continue
		}
		segs = append(segs, segment{
			loFrac:      lo,
			hiFrac:      hi,
			accessShare: c.At(hi) - c.At(lo),
			bytes:       rows * float64(t.VecLen) * 4,
			rows:        rows,
		})
	}
	return segs
}

// tableAccessBytes returns the expected bytes gathered from table ti per
// batch of the given size: prob * batch * pooling * vector bytes.
func (p *Profile) tableAccessBytes(ti, batch int) float64 {
	t := p.Spec.Tables[ti]
	return float64(t.Prob * float64(batch) * float64(t.Pooling) * float64(t.VecLen) * 4)
}

// Decision is a partitioning of every table across the regions.
type Decision struct {
	Regions []Region
	// RowFrac[i][j] is the fraction of table i's rows in region j,
	// hottest-first: region assignment follows frequency rank order.
	// Within a table the regions are filled in the order of SegFrac.
	RowFrac [][]float64
	// SegFrac[i][s][j] is the fraction of segment s of table i assigned
	// to region j (sums to 1 over j).
	SegFrac [][][]float64
	// Load[j] is the estimated bytes gathered from region j per batch, in
	// the region's storage precision (logical fp32 bytes divided by the
	// region's compression ratio — encoded bytes are what move).
	Load []float64
	// T is the estimated batch latency bound max_j Load[j]/BW[j], the LP
	// objective of §4.3.
	T float64
}

// estimate fills Load and T from SegFrac.
func (d *Decision) estimate(p *Profile, batch int) {
	d.Load = make([]float64, len(d.Regions))
	for i := range p.Spec.Tables {
		vol := p.tableAccessBytes(i, batch)
		for s, seg := range p.segmentsOf(i) {
			for j := range d.Regions {
				d.Load[j] += seg.accessShare * vol * d.SegFrac[i][s][j] / d.Regions[j].compression()
			}
		}
	}
	d.T = 0
	for j, l := range d.Load {
		if d.Regions[j].BW <= 0 {
			continue
		}
		if t := l/d.Regions[j].BW + d.Regions[j].FixedCycles; t > d.T {
			d.T = t
		}
	}
}

// fillRowFrac derives per-table row fractions from segment assignments.
func (d *Decision) fillRowFrac(p *Profile) {
	d.RowFrac = make([][]float64, len(p.Spec.Tables))
	for i := range p.Spec.Tables {
		d.RowFrac[i] = make([]float64, len(d.Regions))
		for s, seg := range p.segmentsOf(i) {
			segRowFrac := seg.hiFrac - seg.loFrac
			for j := range d.Regions {
				d.RowFrac[i][j] += float64(segRowFrac * d.SegFrac[i][s][j])
			}
		}
	}
}

// SolveLP computes the bandwidth-aware partitioning: minimize the bound t
// on per-region access time subject to region capacities (Equ. 1-3 and the
// minimax objective of §4.3). It returns an error if the model does not fit
// in the combined capacity or the LP fails.
func SolveLP(p *Profile, regions []Region, batch int) (*Decision, error) {
	if err := validateInput(p, regions, batch); err != nil {
		return nil, err
	}
	nT := len(p.Spec.Tables)
	nR := len(regions)
	segs := make([][]segment, nT)
	nVars := 1 // t is variable 0
	idx := make([][]int, nT)
	for i := 0; i < nT; i++ {
		segs[i] = p.segmentsOf(i)
		idx[i] = make([]int, len(segs[i]))
		for s := range segs[i] {
			idx[i][s] = nVars
			nVars += nR
		}
	}
	prob, err := lp.NewProblem(nVars)
	if err != nil {
		return nil, err
	}
	obj := make([]float64, nVars)
	obj[0] = 1
	// Tie-break: among equal-t optima, prefer pushing access-heavy
	// segments toward the finer (higher-index) DRAM regions, where
	// row-buffer reuse and subarray parallelism pay off. Cold (flash)
	// regions are excluded from that preference and instead carry a tiny
	// per-byte cost, so the LP fills DRAM first and overflows to the cold
	// tier only when DRAM capacity binds. Both perturbations are scaled
	// well below the t term so they never trade real balance away.
	minBW := 0.0
	for _, r := range regions {
		if r.BW > 0 && (minBW == 0 || r.BW < minBW) {
			minBW = r.BW
		}
	}
	cold := make([]bool, nR)
	nDRAM := 0
	for j, r := range regions {
		cold[j] = r.Level == nmp.LevelCold
		if !cold[j] {
			nDRAM++
		}
	}
	if minBW > 0 {
		var totalVol float64
		for i := 0; i < nT; i++ {
			totalVol += p.tableAccessBytes(i, batch)
		}
		eps := 1e-6 * totalVol / minBW / float64(nT)
		totalBytes := float64(p.Spec.TotalBytes())
		for i := 0; i < nT; i++ {
			for s, sg := range segs[i] {
				rank := 0
				for j := 0; j < nR; j++ {
					if cold[j] {
						// Worse than any DRAM region for accessed mass,
						// and costs a sliver per byte so idle mass also
						// prefers DRAM while it fits.
						obj[idx[i][s]+j] += float64(eps * (float64(float64(nR)*sg.accessShare) + sg.bytes/totalBytes))
						continue
					}
					obj[idx[i][s]+j] += float64(eps * sg.accessShare * float64(nDRAM-1-rank))
					rank++
				}
			}
		}
	}
	if err := prob.SetObjective(obj); err != nil {
		return nil, err
	}

	// Assignment: each segment fully placed (Equ. 2).
	for i := 0; i < nT; i++ {
		for s := range segs[i] {
			row := make([]float64, nVars)
			for j := 0; j < nR; j++ {
				row[idx[i][s]+j] = 1
			}
			if err := prob.AddConstraint(row, lp.EQ, 1); err != nil {
				return nil, err
			}
		}
	}
	// Upper bounds x <= 1 are implied by the assignment equalities and
	// x >= 0 (Equ. 1).

	// Load and capacity per region (the minimax rows and Equ. 3).
	for j := 0; j < nR; j++ {
		load := make([]float64, nVars)
		capRow := make([]float64, nVars)
		for i := 0; i < nT; i++ {
			vol := p.tableAccessBytes(i, batch)
			for s, sg := range segs[i] {
				// Encoded bytes cross the region's path and occupy its
				// capacity: the precision ratio scales both down.
				load[idx[i][s]+j] = sg.accessShare * vol / regions[j].compression()
				capRow[idx[i][s]+j] = sg.bytes / regions[j].compression()
			}
		}
		if regions[j].BW > 0 {
			for k := range load {
				load[k] /= regions[j].BW
			}
			load[0] = -1
			if err := prob.AddConstraint(load, lp.LE, -regions[j].FixedCycles); err != nil {
				return nil, err
			}
		} else {
			// A region with no bandwidth cannot receive accessed data;
			// forbid placing anything with nonzero access share there.
			load[0] = 0
			if err := prob.AddConstraint(load, lp.LE, 0); err != nil {
				return nil, err
			}
		}
		if err := prob.AddConstraint(capRow, lp.LE, float64(regions[j].CapBytes)); err != nil {
			return nil, err
		}
	}

	sol := lp.Solve(prob)
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, fmt.Errorf("partition: model does not fit the regions (total %d bytes)", p.Spec.TotalBytes())
	default:
		return nil, fmt.Errorf("partition: LP solve failed: %v", sol.Status)
	}

	d := &Decision{Regions: regions, SegFrac: make([][][]float64, nT)}
	for i := 0; i < nT; i++ {
		d.SegFrac[i] = make([][]float64, len(segs[i]))
		for s := range segs[i] {
			d.SegFrac[i][s] = make([]float64, nR)
			for j := 0; j < nR; j++ {
				f := sol.X[idx[i][s]+j]
				if f < 0 {
					f = 0
				}
				if f > 1 {
					f = 1
				}
				d.SegFrac[i][s][j] = f
			}
		}
	}
	d.fillRowFrac(p)
	d.estimate(p, batch)
	return d, nil
}

// Greedy is the crude partitioner of the Fig. 12 ablation (ReCross-Base):
// it pours data hottest-first into the lowest (highest-parallelism) region
// until each region's capacity is exhausted, ignoring bandwidth balance.
// DRAM regions must be ordered R, G, B; filling proceeds B, G, R. Cold
// (flash) regions, wherever they appear, fill only after every DRAM
// region is exhausted — the crude partitioner still knows flash is slow.
func Greedy(p *Profile, regions []Region, batch int) (*Decision, error) {
	if err := validateInput(p, regions, batch); err != nil {
		return nil, err
	}
	nT := len(p.Spec.Tables)
	nR := len(regions)
	free := make([]float64, nR)
	for j, r := range regions {
		// Capacities in logical fp32 bytes: a compressed region holds
		// Compression× more of the model.
		free[j] = float64(r.CapBytes) * r.compression()
	}
	// Fill order: DRAM regions from the last backwards, then cold regions.
	order := make([]int, 0, nR)
	for j := nR - 1; j >= 0; j-- {
		if regions[j].Level != nmp.LevelCold {
			order = append(order, j)
		}
	}
	for j := 0; j < nR; j++ {
		if regions[j].Level == nmp.LevelCold {
			order = append(order, j)
		}
	}
	d := &Decision{Regions: regions, SegFrac: make([][][]float64, nT)}
	for i := 0; i < nT; i++ {
		segs := p.segmentsOf(i)
		d.SegFrac[i] = make([][]float64, len(segs))
		for s, sg := range segs {
			d.SegFrac[i][s] = make([]float64, nR)
			remaining := sg.bytes
			for _, j := range order {
				if remaining <= 1e-9 {
					break
				}
				take := remaining
				if take > free[j] {
					take = free[j]
				}
				if take <= 0 {
					continue
				}
				d.SegFrac[i][s][j] = take / sg.bytes
				free[j] -= take
				remaining -= take
			}
			if remaining > 1e-6 {
				return nil, fmt.Errorf("partition: greedy ran out of capacity for table %d", i)
			}
		}
	}
	d.fillRowFrac(p)
	d.estimate(p, batch)
	return d, nil
}

func validateInput(p *Profile, regions []Region, batch int) error {
	if p == nil || len(p.Spec.Tables) == 0 {
		return fmt.Errorf("partition: empty profile")
	}
	if len(regions) == 0 {
		return fmt.Errorf("partition: no regions")
	}
	if batch <= 0 {
		return fmt.Errorf("partition: batch must be positive, got %d", batch)
	}
	var totalCap float64
	for _, r := range regions {
		if err := r.Validate(); err != nil {
			return err
		}
		totalCap += float64(float64(r.CapBytes) * r.compression())
	}
	if totalCap < float64(p.Spec.TotalBytes()) {
		return fmt.Errorf("partition: model (%d bytes) exceeds total region capacity (%.0f)",
			p.Spec.TotalBytes(), totalCap)
	}
	return nil
}
