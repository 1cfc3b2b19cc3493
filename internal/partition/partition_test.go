package partition

import (
	"math"
	"testing"

	"recross/internal/nmp"
	"recross/internal/trace"
)

// testRegions returns an R/G/B region triple sized to hold spec with the
// paper's default 16:12:4 capacity ratio and bandwidths growing toward B.
func testRegions(total int64) []Region {
	scaled := total * 3 / 2 // headroom
	return []Region{
		{Name: "R", Level: nmp.LevelRank, CapBytes: scaled * 16 / 32, BW: 8},
		{Name: "G", Level: nmp.LevelBankGroup, CapBytes: scaled * 12 / 32, BW: 40},
		{Name: "B", Level: nmp.LevelBank, CapBytes: scaled * 4 / 32, BW: 120},
	}
}

func smallProfile(t *testing.T) *Profile {
	t.Helper()
	spec := trace.ModelSpec{Name: "t", Tables: []trace.TableSpec{
		{Name: "hot", Rows: 50000, VecLen: 16, Pooling: 8, Prob: 1, Skew: 1.2},
		{Name: "mild", Rows: 20000, VecLen: 16, Pooling: 8, Prob: 1, Skew: 0.6},
		{Name: "flat", Rows: 10000, VecLen: 16, Pooling: 8, Prob: 1, Skew: 0},
	}}
	p, err := NewProfile(spec, 7, 800)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfileCapturesSkew(t *testing.T) {
	p := smallProfile(t)
	hotCov := p.CDFs[0].At(0.01)
	flatCov := p.CDFs[2].At(0.01)
	if hotCov <= flatCov {
		t.Fatalf("skewed table head coverage %.3f <= flat %.3f", hotCov, flatCov)
	}
	if hotCov < 0.3 {
		t.Fatalf("skew-1.2 head coverage %.3f, want > 0.3", hotCov)
	}
}

func TestSegmentsCoverTableExactly(t *testing.T) {
	p := smallProfile(t)
	for i, tab := range p.Spec.Tables {
		segs := p.segmentsOf(i)
		var rows, share float64
		for _, s := range segs {
			rows += s.rows
			share += s.accessShare
		}
		if math.Abs(rows-float64(tab.Rows)) > 1 {
			t.Fatalf("table %d: segment rows %.1f != %d", i, rows, tab.Rows)
		}
		if math.Abs(share-1) > 1e-6 {
			t.Fatalf("table %d: access shares sum to %g", i, share)
		}
	}
}

func TestSolveLPProducesValidDecision(t *testing.T) {
	p := smallProfile(t)
	regions := testRegions(p.Spec.TotalBytes())
	d, err := SolveLP(p, regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	checkDecision(t, p, d)
	if d.T <= 0 {
		t.Fatal("LP estimate T should be positive")
	}
}

func TestLPBeatsGreedyOnEstimate(t *testing.T) {
	p := smallProfile(t)
	regions := testRegions(p.Spec.TotalBytes())
	lpDec, err := SolveLP(p, regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Greedy(p, regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	if lpDec.T > gr.T+1e-9 {
		t.Fatalf("LP estimate %.2f worse than greedy %.2f", lpDec.T, gr.T)
	}
}

// TestParitySweepLPvsGreedy sweeps profiling seeds × batch sizes ×
// workload skews and asserts, at every point, that (a) both partitioners
// produce valid placements — segment and row fractions sum to 1,
// capacities respected — and (b) the crude partitioner never beats the
// LP on its own objective, the estimated latency bound T. The LP's
// optimality must not depend on a particular profile draw.
func TestParitySweepLPvsGreedy(t *testing.T) {
	seeds := []int64{1, 7, 29, 101}
	batches := []int{8, 32, 128}
	skews := [][2]float64{{1.2, 0.6}, {0.9, 0.9}, {1.4, 0.2}}
	for _, seed := range seeds {
		for _, sk := range skews {
			spec := trace.ModelSpec{Name: "parity", Tables: []trace.TableSpec{
				{Name: "a", Rows: 40000, VecLen: 16, Pooling: 8, Prob: 1, Skew: sk[0]},
				{Name: "b", Rows: 15000, VecLen: 16, Pooling: 4, Prob: 1, Skew: sk[1]},
			}}
			p, err := NewProfile(spec, seed, 600)
			if err != nil {
				t.Fatal(err)
			}
			regions := testRegions(spec.TotalBytes())
			for _, batch := range batches {
				lpDec, err := SolveLP(p, regions, batch)
				if err != nil {
					t.Fatalf("seed %d skew %v batch %d: LP: %v", seed, sk, batch, err)
				}
				gr, err := Greedy(p, regions, batch)
				if err != nil {
					t.Fatalf("seed %d skew %v batch %d: greedy: %v", seed, sk, batch, err)
				}
				checkDecision(t, p, lpDec)
				checkDecision(t, p, gr)
				if lpDec.T > gr.T*(1+1e-9) {
					t.Fatalf("seed %d skew %v batch %d: LP T %.2f beaten by greedy %.2f",
						seed, sk, batch, lpDec.T, gr.T)
				}
			}
		}
	}
}

func TestLPBalancesLoadAcrossRegions(t *testing.T) {
	p := smallProfile(t)
	regions := testRegions(p.Spec.TotalBytes())
	d, err := SolveLP(p, regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	// With ample capacity, at least two regions should carry meaningful
	// load (the whole point of cross-level NMP), and per-region times
	// should be within a modest factor of each other.
	times := make([]float64, 0, 3)
	for j, l := range d.Load {
		if regions[j].BW > 0 && l > 0 {
			times = append(times, l/regions[j].BW)
		}
	}
	if len(times) < 2 {
		t.Fatalf("LP used %d regions, want >= 2 (loads %v)", len(times), d.Load)
	}
}

func TestGreedyFillsHotRegionFirst(t *testing.T) {
	p := smallProfile(t)
	regions := testRegions(p.Spec.TotalBytes())
	d, err := Greedy(p, regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	checkDecision(t, p, d)
	// Greedy pours into B until full: B should be at (near) capacity.
	var bBytes float64
	for i := range p.Spec.Tables {
		for s, sg := range p.segmentsOf(i) {
			bBytes += sg.bytes * d.SegFrac[i][s][2]
		}
	}
	if bBytes < float64(regions[2].CapBytes)*0.95 {
		t.Fatalf("greedy left B-region underfilled: %.0f of %d", bBytes, regions[2].CapBytes)
	}
}

func TestCapacityInfeasibility(t *testing.T) {
	p := smallProfile(t)
	tiny := []Region{{Name: "R", CapBytes: 100, BW: 1}}
	if _, err := SolveLP(p, tiny, 32); err == nil {
		t.Fatal("undersized regions should error")
	}
	if _, err := Greedy(p, tiny, 32); err == nil {
		t.Fatal("greedy with undersized regions should error")
	}
}

func TestValidateInputs(t *testing.T) {
	p := smallProfile(t)
	regions := testRegions(p.Spec.TotalBytes())
	if _, err := SolveLP(nil, regions, 32); err == nil {
		t.Error("nil profile should error")
	}
	if _, err := SolveLP(p, nil, 32); err == nil {
		t.Error("no regions should error")
	}
	if _, err := SolveLP(p, regions, 0); err == nil {
		t.Error("zero batch should error")
	}
	bad := testRegions(p.Spec.TotalBytes())
	bad[0].BW = -1
	if _, err := SolveLP(p, bad, 32); err == nil {
		t.Error("negative bandwidth should error")
	}
}

// checkDecision verifies the structural invariants of any decision:
// segment fractions sum to 1, row fractions sum to 1 per table, and
// capacity constraints hold.
func checkDecision(t *testing.T, p *Profile, d *Decision) {
	t.Helper()
	capUsed := make([]float64, len(d.Regions))
	for i := range p.Spec.Tables {
		rowSum := 0.0
		for j := range d.Regions {
			rowSum += d.RowFrac[i][j]
		}
		if math.Abs(rowSum-1) > 1e-6 {
			t.Fatalf("table %d row fractions sum to %g", i, rowSum)
		}
		for s, sg := range p.segmentsOf(i) {
			sum := 0.0
			for j := range d.Regions {
				f := d.SegFrac[i][s][j]
				if f < -1e-9 || f > 1+1e-9 {
					t.Fatalf("table %d seg %d region %d fraction %g out of [0,1]", i, s, j, f)
				}
				sum += f
				capUsed[j] += f * sg.bytes
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("table %d seg %d fractions sum to %g", i, s, sum)
			}
		}
	}
	for j, r := range d.Regions {
		if capUsed[j] > float64(r.CapBytes)*(1+1e-6) {
			t.Fatalf("region %s over capacity: %.0f > %d", r.Name, capUsed[j], r.CapBytes)
		}
	}
}

func TestPlacementLocateConsistency(t *testing.T) {
	p := smallProfile(t)
	regions := testRegions(p.Spec.TotalBytes())
	d, err := SolveLP(p, regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Build(p, d)
	if err != nil {
		t.Fatal(err)
	}
	// Locate is deterministic and in-range for every row (hot and cold).
	for ti, tab := range p.Spec.Tables {
		step := tab.Rows / 997
		if step == 0 {
			step = 1
		}
		for row := int64(0); row < tab.Rows; row += step {
			r1, s1 := pl.Locate(ti, row)
			r2, s2 := pl.Locate(ti, row)
			if r1 != r2 || s1 != s2 {
				t.Fatalf("Locate(%d,%d) nondeterministic", ti, row)
			}
			if r1 < 0 || r1 >= len(regions) {
				t.Fatalf("region %d out of range", r1)
			}
			if s1 < 0 || s1 >= regions[r1].CapBytes/pl.VecBytes() {
				t.Fatalf("slot %d exceeds region %d capacity", s1, r1)
			}
		}
	}
}

func TestPlacementHotRowsGoLow(t *testing.T) {
	p := smallProfile(t)
	regions := testRegions(p.Spec.TotalBytes())
	d, err := SolveLP(p, regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Build(p, d)
	if err != nil {
		t.Fatal(err)
	}
	// Weighted by access frequency, the average region level of the skewed
	// table's accesses should lean lower (toward B = index 2) than its
	// uniform share of rows would suggest.
	hist := p.Hists[0]
	var accWeighted, rowFracB float64
	var total int64
	for _, row := range hist.HotKeys(hist.Distinct()) {
		r, _ := pl.Locate(0, row)
		c := hist.Count(row)
		if r == 2 {
			accWeighted += float64(c)
		}
		total += c
	}
	accB := accWeighted / float64(total)
	rowFracB = d.RowFrac[0][2]
	if accB < rowFracB {
		t.Fatalf("B-region access share %.3f < row share %.3f: hot rows not prioritized", accB, rowFracB)
	}
}

func TestPlacementUniqueHotSlots(t *testing.T) {
	p := smallProfile(t)
	regions := testRegions(p.Spec.TotalBytes())
	d, err := Greedy(p, regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Build(p, d)
	if err != nil {
		t.Fatal(err)
	}
	// No two observed (hot) rows may share a physical slot.
	seen := map[[2]int64]bool{}
	for ti := range p.Spec.Tables {
		h := p.Hists[ti]
		for _, row := range h.HotKeys(h.Distinct()) {
			r, s := pl.Locate(ti, row)
			key := [2]int64{int64(r), s}
			if seen[key] {
				t.Fatalf("slot collision at region %d slot %d", r, s)
			}
			seen[key] = true
		}
	}
}

func TestPlacementMixedVecLenRejected(t *testing.T) {
	spec := trace.ModelSpec{Name: "m", Tables: []trace.TableSpec{
		{Name: "a", Rows: 100, VecLen: 16, Pooling: 2, Prob: 1, Skew: 1},
		{Name: "b", Rows: 100, VecLen: 32, Pooling: 2, Prob: 1, Skew: 1},
	}}
	p, err := NewProfile(spec, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	regions := testRegions(p.Spec.TotalBytes())
	d, err := Greedy(p, regions, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(p, d); err == nil {
		t.Fatal("mixed vector lengths should be rejected")
	}
}

func TestMappingBits(t *testing.T) {
	p := smallProfile(t)
	regions := testRegions(p.Spec.TotalBytes())
	d, _ := Greedy(p, regions, 32)
	pl, err := Build(p, d)
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	for _, tab := range p.Spec.Tables {
		rows += tab.Rows
	}
	if pl.MappingBits() != rows*34 {
		t.Fatalf("mapping bits = %d, want %d", pl.MappingBits(), rows*34)
	}
	// The paper claims < 4% of model size; with 16-element (64 B) vectors
	// 34 bits is ~6.6%, with 128 B vectors it is under 4%. Sanity: ratio
	// is below 10% here.
	ratio := float64(pl.MappingBits()/8) / float64(p.Spec.TotalBytes())
	if ratio > 0.10 {
		t.Fatalf("mapping overhead ratio %.3f implausibly high", ratio)
	}
}

func TestCriteoScaleLPSolvable(t *testing.T) {
	if testing.Short() {
		t.Skip("criteo-scale LP in short mode")
	}
	spec := trace.CriteoKaggle(64, 80)
	p, err := NewProfile(spec, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	regions := testRegions(spec.TotalBytes())
	d, err := SolveLP(p, regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	checkDecision(t, p, d)
}

// TestCompressionCapacityMultiplier checks a compressed region admits a
// model that would not fit uncompressed, in both partitioners.
func TestCompressionCapacityMultiplier(t *testing.T) {
	p := smallProfile(t)
	total := p.Spec.TotalBytes()
	// One region at 40% of the model's fp32 bytes: infeasible at fp32,
	// feasible once 4x compression multiplies its capacity.
	tight := []Region{{Name: "R", Level: nmp.LevelRank, CapBytes: total * 2 / 5, BW: 8}}
	if _, err := SolveLP(p, tight, 256); err == nil {
		t.Fatal("fp32 solve fit a region holding 40% of the model")
	}
	tight[0].Compression = 4
	if _, err := SolveLP(p, tight, 256); err != nil {
		t.Fatalf("compressed solve: %v", err)
	}
	if _, err := Greedy(p, tight, 256); err != nil {
		t.Fatalf("compressed greedy: %v", err)
	}
	pl, err := Build(p, mustSolve(t, p, tight, 256))
	if err != nil {
		t.Fatalf("compressed placement: %v", err)
	}
	if slots, want := pl.capSlots[0], tight[0].CapBytes*4/64; slots != want {
		t.Fatalf("compressed capSlots %d, want %d (4x the fp32 slot count)", slots, want)
	}
}

func mustSolve(t *testing.T, p *Profile, regions []Region, batch int) *Decision {
	t.Helper()
	d, err := SolveLP(p, regions, batch)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCompressionBandwidthDivisor checks gathered load is priced in
// encoded bytes: compressing a region divides its load and hence the
// latency bound.
func TestCompressionBandwidthDivisor(t *testing.T) {
	p := smallProfile(t)
	one := []Region{{Name: "R", Level: nmp.LevelRank, CapBytes: p.Spec.TotalBytes() * 2, BW: 8}}
	base, err := SolveLP(p, one, 256)
	if err != nil {
		t.Fatal(err)
	}
	one[0].Compression = 2
	half, err := SolveLP(p, one, 256)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(half.T-base.T/2) > 1e-6*base.T {
		t.Fatalf("2x compression: T %.3f, want half of %.3f", half.T, base.T)
	}
	if math.Abs(half.Load[0]-base.Load[0]/2) > 1e-6*base.Load[0] {
		t.Fatalf("2x compression: load %.1f, want half of %.1f", half.Load[0], base.Load[0])
	}
}
