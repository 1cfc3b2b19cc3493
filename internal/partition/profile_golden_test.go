package partition_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"recross/internal/partition"
	"recross/internal/stats"
	"recross/internal/trace"
)

// TestProfileGolden holds the offline profiling pass and the generator's
// draws to testdata/profile.golden. For three models it records, per
// table, the total and distinct counts, an FNV-1a digest of the (row,
// count) pairs in row order and the eight hottest rows with their counts:
// CriteoKaggle(64, 80) as every default NewSystem profiles it,
// CriteoTerabyte(64, 20), whose 40M-row tables draw far past the Zipf
// head, and a uniform model (skew 0). It also records a digest of the
// tables, indices and weight bits of 64 samples drawn with and without a
// tail mass. A change to how ranks are drawn or counted that means to keep
// every draw must keep this file; one that means to move them re-records
// with -update and says why.
func TestProfileGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		spec    trace.ModelSpec
		samples int
	}{
		{trace.CriteoKaggle(64, 80), 2000},
		{trace.CriteoTerabyte(64, 20), 2000},
		{trace.Uniform(4, 100000, 16, 20), 2000},
	} {
		prof, err := partition.NewProfile(c.spec, 12345, c.samples)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "# profile %s seed 12345 samples %d\n", c.spec.Name, c.samples)
		for i, h := range prof.Hists {
			writeHist(&b, c.spec.Tables[i].Name, h)
		}
	}
	for _, tail := range []float64{0, 0.3} {
		g, err := trace.NewGenerator(trace.CriteoKaggle(64, 80), 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetTailMass(tail); err != nil {
			t.Fatal(err)
		}
		d := fnv.New64a()
		var s trace.Sample
		for i := 0; i < 64; i++ {
			s = g.SampleInto(s)
			for _, op := range s {
				d.Write(binary.LittleEndian.AppendUint64(nil, uint64(op.Table)<<8|uint64(op.Kind)))
				for k, idx := range op.Indices {
					d.Write(binary.LittleEndian.AppendUint64(nil, uint64(idx)))
					d.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(op.Weights[k])))
				}
			}
		}
		fmt.Fprintf(&b, "# samples criteo-kaggle seed 7 tail %g\ndigest %016x\n", tail, d.Sum64())
	}

	const path = "testdata/profile.golden"
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with: go test -run TestProfileGolden ./internal/partition -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("profile.golden line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("profile.golden: %d lines, want %d", len(gl), len(wl))
	}
}

// writeHist writes one table's line: total, distinct, the digest of its
// (row, count) pairs in row order, and its top 8 rows as row:count.
func writeHist(b *strings.Builder, name string, h *stats.Histogram) {
	rows := h.HotKeys(h.Distinct())
	top := rows[:min(8, len(rows))]
	fmt.Fprintf(b, "%s total %d distinct %d", name, h.Total(), h.Distinct())
	hot := make([]string, len(top))
	for i, r := range top {
		hot[i] = fmt.Sprintf("%d:%d", r, h.Count(r))
	}
	slices.Sort(rows)
	d := fnv.New64a()
	var pair []byte
	for _, r := range rows {
		pair = binary.LittleEndian.AppendUint64(pair[:0], uint64(r))
		pair = binary.LittleEndian.AppendUint64(pair, uint64(h.Count(r)))
		d.Write(pair)
	}
	fmt.Fprintf(b, " digest %016x hot %s\n", d.Sum64(), strings.Join(hot, " "))
}
