package trace

import (
	"fmt"
	"math/rand"
	"slices"
)

// ReduceKind selects an op's pooling operator (§4.1: ReCross supports
// summation, weighted summation "and any other quantized operation").
type ReduceKind uint8

const (
	// WeightedSum is the paper's default: sum of weight_k * row_k.
	WeightedSum ReduceKind = iota
	// Sum ignores the weights (plain element-wise summation).
	Sum
	// Max is element-wise max pooling.
	Max
)

func (k ReduceKind) String() string {
	switch k {
	case WeightedSum:
		return "weighted-sum"
	case Sum:
		return "sum"
	case Max:
		return "max"
	default:
		return "reduce(?)"
	}
}

// Op is one embedding operation: a gather of Indices from one table followed
// by a pooling reduction over them. len(Weights) == len(Indices); for Sum
// and Max the weights are ignored.
type Op struct {
	Table   int
	Kind    ReduceKind
	Indices []int64
	Weights []float32
}

// Sample is the embedding work of one inference sample: one Op per accessed
// table.
type Sample []Op

// Batch is a batch of samples processed together (paper default 32).
type Batch []Sample

// Lookups returns the total number of gathered vectors in the batch.
func (b Batch) Lookups() int {
	n := 0
	for _, s := range b {
		for _, op := range s {
			n += len(op.Indices)
		}
	}
	return n
}

// Generator produces deterministic synthetic traces for a model spec. The
// same (spec, seed) always yields the same stream of batches.
type Generator struct {
	spec  ModelSpec
	rng   *rand.Rand
	zipfs []*Zipf
	scats []*Scatter
	// tailMass, when positive, redirects this probability of every index
	// draw to a uniform pick from the cold half of the rank space —
	// flattening the trace toward rows the Zipf head never touches (the
	// cold tier's stress knob).
	tailMass float64
}

// NewGenerator builds a generator for spec, seeded with seed.
func NewGenerator(spec ModelSpec, seed int64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		spec:  spec,
		rng:   rand.New(rand.NewSource(seed)),
		zipfs: make([]*Zipf, len(spec.Tables)),
		scats: make([]*Scatter, len(spec.Tables)),
	}
	for i, t := range spec.Tables {
		z, err := NewZipf(t.Rows, t.Skew)
		if err != nil {
			return nil, fmt.Errorf("table %q: %w", t.Name, err)
		}
		// The scatter permutation decides WHICH rows are popular — a
		// property of the dataset, not of the sampling — so it is seeded
		// from the table identity alone, never from the generator seed or
		// the surrounding model (tables keep their hot rows when sharded
		// across channels). A profiling pass and a measured run over the
		// same tables then agree on the hot rows while drawing
		// independent samples.
		s, err := NewScatter(t.Rows, scatterSeed(t.Name))
		if err != nil {
			return nil, fmt.Errorf("table %q: %w", t.Name, err)
		}
		g.zipfs[i] = z
		g.scats[i] = s
	}
	return g, nil
}

// scatterSeed derives the dataset-identity seed of one table's popularity
// permutation (FNV-1a over the table name).
func scatterSeed(table string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(table); i++ {
		h ^= uint64(table[i])
		h *= 1099511628211
	}
	return int64(h & (1<<62 - 1))
}

// SetTailMass redirects fraction f of every index draw (0 <= f <= 1) to a
// uniform pick from the cold half of the rank space — ranks the Zipf head
// essentially never reaches — shifting trace mass toward cold-placed rows.
// f = 0 (the default) restores the pure Zipf draw. Deterministic: the
// redirect burns the same RNG stream the Zipf draw would have, so two
// generators with equal seeds and tail mass emit identical traces.
func (g *Generator) SetTailMass(f float64) error {
	if f < 0 || f > 1 {
		return fmt.Errorf("trace: tail mass %v out of [0,1]", f)
	}
	g.tailMass = f
	return nil
}

// Spec returns the model the generator draws for.
func (g *Generator) Spec() ModelSpec { return g.spec }

// Scatter returns table ti's rank-to-row bijection: the row a rank drawn
// by RanksInto stands for is Scatter(ti).Map.
func (g *Generator) Scatter(ti int) *Scatter { return g.scats[ti] }

// Sample generates the embedding work for one inference sample.
func (g *Generator) Sample() Sample { return g.SampleInto(nil) }

// SampleInto draws one sample into dst's storage and returns it: ops and
// their index and weight slices are reused where their capacity allows,
// so a warm buffer draws without allocating. It draws the sample's ranks
// with RanksInto, then maps each through its table's Scatter to a row
// index; the mapping draws nothing, so the RNG sees the same calls
// whatever the caller and whatever the buffer.
func (g *Generator) SampleInto(dst Sample) Sample {
	s := g.RanksInto(dst)
	for i := range s {
		sc := g.scats[s[i].Table]
		for k, r := range s[i].Indices {
			s[i].Indices[k] = sc.Map(r)
		}
	}
	return s
}

// RanksInto is SampleInto without the scatter: each op's Indices hold
// popularity ranks (0 is the hottest) — a Zipf rank, or with probability
// tailMass a uniform cold-half rank — in the order SampleInto would map
// them. It is the one drawing loop; the offline profiling pass counts
// its ranks and maps each distinct rank once.
func (g *Generator) RanksInto(dst Sample) Sample {
	s := dst[:0]
	for ti, t := range g.spec.Tables {
		if t.Prob < 1 && g.rng.Float64() >= t.Prob {
			continue
		}
		s = slices.Grow(s, 1)[:len(s)+1]
		op := &s[len(s)-1]
		op.Table, op.Kind = ti, t.Kind
		op.Indices = slices.Grow(op.Indices[:0], t.Pooling)[:t.Pooling]
		op.Weights = slices.Grow(op.Weights[:0], t.Pooling)[:t.Pooling]
		z := g.zipfs[ti]
		for k := 0; k < t.Pooling; k++ {
			if g.tailMass > 0 && g.rng.Float64() < g.tailMass {
				op.Indices[k] = t.Rows/2 + g.rng.Int63n(t.Rows-t.Rows/2)
			} else {
				op.Indices[k] = z.Rank(g.rng)
			}
			op.Weights[k] = 0.5 + g.rng.Float32() // weights in [0.5, 1.5)
		}
	}
	return s
}

// Batch generates a batch of n samples.
func (g *Generator) Batch(n int) Batch {
	b := make(Batch, n)
	for i := range b {
		b[i] = g.Sample()
	}
	return b
}
