// Package trace models embedding-layer workloads: table specifications,
// lookup traces with skewed (long-tail) access distributions, and
// deterministic synthetic generators calibrated to the Criteo datasets the
// paper evaluates on.
//
// Substitution note (DESIGN.md §3): the raw Criteo click logs are not
// available offline, so we synthesise per-table Zipfian index streams over
// the published cardinalities of the 26 Criteo Kaggle categorical features.
// The paper's evaluation depends only on the access-frequency skew and the
// table-size spectrum, both of which are preserved.
package trace

import "fmt"

// TableSpec describes one embedding table.
type TableSpec struct {
	// Name identifies the table (e.g. "C3").
	Name string
	// Rows is the number of embedding rows (the feature cardinality).
	Rows int64
	// VecLen is the embedding vector length in FP32 elements (32..256 in
	// production per the paper; default 64).
	VecLen int
	// Pooling is the average number of vectors gathered per embedding
	// operation (paper default 80).
	Pooling int
	// Prob is the probability that a sample accesses this table.
	Prob float64
	// Skew is the Zipf exponent of the access distribution. Larger means
	// more skewed; 0 means uniform.
	Skew float64
	// Kind selects the pooling reduction generated for this table's ops.
	// The zero value is WeightedSum (the historical default); Sum models
	// the common unweighted multi-hot pooling case.
	Kind ReduceKind
}

// Bytes returns the table's memory footprint in bytes (FP32 elements).
func (t TableSpec) Bytes() int64 { return t.Rows * int64(t.VecLen) * 4 }

// Validate reports the first structural problem with the spec.
func (t TableSpec) Validate() error {
	switch {
	case t.Rows <= 0:
		return fmt.Errorf("table %q: rows must be positive, got %d", t.Name, t.Rows)
	case t.VecLen <= 0:
		return fmt.Errorf("table %q: vector length must be positive, got %d", t.Name, t.VecLen)
	case t.Pooling <= 0:
		return fmt.Errorf("table %q: pooling must be positive, got %d", t.Name, t.Pooling)
	case t.Prob < 0 || t.Prob > 1:
		return fmt.Errorf("table %q: probability out of [0,1]: %g", t.Name, t.Prob)
	case t.Skew < 0:
		return fmt.Errorf("table %q: negative skew %g", t.Name, t.Skew)
	case t.Kind > Max:
		return fmt.Errorf("table %q: unknown reduce kind %d", t.Name, t.Kind)
	}
	return nil
}

// ModelSpec is the embedding layer of one recommendation model.
type ModelSpec struct {
	Name   string
	Tables []TableSpec
}

// Validate checks every table spec.
func (m ModelSpec) Validate() error {
	if len(m.Tables) == 0 {
		return fmt.Errorf("model %q: no tables", m.Name)
	}
	for _, t := range m.Tables {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("model %q: %w", m.Name, err)
		}
	}
	return nil
}

// TotalBytes returns the summed footprint of all embedding tables.
func (m ModelSpec) TotalBytes() int64 {
	var s int64
	for _, t := range m.Tables {
		s += t.Bytes()
	}
	return s
}

// criteoKaggleCardinalities are the cardinalities of the 26 categorical
// features (C1..C26) of the public Criteo Kaggle Display Advertising
// Challenge dataset, the workload of the paper's Fig. 3. The three
// largest features are capped at 8M rows (the standard hashing-trick cap),
// which also keeps the model within a 2-rank channel at vector length 256.
var criteoKaggleCardinalities = []int64{
	1460, 583, 8000000, 2202608, 305, 24, 12517, 633, 3, 93145,
	5683, 8000000, 3194, 27, 14992, 5461306, 10, 5652, 2173, 4,
	7046547, 18, 15, 286181, 105, 142572,
}

// multiHotMinRows is the table size above which the synthetic multi-hot
// pooling factor applies. Small categorical features are one-hot in DLRM
// (one lookup per sample); the 20-80-vector pooling of the paper's §2.1
// describes the large multi-hot features (click/post histories).
const multiHotMinRows = 10000

// CriteoKaggle returns the 26-table Criteo Kaggle model with the given
// vector length and pooling factor. Per-table Zipf skew is derived
// deterministically from the table position so the tables exhibit the
// "varying spectrum of access distributions" the paper describes (§3.3):
// exponents cycle through [1.00, 1.40], calibrated so that under 20% of
// rows absorb the vast majority of accesses, matching Fig. 3's curves.
func CriteoKaggle(vecLen, pooling int) ModelSpec {
	tables := make([]TableSpec, len(criteoKaggleCardinalities))
	for i, rows := range criteoKaggleCardinalities {
		p := pooling
		if rows < multiHotMinRows {
			p = 1
		}
		tables[i] = TableSpec{
			Name:    fmt.Sprintf("C%d", i+1),
			Rows:    rows,
			VecLen:  vecLen,
			Pooling: p,
			Prob:    1.0,
			Skew:    1.00 + float64(0.08*float64(i%6)),
		}
	}
	return ModelSpec{Name: "criteo-kaggle", Tables: tables}
}

// CriteoTerabyte returns a Criteo-Terabyte-like model: the same 26 features
// with cardinalities scaled up roughly 4x and capped at 40M rows (the common
// hashing cap used when training on the Terabyte logs).
func CriteoTerabyte(vecLen, pooling int) ModelSpec {
	tables := make([]TableSpec, len(criteoKaggleCardinalities))
	for i, rows := range criteoKaggleCardinalities {
		r := rows * 4
		if r > 40_000_000 {
			r = 40_000_000
		}
		p := pooling
		if r < multiHotMinRows {
			p = 1
		}
		tables[i] = TableSpec{
			Name:    fmt.Sprintf("C%d", i+1),
			Rows:    r,
			VecLen:  vecLen,
			Pooling: p,
			Prob:    1.0,
			Skew:    1.00 + float64(0.08*float64(i%6)),
		}
	}
	return ModelSpec{Name: "criteo-terabyte", Tables: tables}
}

// Uniform returns a model of n identical tables with uniform (unskewed)
// access, useful for isolating architecture effects in tests.
func Uniform(n int, rows int64, vecLen, pooling int) ModelSpec {
	tables := make([]TableSpec, n)
	for i := range tables {
		tables[i] = TableSpec{
			Name:    fmt.Sprintf("U%d", i),
			Rows:    rows,
			VecLen:  vecLen,
			Pooling: pooling,
			Prob:    1.0,
			Skew:    0,
		}
	}
	return ModelSpec{Name: "uniform", Tables: tables}
}
