// Package lp is a small, dependency-free linear-programming solver: a dense
// two-phase primal simplex with a Dantzig pivot rule and a Bland fallback
// against cycling. It substitutes for the Gurobi solver the paper uses for
// the bandwidth-aware partitioning LP of §4.3 (DESIGN.md §3); the
// partitioning problems have at most a few thousand variables, well within
// dense-simplex territory.
package lp

import (
	"fmt"
	"math"
)

// Relation is the sense of a constraint.
type Relation int

const (
	LE Relation = iota // <=
	GE                 // >=
	EQ                 // ==
)

// Status is the outcome of a solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Problem is a minimization LP over n nonnegative variables:
//
//	minimize c.x  subject to  A_i.x (<=|>=|==) b_i,  x >= 0.
type Problem struct {
	n    int
	c    []float64
	rows [][]float64
	rel  []Relation
	rhs  []float64
}

// NewProblem creates a problem with n variables and a zero objective.
func NewProblem(n int) (*Problem, error) {
	if n <= 0 {
		return nil, fmt.Errorf("lp: need at least one variable, got %d", n)
	}
	return &Problem{n: n, c: make([]float64, n)}, nil
}

// SetObjective sets the minimization coefficients (copied).
func (p *Problem) SetObjective(c []float64) error {
	if len(c) != p.n {
		return fmt.Errorf("lp: objective has %d coefficients, want %d", len(c), p.n)
	}
	copy(p.c, c)
	return nil
}

// AddConstraint appends coef.x rel rhs (coef copied).
func (p *Problem) AddConstraint(coef []float64, rel Relation, rhs float64) error {
	if len(coef) != p.n {
		return fmt.Errorf("lp: constraint has %d coefficients, want %d", len(coef), p.n)
	}
	row := make([]float64, p.n)
	copy(row, coef)
	p.rows = append(p.rows, row)
	p.rel = append(p.rel, rel)
	p.rhs = append(p.rhs, rhs)
	return nil
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

const eps = 1e-9

// Solve runs the two-phase simplex and returns the solution.
func Solve(p *Problem) Solution {
	m := len(p.rows)
	if m == 0 {
		// Unconstrained: x = 0 is optimal for c >= 0, otherwise unbounded.
		for _, ci := range p.c {
			if ci < -eps {
				return Solution{Status: Unbounded}
			}
		}
		return Solution{Status: Optimal, X: make([]float64, p.n)}
	}

	// Build the standard-form tableau: variables, then one slack/surplus
	// per inequality, then artificials where needed.
	nSlack := 0
	for _, r := range p.rel {
		if r != EQ {
			nSlack++
		}
	}
	// Count artificials: GE and EQ rows always need one; LE rows with a
	// negative rhs flip into GE and need one too. Normalize first.
	rows := make([][]float64, m)
	rel := make([]Relation, m)
	rhs := make([]float64, m)
	for i := range p.rows {
		rows[i] = append([]float64(nil), p.rows[i]...)
		rel[i] = p.rel[i]
		rhs[i] = p.rhs[i]
		if rhs[i] < 0 {
			for j := range rows[i] {
				rows[i][j] = -rows[i][j]
			}
			rhs[i] = -rhs[i]
			switch rel[i] {
			case LE:
				rel[i] = GE
			case GE:
				rel[i] = LE
			}
		}
	}
	nArt := 0
	for _, r := range rel {
		if r != LE {
			nArt++
		}
	}

	total := p.n + nSlack + nArt
	t := newTableau(m, total)
	basis := make([]int, m)
	slackCol := p.n
	artCol := p.n + nSlack
	for i := 0; i < m; i++ {
		copy(t.a[i], rows[i])
		t.b[i] = rhs[i]
		switch rel[i] {
		case LE:
			t.a[i][slackCol] = 1
			basis[i] = slackCol
			slackCol++
		case GE:
			t.a[i][slackCol] = -1
			slackCol++
			t.a[i][artCol] = 1
			basis[i] = artCol
			artCol++
		case EQ:
			t.a[i][artCol] = 1
			basis[i] = artCol
			artCol++
		}
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		phase1 := make([]float64, total)
		for j := p.n + nSlack; j < total; j++ {
			phase1[j] = 1
		}
		status := t.optimize(phase1, basis)
		if status != Optimal {
			return Solution{Status: status}
		}
		if t.objective(phase1, basis) > 1e-6 {
			return Solution{Status: Infeasible}
		}
		// Drive any artificial still in the basis out (degenerate rows).
		for i := 0; i < m; i++ {
			if basis[i] >= p.n+nSlack {
				pivoted := false
				for j := 0; j < p.n+nSlack; j++ {
					if math.Abs(t.a[i][j]) > eps {
						t.pivot(i, j, basis)
						pivoted = true
						break
					}
				}
				if !pivoted {
					// Redundant row: the artificial stays at zero;
					// harmless as long as it never re-enters, which
					// the phase-2 objective guarantees below.
					continue
				}
			}
		}
	}

	// Phase 2: original objective. Artificials never enter again, so their
	// columns are dropped; one stuck basic in a redundant row prices at 0.
	t.n = p.n + nSlack
	phase2 := make([]float64, total)
	copy(phase2, p.c)
	for j := p.n + nSlack; j < total; j++ {
		phase2[j] = math.Inf(1) // sentinel: a basic artificial prices at zero
	}
	status := t.optimize(phase2, basis)
	if status != Optimal {
		return Solution{Status: status}
	}

	x := make([]float64, p.n)
	for i, bj := range basis {
		if bj < p.n {
			x[bj] = t.b[i]
		}
	}
	obj := 0.0
	for j := 0; j < p.n; j++ {
		obj += float64(p.c[j] * x[j])
	}
	return Solution{Status: Optimal, X: x, Objective: obj}
}

// tableau is the dense simplex working state. Only the first n columns
// are live (phase 2 drops the artificials); the iteration bounds are set
// from the full width, so dropping columns does not move them.
type tableau struct {
	m, n                int
	a                   [][]float64
	b                   []float64
	nz                  []int // pivot scratch: the pivot row's nonzero columns
	maxIter, blandAfter int
}

func newTableau(m, n int) *tableau {
	t := &tableau{m: m, n: n, a: make([][]float64, m), b: make([]float64, m),
		maxIter: 50 * (m + n), blandAfter: 10 * (m + n)}
	for i := range t.a {
		t.a[i] = make([]float64, n)
	}
	return t
}

// objective evaluates c over the current basic solution.
func (t *tableau) objective(c []float64, basis []int) float64 {
	v := 0.0
	for i, bj := range basis {
		if !math.IsInf(c[bj], 1) {
			v += float64(c[bj] * t.b[i])
		}
	}
	return v
}

// optimize runs primal simplex iterations for objective c (minimize) from
// the current basis. A column with +Inf cost prices at +Inf and never
// enters; a basic one contributes nothing to the prices.
func (t *tableau) optimize(c []float64, basis []int) Status {
	// Reduced costs red[j] = c_j - sum_i y_i a_ij are recomputed each
	// iteration row by row, so the walk reads the tableau along its rows;
	// each column still takes its terms in ascending row order, as a
	// column-at-a-time walk would, so every bit of the result is the same.
	y := make([]float64, t.m) // c_B in row order
	red := make([]float64, t.n)
	for iter := 0; iter < t.maxIter; iter++ {
		for i, bj := range basis {
			if math.IsInf(c[bj], 1) {
				y[i] = 0 // artificial stuck at zero in a redundant row
			} else {
				y[i] = c[bj]
			}
		}
		copy(red, c[:t.n])
		for i, yi := range y {
			if yi == 0 {
				continue
			}
			for j, aij := range t.a[i][:t.n] {
				red[j] -= float64(yi * aij)
			}
		}
		// Entering column.
		enter := -1
		best := -eps
		for j, rj := range red {
			if iter >= t.blandAfter {
				// Bland: first improving column.
				if rj < -eps {
					enter = j
					break
				}
			} else if rj < best {
				best = rj
				enter = j
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Leaving row: min ratio test (Bland ties by smallest basis index).
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][enter] > eps {
				ratio := t.b[i] / t.a[i][enter]
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && leave >= 0 && basis[i] < basis[leave]) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter, basis)
	}
	return IterationLimit
}

// pivot makes column enter basic in row leave. Only the columns where the
// normalised pivot row is nonzero change; elsewhere a_ij - f*0 = a_ij.
func (t *tableau) pivot(leave, enter int, basis []int) {
	row := t.a[leave][:t.n]
	inv := 1 / row[enter]
	t.nz = t.nz[:0]
	for j := range row {
		row[j] *= inv
		if row[j] != 0 {
			t.nz = append(t.nz, j)
		}
	}
	t.b[leave] *= inv
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		for _, j := range t.nz {
			t.a[i][j] -= float64(f * row[j])
		}
		t.b[i] -= float64(f * t.b[leave])
		if t.b[i] < 0 && t.b[i] > -1e-12 {
			t.b[i] = 0
		}
	}
	basis[leave] = enter
}
