package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustProblem(t *testing.T, n int) *Problem {
	t.Helper()
	p, err := NewProblem(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTextbookMaximization(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (Hillier-Lieberman):
	// optimum x=2, y=6, objective 36. As minimization of the negation.
	p := mustProblem(t, 2)
	p.SetObjective([]float64{-3, -5})
	p.AddConstraint([]float64{1, 0}, LE, 4)
	p.AddConstraint([]float64{0, 2}, LE, 12)
	p.AddConstraint([]float64{3, 2}, LE, 18)
	s := Solve(p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective+36) > 1e-6 {
		t.Fatalf("objective = %g, want -36", s.Objective)
	}
	if math.Abs(s.X[0]-2) > 1e-6 || math.Abs(s.X[1]-6) > 1e-6 {
		t.Fatalf("x = %v, want [2 6]", s.X)
	}
}

func TestGEConstraintsNeedPhase1(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 3: optimum x=10? No: cost of x is
	// cheaper, so x=10, y=0, objective 20... but x >= 3 already satisfied.
	p := mustProblem(t, 2)
	p.SetObjective([]float64{2, 3})
	p.AddConstraint([]float64{1, 1}, GE, 10)
	p.AddConstraint([]float64{1, 0}, GE, 3)
	s := Solve(p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-20) > 1e-6 {
		t.Fatalf("objective = %g, want 20", s.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y s.t. x + y == 5, y >= 1: x=4, y=1, objective 6.
	p := mustProblem(t, 2)
	p.SetObjective([]float64{1, 2})
	p.AddConstraint([]float64{1, 1}, EQ, 5)
	p.AddConstraint([]float64{0, 1}, GE, 1)
	s := Solve(p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-6) > 1e-6 {
		t.Fatalf("objective = %g, want 6", s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := mustProblem(t, 1)
	p.SetObjective([]float64{1})
	p.AddConstraint([]float64{1}, LE, 1)
	p.AddConstraint([]float64{1}, GE, 2)
	if s := Solve(p); s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := mustProblem(t, 2)
	p.SetObjective([]float64{-1, 0})
	p.AddConstraint([]float64{0, 1}, LE, 5)
	if s := Solve(p); s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestUnconstrained(t *testing.T) {
	p := mustProblem(t, 3)
	p.SetObjective([]float64{1, 0, 2})
	s := Solve(p)
	if s.Status != Optimal || s.Objective != 0 {
		t.Fatalf("unconstrained with c>=0: %v obj %g", s.Status, s.Objective)
	}
	p2 := mustProblem(t, 1)
	p2.SetObjective([]float64{-1})
	if s := Solve(p2); s.Status != Unbounded {
		t.Fatalf("unconstrained with c<0 should be unbounded, got %v", s.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -3  <=>  x >= 3; min x => 3.
	p := mustProblem(t, 1)
	p.SetObjective([]float64{1})
	p.AddConstraint([]float64{-1}, LE, -3)
	s := Solve(p)
	if s.Status != Optimal || math.Abs(s.X[0]-3) > 1e-6 {
		t.Fatalf("got %v x=%v, want x=3", s.Status, s.X)
	}
}

func TestDegenerateDoesNotCycle(t *testing.T) {
	// Beale's classic cycling example (with Dantzig rule, no
	// anti-cycling). Our Bland fallback must terminate at optimum -0.05.
	p := mustProblem(t, 4)
	p.SetObjective([]float64{-0.75, 150, -0.02, 6})
	p.AddConstraint([]float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddConstraint([]float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
	s := Solve(p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective+0.05) > 1e-6 {
		t.Fatalf("objective = %g, want -0.05", s.Objective)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewProblem(0); err == nil {
		t.Error("zero variables should error")
	}
	p := mustProblem(t, 2)
	if err := p.SetObjective([]float64{1}); err == nil {
		t.Error("wrong objective length should error")
	}
	if err := p.AddConstraint([]float64{1}, LE, 0); err == nil {
		t.Error("wrong constraint length should error")
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterationLimit: "iteration-limit",
	} {
		if s.String() != want {
			t.Errorf("Status(%d) = %q, want %q", s, s.String(), want)
		}
	}
}

// feasible checks x against all of p's constraints.
func feasible(p *Problem, x []float64, tol float64) bool {
	for _, xi := range x {
		if xi < -tol {
			return false
		}
	}
	for i, row := range p.rows {
		dot := 0.0
		for j := range row {
			dot += row[j] * x[j]
		}
		switch p.rel[i] {
		case LE:
			if dot > p.rhs[i]+tol {
				return false
			}
		case GE:
			if dot < p.rhs[i]-tol {
				return false
			}
		case EQ:
			if math.Abs(dot-p.rhs[i]) > tol {
				return false
			}
		}
	}
	return true
}

// Property: for lower-bound problems min sum(x) s.t. x_i >= b_i the optimum
// is exactly sum(b_i), and the returned point is feasible.
func TestLowerBoundProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		n := len(raw)
		p, err := NewProblem(n)
		if err != nil {
			return false
		}
		c := make([]float64, n)
		want := 0.0
		for i := range c {
			c[i] = 1
		}
		p.SetObjective(c)
		for i, b := range raw {
			row := make([]float64, n)
			row[i] = 1
			p.AddConstraint(row, GE, float64(b))
			want += float64(b)
		}
		s := Solve(p)
		return s.Status == Optimal &&
			math.Abs(s.Objective-want) < 1e-6 &&
			feasible(p, s.X, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: on random feasible LE problems (rhs >= 0) with nonnegative
// objective, the solver returns a feasible point with objective <= that of
// the origin-adjacent heuristic point, and never worse than 0 from below.
func TestRandomLEProblemsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 1
		m := rng.Intn(6) + 1
		p, err := NewProblem(n)
		if err != nil {
			return false
		}
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64()*4 - 2
		}
		p.SetObjective(c)
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.Float64() // nonnegative => bounded below by 0 rows? no
			}
			p.AddConstraint(row, LE, rng.Float64()*10)
		}
		// Bound the polytope so the problem is never unbounded.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.AddConstraint(row, LE, 100)
		}
		s := Solve(p)
		if s.Status != Optimal {
			return false
		}
		if !feasible(p, s.X, 1e-6) {
			return false
		}
		// Optimal must be <= objective at the origin (origin is feasible).
		return s.Objective <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMinimaxStructure exercises the exact structure the partitioner
// builds: minimize t subject to per-region load/bandwidth <= t and
// assignment rows summing to 1.
func TestMinimaxStructure(t *testing.T) {
	// Two items, two regions. Item loads: item0 = 6, item1 = 2.
	// Region bandwidths: 1 and 1. Optimal split equalizes: t = 4.
	// Vars: x00 x01 x10 x11 t  (xij = fraction of item i in region j).
	p := mustProblem(t, 5)
	p.SetObjective([]float64{0, 0, 0, 0, 1})
	p.AddConstraint([]float64{1, 1, 0, 0, 0}, EQ, 1)
	p.AddConstraint([]float64{0, 0, 1, 1, 0}, EQ, 1)
	// Region 0 load: 6*x00 + 2*x10 <= t.
	p.AddConstraint([]float64{6, 0, 2, 0, -1}, LE, 0)
	p.AddConstraint([]float64{0, 6, 0, 2, -1}, LE, 0)
	s := Solve(p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-4) > 1e-6 {
		t.Fatalf("minimax objective = %g, want 4", s.Objective)
	}
}

func BenchmarkSolvePartitionSized(b *testing.B) {
	// A problem shaped like the real partitioning LP: 26 tables x 10
	// segments (partition.Segments()) x 3 regions + t. The real LP itself
	// is partition.BenchmarkSolveLPKaggle.
	const tables, segs, regs = 26, 10, 3
	n := tables*segs*regs + 1
	rng := rand.New(rand.NewSource(1))
	build := func() *Problem {
		p, _ := NewProblem(n)
		obj := make([]float64, n)
		obj[n-1] = 1
		p.SetObjective(obj)
		xvar := func(t, s, r int) int { return (t*segs+s)*regs + r }
		for ti := 0; ti < tables; ti++ {
			for s := 0; s < segs; s++ {
				row := make([]float64, n)
				for r := 0; r < regs; r++ {
					row[xvar(ti, s, r)] = 1
				}
				p.AddConstraint(row, EQ, 1)
			}
		}
		for r := 0; r < regs; r++ {
			load := make([]float64, n)
			capRow := make([]float64, n)
			for ti := 0; ti < tables; ti++ {
				for s := 0; s < segs; s++ {
					load[xvar(ti, s, r)] = rng.Float64() * 10
					capRow[xvar(ti, s, r)] = rng.Float64()
				}
			}
			load[n-1] = -1
			p.AddConstraint(load, LE, 0)
			p.AddConstraint(capRow, LE, float64(tables*segs)*0.6)
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := Solve(build()); s.Status != Optimal {
			b.Fatalf("status = %v", s.Status)
		}
	}
}
