package sat

import (
	"math/rand"
	"testing"
)

func solve(t *testing.T, numVars int, clauses [][]int) Result {
	t.Helper()
	res, err := Solve(numVars, clauses, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestEmpty(t *testing.T) {
	res := solve(t, 0, nil)
	if res.Status != Sat {
		t.Fatalf("empty CNF must be SAT, got %v", res.Status)
	}
}

func TestUnitClauses(t *testing.T) {
	res := solve(t, 2, [][]int{{1}, {-2}})
	if res.Status != Sat {
		t.Fatalf("got %v", res.Status)
	}
	if !res.Model[0] || res.Model[1] {
		t.Errorf("model = %v, want [true false]", res.Model)
	}
}

func TestContradiction(t *testing.T) {
	res := solve(t, 1, [][]int{{1}, {-1}})
	if res.Status != Unsat {
		t.Fatalf("x ∧ ¬x must be UNSAT, got %v", res.Status)
	}
}

func TestEmptyClause(t *testing.T) {
	res := solve(t, 1, [][]int{{}})
	if res.Status != Unsat {
		t.Fatalf("empty clause must be UNSAT, got %v", res.Status)
	}
}

func TestTautologicalClauseIgnored(t *testing.T) {
	res := solve(t, 2, [][]int{{1, -1}, {2}})
	if res.Status != Sat || !res.Model[1] {
		t.Fatalf("got %v %v", res.Status, res.Model)
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// x1 ∧ (¬x1∨x2) ∧ (¬x2∨x3) ∧ (¬x3∨x4) forces all true.
	res := solve(t, 4, [][]int{{1}, {-1, 2}, {-2, 3}, {-3, 4}})
	if res.Status != Sat {
		t.Fatalf("got %v", res.Status)
	}
	for i, v := range res.Model {
		if !v {
			t.Errorf("x%d = false, want true", i+1)
		}
	}
}

func TestPigeonhole32(t *testing.T) {
	// 3 pigeons, 2 holes: UNSAT. Var p_{i,h} = i*2 + h + 1 for i in 0..2, h in 0..1.
	v := func(i, h int) int { return i*2 + h + 1 }
	var cls [][]int
	for i := 0; i < 3; i++ {
		cls = append(cls, []int{v(i, 0), v(i, 1)})
	}
	for h := 0; h < 2; h++ {
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				cls = append(cls, []int{-v(i, h), -v(j, h)})
			}
		}
	}
	res := solve(t, 6, cls)
	if res.Status != Unsat {
		t.Fatalf("PHP(3,2) must be UNSAT, got %v", res.Status)
	}
}

func TestPigeonhole43(t *testing.T) {
	v := func(i, h int) int { return i*3 + h + 1 }
	var cls [][]int
	for i := 0; i < 4; i++ {
		cls = append(cls, []int{v(i, 0), v(i, 1), v(i, 2)})
	}
	for h := 0; h < 3; h++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				cls = append(cls, []int{-v(i, h), -v(j, h)})
			}
		}
	}
	res := solve(t, 12, cls)
	if res.Status != Unsat {
		t.Fatalf("PHP(4,3) must be UNSAT, got %v", res.Status)
	}
}

func TestModelVerifies(t *testing.T) {
	cls := [][]int{{1, 2, 3}, {-1, -2}, {-2, -3}, {-1, -3}, {2, 3}}
	res := solve(t, 3, cls)
	if res.Status != Sat {
		t.Fatalf("got %v", res.Status)
	}
	if !Verify(cls, res.Model) {
		t.Fatalf("model %v does not satisfy clauses", res.Model)
	}
}

func TestBudget(t *testing.T) {
	// A hard-ish pigeonhole with budget 1 must give Unknown + ErrBudget.
	v := func(i, h int) int { return i*5 + h + 1 }
	var cls [][]int
	for i := 0; i < 6; i++ {
		var c []int
		for h := 0; h < 5; h++ {
			c = append(c, v(i, h))
		}
		cls = append(cls, c)
	}
	for h := 0; h < 5; h++ {
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				cls = append(cls, []int{-v(i, h), -v(j, h)})
			}
		}
	}
	res, err := Solve(30, cls, Options{MaxDecisions: 1})
	if err != ErrBudget || res.Status != Unknown {
		t.Fatalf("got %v, %v; want Unknown, ErrBudget", res.Status, err)
	}
}

// bruteSat enumerates all assignments; reference for the fuzz test.
func bruteSat(numVars int, clauses [][]int) bool {
	for m := 0; m < 1<<uint(numVars); m++ {
		model := make([]bool, numVars)
		for i := range model {
			model[i] = m&(1<<uint(i)) != 0
		}
		if Verify(clauses, model) {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		numVars := 3 + rng.Intn(8)
		numClauses := 1 + rng.Intn(30)
		clauses := make([][]int, numClauses)
		for i := range clauses {
			width := 1 + rng.Intn(3)
			cl := make([]int, width)
			for j := range cl {
				v := 1 + rng.Intn(numVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				cl[j] = v
			}
			clauses[i] = cl
		}
		res, err := Solve(numVars, clauses, Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		want := bruteSat(numVars, clauses)
		got := res.Status == Sat
		if got != want {
			t.Fatalf("iter %d: solver says %v, brute force says sat=%v\nclauses: %v", iter, res.Status, want, clauses)
		}
		if got && !Verify(clauses, res.Model) {
			t.Fatalf("iter %d: returned model does not verify", iter)
		}
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Errorf("status strings wrong")
	}
}

// TestNearThreshold3SAT exercises clause learning on instances near the
// 3-SAT phase transition (ratio ≈ 4.26), where plain DPLL struggles. The
// solver must decide every instance within a modest decision budget, and
// SAT answers must verify.
func TestNearThreshold3SAT(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	const vars = 60
	const clausesN = 256
	for inst := 0; inst < 10; inst++ {
		clauses := make([][]int, clausesN)
		for i := range clauses {
			cl := make([]int, 3)
			for j := range cl {
				v := 1 + rng.Intn(vars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				cl[j] = v
			}
			clauses[i] = cl
		}
		res, err := Solve(vars, clauses, Options{MaxDecisions: 500000})
		if err != nil {
			t.Fatalf("instance %d: budget exhausted: %v", inst, err)
		}
		if res.Status == Unknown {
			t.Fatalf("instance %d: unknown", inst)
		}
		if res.Status == Sat && !Verify(clauses, res.Model) {
			t.Fatalf("instance %d: model does not verify", inst)
		}
	}
}

// TestLearnedUnitFixesVariable checks that a learned unit clause pins its
// variable at level zero: an implication structure where every branch on
// x=false conflicts must end with x assigned true in the model.
func TestLearnedUnitFixesVariable(t *testing.T) {
	// (x ∨ a) (x ∨ ¬a): x must be true.
	res := solve(t, 2, [][]int{{1, 2}, {1, -2}})
	if res.Status != Sat || !res.Model[0] {
		t.Fatalf("x must be forced true: %v %v", res.Status, res.Model)
	}
}

// Verify checks that model satisfies all clauses: the oracle every model
// the solver returns is checked against.
func Verify(clauses [][]int, model []bool) bool {
	for _, cl := range clauses {
		ok := false
		for _, l := range cl {
			v := l
			if v < 0 {
				v = -v
			}
			if v-1 >= len(model) {
				return false
			}
			if (l > 0) == model[v-1] {
				ok = true
				break
			}
		}
		if !ok && len(cl) > 0 {
			// A tautological clause simplifies to nil earlier; raw
			// tautologies still count as satisfied.
			if !tautological(cl) {
				return false
			}
		}
	}
	return true
}

func tautological(cl []int) bool {
	seen := make(map[int]struct{}, len(cl))
	for _, l := range cl {
		if _, ok := seen[-l]; ok {
			return true
		}
		seen[l] = struct{}{}
	}
	return false
}
