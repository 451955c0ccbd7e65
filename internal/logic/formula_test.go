package logic

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

var (
	p = Atom{Col: "p", Val: "1"}
	q = Atom{Col: "q", Val: "1"}
	r = Atom{Col: "r", Val: "1"}
)

func TestConstructorsSimplify(t *testing.T) {
	cases := []struct {
		got, want Formula
	}{
		{And(), True},
		{Or(), False},
		{And(True, p), p},
		{And(False, p), False},
		{Or(True, p), True},
		{Or(False, p), p},
		{Not(True), False},
		{Not(False), True},
		{Not(Not(p)), p},
		{And(p), p},
		{Or(q), q},
	}
	for i, c := range cases {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("case %d: got %v, want %v", i, c.got, c.want)
		}
	}
}

func TestAndOrFlatten(t *testing.T) {
	f := And(And(p, q), r)
	af, ok := f.(AndF)
	if !ok || len(af.Fs) != 3 {
		t.Fatalf("nested And not flattened: %v", f)
	}
	g := Or(Or(p, q), r)
	of, ok := g.(OrF)
	if !ok || len(of.Fs) != 3 {
		t.Fatalf("nested Or not flattened: %v", g)
	}
}

func TestEval(t *testing.T) {
	asn := map[Atom]bool{p: true, q: false}
	cases := []struct {
		f    Formula
		want bool
	}{
		{True, true},
		{False, false},
		{p, true},
		{q, false},
		{r, false}, // absent atoms default to false
		{Not(q), true},
		{And(p, Not(q)), true},
		{Or(q, r), false},
		{Iff(p, Not(q)), true},
		{Xor(p, q), true},
	}
	for i, c := range cases {
		if got := c.f.Eval(asn); got != c.want {
			t.Errorf("case %d (%v): got %v, want %v", i, c.f, got, c.want)
		}
	}
}

func TestAtomsSortedAndDeduped(t *testing.T) {
	f := And(q, p, Not(p), Or(p, q))
	got := Atoms(f)
	want := []Atom{p, q}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Atoms = %v, want %v", got, want)
	}
}

func TestSubstitute(t *testing.T) {
	f := And(p, Or(q, Not(p)))
	g := Substitute(f, p, True)
	// And(True, Or(q, Not(True))) = Or(q, False) = q
	if !reflect.DeepEqual(g, q) {
		t.Errorf("Substitute = %v, want %v", g, q)
	}
	h := Substitute(f, Atom{Col: "absent", Val: "0"}, False)
	if !EquivalentBrute(h, f) {
		t.Errorf("substituting an absent atom changed the formula")
	}
}

func TestString(t *testing.T) {
	f := Or(And(p, Not(q)), r)
	want := "p=1 ∧ ¬q=1 ∨ r=1"
	if f.String() != want {
		t.Errorf("String = %q, want %q", f.String(), want)
	}
	g := And(Or(p, q), r)
	want = "(p=1 ∨ q=1) ∧ r=1"
	if g.String() != want {
		t.Errorf("String = %q, want %q", g.String(), want)
	}
}

func TestTautologyBrute(t *testing.T) {
	if !TautologyBrute(Or(p, Not(p))) {
		t.Errorf("p ∨ ¬p must be valid")
	}
	if TautologyBrute(p) {
		t.Errorf("p is not valid")
	}
	if !TautologyBrute(Iff(Not(And(p, q)), Or(Not(p), Not(q)))) {
		t.Errorf("De Morgan must be valid")
	}
}

// genFormula builds a random formula of bounded depth over three atoms.
func genFormula(r *rand.Rand, depth int) Formula {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return p
		case 1:
			return q
		case 2:
			return Atom{Col: "r", Val: "1"}
		default:
			if r.Intn(2) == 0 {
				return True
			}
			return False
		}
	}
	switch r.Intn(3) {
	case 0:
		return Not(genFormula(r, depth-1))
	case 1:
		return And(genFormula(r, depth-1), genFormula(r, depth-1))
	default:
		return Or(genFormula(r, depth-1), genFormula(r, depth-1))
	}
}

// TestTseitinEquisatisfiable checks by brute force that ToCNF preserves
// satisfiability on random formulas.
func TestTseitinEquisatisfiable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		f := genFormula(rng, 4)
		want := !TautologyBrute(Not(f)) // f satisfiable?
		got := cnfSatBrute(ToCNF(f))
		if got != want {
			t.Fatalf("iter %d: formula %v: CNF sat = %v, formula sat = %v", i, f, got, want)
		}
	}
}

// cnfSatBrute decides CNF satisfiability by enumeration (tests only).
func cnfSatBrute(c CNF) bool {
	if c.NumVars > 22 {
		panic("too many vars for brute force")
	}
	for m := 0; m < 1<<uint(c.NumVars); m++ {
		ok := true
		for _, cl := range c.Clauses {
			sat := false
			for _, l := range cl {
				v := l
				if v < 0 {
					v = -v
				}
				val := m&(1<<uint(v-1)) != 0
				if (l > 0) == val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestEvalRandomAgainstTruthTable cross-checks Eval against a reference
// recursive evaluator on random formulas and assignments.
func TestEvalRandomAgainstTruthTable(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	rng := rand.New(rand.NewSource(99))
	err := quick.Check(func(b1, b2, b3 bool) bool {
		f := genFormula(rng, 5)
		asn := map[Atom]bool{p: b1, q: b2, {Col: "r", Val: "1"}: b3}
		return f.Eval(asn) == refEval(f, asn)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func refEval(f Formula, asn map[Atom]bool) bool {
	switch g := f.(type) {
	case constant:
		return bool(g)
	case Atom:
		return asn[g]
	case NotF:
		return !refEval(g.F, asn)
	case AndF:
		for _, s := range g.Fs {
			if !refEval(s, asn) {
				return false
			}
		}
		return true
	case OrF:
		for _, s := range g.Fs {
			if refEval(s, asn) {
				return true
			}
		}
		return false
	}
	panic("unknown")
}

func TestColumnExclusivity(t *testing.T) {
	a1 := Atom{Col: "c", Val: "1"}
	a2 := Atom{Col: "c", Val: "2"}
	f := And(a1, a2)
	cnf := ToCNF(f)
	if !cnfSatBrute(cnf) {
		t.Fatalf("c=1 ∧ c=2 should be propositionally satisfiable before exclusivity")
	}
	ColumnExclusivity(&cnf, [][]Atom{{a1, a2}})
	if cnfSatBrute(cnf) {
		t.Fatalf("exclusivity must make c=1 ∧ c=2 unsatisfiable")
	}
}

// TautologyBrute decides validity of f by enumerating all assignments.
// It is exponential in the number of atoms: the truth-table oracle the
// SAT-backed Equivalent and the simplifier are checked against.
func TautologyBrute(f Formula) bool {
	atoms := Atoms(f)
	if len(atoms) > 20 {
		panic("logic: TautologyBrute called with too many atoms")
	}
	asn := make(map[Atom]bool, len(atoms))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(atoms) {
			return f.Eval(asn)
		}
		asn[atoms[i]] = false
		if !rec(i + 1) {
			return false
		}
		asn[atoms[i]] = true
		return rec(i + 1)
	}
	return rec(0)
}

// EquivalentBrute decides f ↔ g by enumeration.
func EquivalentBrute(f, g Formula) bool { return TautologyBrute(Iff(f, g)) }
