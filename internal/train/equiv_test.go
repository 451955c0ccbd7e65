package train

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/logic"
	"repro/internal/relation"
)

// The §6.2 equivalence judgment on Table 4 content formulas.

// bitset is an empty BitSet relation (index → bit).
func bitset() *relation.Relation { return relation.New() }

func TestTrivialEquivalences(t *testing.T) {
	a := logic.Atom{Col: "x", Val: "1"}
	cases := []struct {
		f, g logic.Formula
		want bool
	}{
		{logic.True, logic.True, true},
		{logic.True, logic.False, false},
		{a, a, true},
		{a, logic.Not(logic.Not(a)), true},
		{logic.And(a, logic.True), a, true},
		{a, logic.Or(a, a), true},
		{a, logic.Not(a), false},
	}
	for i, cse := range cases {
		got, err := equivalent(cse.f, cse.g, satBudget)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != cse.want {
			t.Errorf("case %d: Equivalent(%v, %v) = %v, want %v", i, cse.f, cse.g, got, cse.want)
		}
	}
}

func TestColumnExclusivityApplied(t *testing.T) {
	// Without exclusivity, idx=1 ∧ idx=2 is satisfiable, so
	// (idx=1 ∧ idx=2) ≢ false. With it, both are unsatisfiable — equal.
	f := logic.And(logic.Atom{Col: "idx", Val: "1"}, logic.Atom{Col: "idx", Val: "2"})
	eq, err := equivalent(f, logic.False, satBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("idx=1 ∧ idx=2 must be equivalent to false under column exclusivity")
	}
}

// TestInsertOrderIndependence mirrors the paper's core use: two different
// operation orders on a BitSet yield content formulas that differ
// syntactically but must be confirmed equivalent.
func TestInsertOrderIndependence(t *testing.T) {
	r1, r2 := bitset(), bitset()
	f1, f2 := r1.ContentFormula(), r2.ContentFormula()

	// Order A: set(1), set(2). Order B: set(2), set(1).
	f1 = relation.ContentPut(f1, "1", "1")
	r1.Put("1", "1")
	f1 = relation.ContentPut(f1, "2", "1")
	r1.Put("2", "1")

	f2 = relation.ContentPut(f2, "2", "1")
	r2.Put("2", "1")
	f2 = relation.ContentPut(f2, "1", "1")
	r2.Put("1", "1")

	eq, err := equivalent(f1, f2, satBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("set(1);set(2) and set(2);set(1) must be equivalent\nf1=%v\nf2=%v", f1, f2)
	}
}

func TestConflictingWritesDistinct(t *testing.T) {
	r1, r2 := bitset(), bitset()
	f1 := relation.ContentPut(r1.ContentFormula(), "1", "0")
	f2 := relation.ContentPut(r2.ContentFormula(), "1", "1")
	eq, err := equivalent(f1, f2, satBudget)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatalf("set(1,0) and set(1,1) must be distinct")
	}
}

// TestRandomSequencesAgainstConcrete cross-validates the SAT judgment
// against concrete relation equality over a bounded universe: if the SAT
// judgment says equivalent, the concrete relations must be equal, and vice
// versa (the universe of the random ops covers all mentioned atoms).
func TestRandomSequencesAgainstConcrete(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 120; iter++ {
		rA, rB := bitset(), bitset()
		fA, fB := rA.ContentFormula(), rB.ContentFormula()
		for step := 0; step < 6; step++ {
			i, v := strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(2))
			if rng.Intn(2) == 0 {
				fA = relation.ContentPut(fA, i, v)
				rA.Put(i, v)
			} else {
				fA = relation.ContentDelete(fA, i)
				rA.Delete(i)
			}
			i, v = strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(2))
			if rng.Intn(2) == 0 {
				fB = relation.ContentPut(fB, i, v)
				rB.Put(i, v)
			} else {
				fB = relation.ContentDelete(fB, i)
				rB.Delete(i)
			}
		}
		eq, err := equivalent(fA, fB, satBudget)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if want := rA.Equal(rB); eq != want {
			t.Fatalf("iter %d: SAT says equivalent=%v, concrete equality=%v\nfA=%v\nfB=%v\nrA=%v\nrB=%v",
				iter, eq, want, fA, fB, rA, rB)
		}
	}
}

func TestBudgetYieldsUnknown(t *testing.T) {
	// Build a formula pair needing some search: XOR chain.
	var f logic.Formula = logic.Atom{Col: "c0", Val: "1"}
	var g logic.Formula = logic.Atom{Col: "c0", Val: "1"}
	for i := 1; i < 14; i++ {
		a := logic.Atom{Col: "c" + strconv.Itoa(i), Val: "1"}
		f = logic.Xor(f, a)
		b := logic.Atom{Col: "c" + strconv.Itoa(14-i), Val: "1"}
		g = logic.Xor(g, b)
	}
	_, err := equivalent(f, g, 1)
	if err != errUnknown {
		t.Skipf("budget not reached on this instance (err=%v); solver too fast — acceptable", err)
	}
}
