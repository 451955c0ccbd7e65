package spec

import (
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/state"
)

// genRegisterLog builds a random single-location op sequence with its
// events (footprints computed against a scratch state).
func genRegisterLog(rng *rand.Rand, loc state.Loc, task int) oplog.Log {
	n := 1 + rng.Intn(4)
	ops := make([]oplog.Op, n)
	for i := range ops {
		switch rng.Intn(3) {
		case 0:
			ops[i] = adt.NumAddOp{L: loc, Delta: int64(rng.Intn(7) - 3)}.Op()
		case 1:
			ops[i] = adt.NumStoreOp{L: loc, V: int64(rng.Intn(4))}.Op()
		default:
			ops[i] = adt.NumLoadOp{L: loc}.Op()
		}
	}
	st := state.New()
	st.Set(loc, state.Int(0))
	var l oplog.Log
	for i, op := range ops {
		acc := op.AppendAccesses(nil, st)
		v, _ := op.Apply(st)
		ev := oplog.NewEvent(op, task, i, acc, v)
		l = append(l, &ev)
	}
	return l
}

func genStackLog(rng *rand.Rand, loc state.Loc, task int) oplog.Log {
	n := 1 + rng.Intn(5)
	st := state.New()
	st.Set(loc, &state.IntList{10, 20, 30, 40, 50}) // deep enough to pop
	var l oplog.Log
	depth := 5
	for i := 0; i < n; i++ {
		var op oplog.Op
		switch rng.Intn(3) {
		case 0:
			op = adt.ListPushOp{L: loc, V: int64(rng.Intn(9))}.Op()
			depth++
		case 1:
			if depth == 0 {
				op = adt.ListPushOp{L: loc, V: 1}.Op()
				depth++
			} else {
				op = adt.ListPopOp{L: loc}.Op()
				depth--
			}
		default:
			op = adt.ListSizeOp{L: loc}.Op()
		}
		acc := op.AppendAccesses(nil, st)
		v, err := op.Apply(st)
		if err != nil {
			break
		}
		ev := oplog.NewEvent(op, task, i, acc, v)
		l = append(l, &ev)
	}
	return l
}

// TestProvedConditionsSoundOnRegisterDomain is the training soundness
// property: whenever prove+evaluate declare a random register pair
// non-conflicting, the concrete Figure 8 judgment must agree on every
// sampled entry state.
func TestProvedConditionsSoundOnRegisterDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	admitted := 0
	for iter := 0; iter < 2000; iter++ {
		s1 := genRegisterLog(rng, "x", 1)
		s2 := genRegisterLog(rng, "x", 2)
		kind := prove(s1.Syms(), s2.Syms())
		if kind == condNone {
			continue
		}
		conflict, _, ok := evaluate(kind, s1.Syms(), s2.Syms())
		if !ok {
			t.Fatalf("proved condition failed to evaluate: %v", kind)
		}
		if conflict {
			continue // conservative answers are always sound
		}
		admitted++
		for _, entry := range []int64{-3, 0, 2, 17} {
			st := state.New()
			st.Set("x", state.Int(entry))
			concrete, err := conflictConcrete(st, oplog.PLoc{Loc: "x"}, s1, s2)
			if err != nil {
				t.Fatal(err)
			}
			if concrete {
				t.Fatalf("UNSOUND: condition %v admitted a conflicting pair at entry %d:\ns1=%v\ns2=%v",
					kind, entry, s1.Syms(), s2.Syms())
			}
		}
	}
	if admitted < 50 {
		t.Fatalf("only %d pairs admitted; generator too restrictive", admitted)
	}
}

// TestProvedConditionsSoundOnStackDomain is the same property for the
// stack theory.
func TestProvedConditionsSoundOnStackDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	admitted := 0
	for iter := 0; iter < 2000; iter++ {
		s1 := genStackLog(rng, "s", 1)
		s2 := genStackLog(rng, "s", 2)
		kind := prove(s1.Syms(), s2.Syms())
		if kind == condNone {
			continue
		}
		conflict, _, ok := evaluate(kind, s1.Syms(), s2.Syms())
		if !ok || conflict {
			continue
		}
		admitted++
		for _, entry := range []state.IntList{{}, {7}, {1, 2, 3, 4, 5, 6}} {
			st := state.New()
			st.Set("s", entry.CloneValue())
			concrete, err := conflictConcrete(st, oplog.PLoc{Loc: "s"}, s1, s2)
			if err != nil {
				// Pops beyond the entry depth cannot run on this entry
				// state; a balanced-pair admission never pops the entry
				// stack, so an error here is itself a soundness bug.
				t.Fatalf("admitted stack pair failed concretely on %v: %v\ns1=%v\ns2=%v",
					entry, err, s1.Syms(), s2.Syms())
			}
			if concrete {
				t.Fatalf("UNSOUND stack admission at entry %v:\ns1=%v\ns2=%v",
					entry, s1.Syms(), s2.Syms())
			}
		}
	}
	if admitted < 20 {
		t.Fatalf("only %d stack pairs admitted; generator too restrictive", admitted)
	}
}

// TestRelationalConditionsSoundPerKey checks per-key relational pairs:
// admitted put/get/remove pairs must pass the concrete judgment on bound
// and unbound entry keys.
func TestRelationalConditionsSoundPerKey(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	vals := []string{"a", "b"}
	gen := func(task int) oplog.Log {
		n := 1 + rng.Intn(3)
		st := state.New()
		st.Set("r", adt.NewRelValue())
		var l oplog.Log
		for i := 0; i < n; i++ {
			var op oplog.Op
			switch rng.Intn(4) {
			case 0:
				op = adt.RelPutOp{L: "r", Key: "k", Val: vals[rng.Intn(2)]}.Op()
			case 1:
				op = adt.RelRemoveOp{L: "r", Key: "k"}.Op()
			case 2:
				op = adt.RelGetOp{L: "r", Key: "k"}.Op()
			default:
				op = adt.RelHasOp{L: "r", Key: "k"}.Op()
			}
			acc := op.AppendAccesses(nil, st)
			v, _ := op.Apply(st)
			ev := oplog.NewEvent(op, task, i, acc, v)
			l = append(l, &ev)
		}
		return l
	}
	admitted := 0
	ploc := oplog.PLoc{Loc: "r", Key: "k"}
	for iter := 0; iter < 1500; iter++ {
		s1, s2 := gen(1), gen(2)
		kind := prove(s1.Syms(), s2.Syms())
		if kind == condNone {
			continue
		}
		conflict, _, ok := evaluate(kind, s1.Syms(), s2.Syms())
		if !ok || conflict {
			continue
		}
		admitted++
		for _, bound := range []bool{false, true} {
			st := state.New()
			rel := adt.NewRelValue()
			st.Set("r", rel)
			if bound {
				if _, err := (adt.RelPutOp{L: "r", Key: "k", Val: "z"}).Apply(st); err != nil {
					t.Fatal(err)
				}
			}
			concrete, err := conflictConcrete(st, ploc, s1, s2)
			if err != nil {
				t.Fatal(err)
			}
			if concrete {
				t.Fatalf("UNSOUND relational admission (bound=%v):\ns1=%v\ns2=%v",
					bound, s1.Syms(), s2.Syms())
			}
		}
	}
	if admitted < 30 {
		t.Fatalf("only %d relational pairs admitted", admitted)
	}
}
