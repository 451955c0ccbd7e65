package spec

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/seqeff"
	"repro/internal/state"
)

func TestProve(t *testing.T) {
	adds := []oplog.Sym{sym(adt.KindNumAdd, "1"), sym(adt.KindNumAdd, "-1")}
	loads := []oplog.Sym{sym(adt.KindNumLoad, "")}
	stores := []oplog.Sym{sym(adt.KindNumStore, "5")}
	stacks := []oplog.Sym{sym(adt.KindListPush, "1"), sym(adt.KindListPop, "")}
	mixed := []oplog.Sym{sym(adt.KindListPush, "1"), sym(adt.KindNumAdd, "1")}

	cases := []struct {
		name   string
		s1, s2 []oplog.Sym
		want   conditionKind
	}{
		{"add-only pair", adds, adds, condAlways},
		{"load-only pair", loads, loads, condAlways},
		{"add vs store", adds, stores, condRegister},
		{"store vs store", stores, stores, condRegister},
		{"stack pair", stacks, stacks, condStackIdentity},
		{"stack vs register", stacks, adds, condNone},
		{"mixed theory", mixed, mixed, condNone},
	}
	for _, c := range cases {
		if got := prove(c.s1, c.s2); got != c.want {
			t.Errorf("%s: prove = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEvaluate(t *testing.T) {
	idp := []oplog.Sym{sym(adt.KindNumAdd, "4"), sym(adt.KindNumAdd, "-4")}
	store5 := []oplog.Sym{sym(adt.KindNumStore, "5")}
	store6 := []oplog.Sym{sym(adt.KindNumStore, "6")}
	bal := []oplog.Sym{sym(adt.KindListPush, "2"), sym(adt.KindListPop, "")}
	unbal := []oplog.Sym{sym(adt.KindListPush, "2")}

	if c, _, ok := evaluate(condAlways, store5, store6); !ok || c {
		t.Errorf("condAlways must answer no-conflict")
	}
	if c, _, ok := evaluate(condRegister, idp, store5); !ok || c {
		t.Errorf("identity vs store must not conflict")
	}
	if c, _, ok := evaluate(condRegister, store5, store6); !ok || !c {
		t.Errorf("different stores must conflict")
	}
	if c, _, ok := evaluate(condRegister, store5, store5); !ok || c {
		t.Errorf("equal stores must not conflict")
	}
	if c, _, ok := evaluate(condStackIdentity, bal, bal); !ok || c {
		t.Errorf("balanced stacks must not conflict")
	}
	if c, _, ok := evaluate(condStackIdentity, bal, unbal); !ok || !c {
		t.Errorf("unbalanced stack must conflict")
	}
	if _, _, ok := evaluate(condRegister, bal, bal); ok {
		t.Errorf("stack seq under register condition must report !ok")
	}
	if _, _, ok := evaluate(condStackIdentity, store5, store5); ok {
		t.Errorf("register seq under stack condition must report !ok")
	}
	if c, _, ok := evaluate(condNone, store5, store5); ok || !c {
		t.Errorf("condNone must be conservative")
	}
}

// TestEvaluateDetailAllocs: a cached condition's verdict on a cache hit
// allocates nothing. The analyses keep counts and flags, not the prefix
// effects or pushed values the judgment never reads past a length.
func TestEvaluateDetailAllocs(t *testing.T) {
	reg1 := []oplog.Sym{sym(adt.KindNumLoad, ""), sym(adt.KindNumAdd, "4"), sym(adt.KindNumAdd, "-4")}
	reg2 := []oplog.Sym{sym(adt.KindNumStore, "5"), sym(adt.KindNumLoad, ""), sym(adt.KindNumStore, "5")}
	stk1 := []oplog.Sym{sym(adt.KindListPush, "2"), sym(adt.KindListSize, ""), sym(adt.KindListPop, "")}
	stk2 := []oplog.Sym{sym(adt.KindListPush, "7"), sym(adt.KindListPush, "8"), sym(adt.KindListPop, ""), sym(adt.KindListPop, "")}
	for _, c := range []struct {
		kind   conditionKind
		s1, s2 []oplog.Sym
		want   Check
	}{
		{condRegister, reg1, reg2, CheckSameRead},
		{condRegister, reg2, reg2, CheckNone},
		{condStackIdentity, stk1, stk2, CheckNone},
		{condStackIdentity, stk1, stk1[:1], CheckCommute},
	} {
		if _, failed, ok := evaluate(c.kind, c.s1, c.s2); !ok || failed != c.want {
			t.Fatalf("%v on %v / %v: failed=%v ok=%v, want %v", c.kind, c.s1, c.s2, failed, ok, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { evaluate(c.kind, c.s1, c.s2) }); n != 0 {
			t.Errorf("evaluate(%v) allocates %.0f per call, want 0", c.kind, n)
		}
	}
}

func TestConditionKindString(t *testing.T) {
	want := map[conditionKind]string{
		condNone: "none", condAlways: "always",
		condRegister: "register", condStackIdentity: "stack-identity",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("String(%d) = %q, want %q", k, k.String(), s)
		}
	}
}

// record executes ops against st and returns the events.
func record(t *testing.T, st *state.State, task int, ops ...oplog.Op) oplog.Log {
	t.Helper()
	var l oplog.Log
	for i, op := range ops {
		acc := op.AppendAccesses(nil, st)
		v, err := op.Apply(st)
		if err != nil {
			t.Fatalf("apply %v: %v", op, err)
		}
		ev := oplog.NewEvent(op, task, i, acc, v)
		l = append(l, &ev)
	}
	return l
}

func TestPLocValue(t *testing.T) {
	st := state.New()
	st.Set("work", state.Int(7))
	st.Set("bits", adt.NewRelValue())
	if v, err := plocValue(st, oplog.PLoc{Loc: "work"}); err != nil || !v.EqualValue(state.Int(7)) {
		t.Errorf("scalar plocValue = %v, %v", v, err)
	}
	for _, key := range []string{"3", ""} {
		if v, err := plocValue(st, oplog.PLoc{Loc: "bits", Key: key}); err != nil || !v.EqualValue(state.Str(adt.AbsentVal)) {
			t.Errorf("absent key %q plocValue = %v, %v", key, v, err)
		}
		mut := st.Clone()
		if _, err := (adt.RelPutOp{L: "bits", Key: key, Val: "1"}).Apply(mut); err != nil {
			t.Fatal(err)
		}
		// The empty key names its own binding, not the whole relation.
		if v, err := plocValue(mut, oplog.PLoc{Loc: "bits", Key: key}); err != nil || !v.EqualValue(state.Str("1")) {
			t.Errorf("bound key %q plocValue = %v, %v", key, v, err)
		}
	}
	if _, err := plocValue(st, oplog.PLoc{Loc: "missing"}); err == nil {
		t.Errorf("unbound loc must error")
	}
	if _, err := plocValue(st, oplog.PLoc{Loc: "work", Key: "1"}); err == nil {
		t.Errorf("keyed PLoc on scalar must error")
	}
}

func TestConflictConcreteIdentityPattern(t *testing.T) {
	base := state.New()
	base.Set("work", state.Int(0))
	s1 := record(t, base.Clone(), 1, adt.NumAddOp{L: "work", Delta: 2}.Op(), adt.NumAddOp{L: "work", Delta: -2}.Op())
	s2 := record(t, base.Clone(), 2, adt.NumAddOp{L: "work", Delta: 9}.Op(), adt.NumAddOp{L: "work", Delta: -9}.Op())
	conflict, err := conflictConcrete(base, oplog.PLoc{Loc: "work"}, s1, s2)
	if err != nil || conflict {
		t.Fatalf("identity pairs must not conflict: %v %v", conflict, err)
	}
}

func TestConflictConcreteSpuriousRead(t *testing.T) {
	base := state.New()
	base.Set("max", state.Int(1))
	// Reader observes entry value; writer stores a new one: SAMEREAD fails.
	rd := record(t, base.Clone(), 1, adt.NumLoadOp{L: "max"}.Op())
	wr := record(t, base.Clone(), 2, adt.NumStoreOp{L: "max", V: 5}.Op())
	conflict, err := conflictConcrete(base, oplog.PLoc{Loc: "max"}, rd, wr)
	if err != nil || !conflict {
		t.Fatalf("read vs store must conflict: %v %v", conflict, err)
	}
	// Reader vs reader is fine.
	rd2 := record(t, base.Clone(), 2, adt.NumLoadOp{L: "max"}.Op())
	conflict, err = conflictConcrete(base, oplog.PLoc{Loc: "max"}, rd, rd2)
	if err != nil || conflict {
		t.Fatalf("two readers must not conflict: %v %v", conflict, err)
	}
}

func TestConflictConcreteEqualWrites(t *testing.T) {
	base := state.New()
	base.Set("canvas", adt.NewRelValue())
	w1 := record(t, base.Clone(), 1, adt.RelPutOp{L: "canvas", Key: "1:1", Val: "white"}.Op())
	w2 := record(t, base.Clone(), 2, adt.RelPutOp{L: "canvas", Key: "1:1", Val: "white"}.Op())
	w3 := record(t, base.Clone(), 3, adt.RelPutOp{L: "canvas", Key: "1:1", Val: "black"}.Op())
	p := oplog.PLoc{Loc: "canvas", Key: "1:1"}
	if conflict, err := conflictConcrete(base, p, w1, w2); err != nil || conflict {
		t.Fatalf("equal writes must not conflict: %v %v", conflict, err)
	}
	if conflict, err := conflictConcrete(base, p, w1, w3); err != nil || !conflict {
		t.Fatalf("different writes must conflict: %v %v", conflict, err)
	}
}

// TestConflictConcreteKeysWithSeparators: a built-in ADT op's projection
// key and the key plocValue looks up must be the same key, or the judgment
// finds no binding, reads the absent value in both orders and admits two
// different writes — for a key holding a separator, and for the empty key.
func TestConflictConcreteKeysWithSeparators(t *testing.T) {
	base := state.New()
	base.Set("m", adt.NewRelValue())
	for _, key := range []string{"a,b", "a=b", `a\b`, "k=a,k=b", ""} {
		after := base.Clone()
		w1 := record(t, after, 1, adt.RelPutOp{L: "m", Key: key, Val: "1"}.Op())
		w2 := record(t, base.Clone(), 2, adt.RelPutOp{L: "m", Key: key, Val: "2"}.Op())
		p := w1[0].Accesses()[0].P
		if conflict, err := conflictConcrete(base, p, w1, w2); err != nil || !conflict {
			t.Errorf("key %q: different writes must conflict: %v %v", key, conflict, err)
		}
		if v, err := plocValue(after, p); err != nil || !v.EqualValue(state.Str("1")) {
			t.Errorf("key %q: plocValue after the put = %v, %v; want 1", key, v, err)
		}
	}
}

func TestConflictConcreteSharedAsLocal(t *testing.T) {
	base := state.New()
	base.Set("f", state.Str("init"))
	// Each task stores then loads its own value: reads are stable and the
	// final value differs by order — a genuine conflict on the final
	// value unless the stores are equal. With equal stores, no conflict.
	a := record(t, base.Clone(), 1, adt.StrStoreOp{L: "f", V: state.Str("x")}.Op(), adt.StrLoadOp{L: "f"}.Op())
	b := record(t, base.Clone(), 2, adt.StrStoreOp{L: "f", V: state.Str("x")}.Op(), adt.StrLoadOp{L: "f"}.Op())
	if conflict, err := conflictConcrete(base, oplog.PLoc{Loc: "f"}, a, b); err != nil || conflict {
		t.Fatalf("equal store-load pairs must not conflict: %v %v", conflict, err)
	}
	c := record(t, base.Clone(), 3, adt.StrStoreOp{L: "f", V: state.Str("y")}.Op(), adt.StrLoadOp{L: "f"}.Op())
	if conflict, err := conflictConcrete(base, oplog.PLoc{Loc: "f"}, a, c); err != nil || !conflict {
		t.Fatalf("different final stores must conflict (COMMUTE): %v %v", conflict, err)
	}
}

// TestTheoryAgreesWithConcrete cross-validates the register theory's
// PairConflicts against the concrete Figure 8 execution on random numeric
// sequences and entry states.
func TestTheoryAgreesWithConcrete(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 400; iter++ {
		base := state.New()
		base.Set("x", state.Int(int64(rng.Intn(7)-3)))
		gen := func(task int) oplog.Log {
			n := 1 + rng.Intn(3)
			ops := make([]oplog.Op, n)
			for i := range ops {
				switch rng.Intn(3) {
				case 0:
					ops[i] = adt.NumAddOp{L: "x", Delta: int64(rng.Intn(5) - 2)}.Op()
				case 1:
					ops[i] = adt.NumStoreOp{L: "x", V: int64(rng.Intn(3))}.Op()
				default:
					ops[i] = adt.NumLoadOp{L: "x"}.Op()
				}
			}
			return record(t, base.Clone(), task, ops...)
		}
		s1, s2 := gen(1), gen(2)
		a1, _ := seqeff.AnalyzeRegister(s1.Syms())
		a2, _ := seqeff.AnalyzeRegister(s2.Syms())
		theory := seqeff.PairConflicts(a1, a2)
		concrete, err := conflictConcrete(base, oplog.PLoc{Loc: "x"}, s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		// The theory quantifies over all entry states; the concrete check
		// is for one entry state. Soundness: theory "no conflict" implies
		// concrete "no conflict".
		if !theory && concrete {
			t.Fatalf("iter %d: theory says commute but concrete conflicts\ns1=%v\ns2=%v entry=%s",
				iter, s1.Syms(), s2.Syms(), base)
		}
		_ = strconv.Itoa(iter)
	}
}

// TestResolveDeterministic pins the total strength order on condition
// kinds and the order-independence of resolve, which put, Merge,
// and Load rely on for deterministic merged contents.
func TestResolveDeterministic(t *testing.T) {
	kinds := []conditionKind{condNone, condStackIdentity, condRegister, condAlways}
	for i, a := range kinds {
		for j, b := range kinds {
			got := resolve(a, b)
			if sym := resolve(b, a); sym != got {
				t.Errorf("resolve(%v,%v)=%v but resolve(%v,%v)=%v", a, b, got, b, a, sym)
			}
			var want conditionKind
			switch {
			case a == condNone:
				want = b
			case b == condNone:
				want = a
			case i <= j:
				want = a // kinds listed weakest-first
			default:
				want = b
			}
			if got != want {
				t.Errorf("resolve(%v,%v) = %v, want %v", a, b, got, want)
			}
		}
	}
	// Associativity over a triple with all kinds present.
	l := resolve(resolve(condAlways, condRegister), condStackIdentity)
	r := resolve(condAlways, resolve(condRegister, condStackIdentity))
	if l != r || l != condStackIdentity {
		t.Errorf("associativity: %v vs %v", l, r)
	}
	// Strength is a strict total order on provable kinds.
	if !(condNone.strength() < condStackIdentity.strength() &&
		condStackIdentity.strength() < condRegister.strength() &&
		condRegister.strength() < condAlways.strength()) {
		t.Errorf("strength order broken")
	}
}
