package seqeff

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
)

// sym builds a descriptor as an op builds it: a numeric kind's argument
// is its integer when arg spells one.
func sym(kind, arg string) oplog.Sym {
	switch kind {
	case adt.KindNumAdd, adt.KindNumStore, adt.KindListPush:
		if n, err := strconv.ParseInt(arg, 10, 64); err == nil {
			return oplog.Sym{Kind: kind, N: n, Int: true}
		}
	}
	return oplog.Sym{Kind: kind, Arg: arg}
}

func TestEffectThen(t *testing.T) {
	id := Effect{Kind: Ident}
	add2 := Effect{Kind: Add, N: 2}
	addm2 := Effect{Kind: Add, N: -2}
	store5 := Effect{Kind: Store, V: "5"}
	num5 := Effect{Kind: Store, N: 5, Num: true}
	storeA := Effect{Kind: Store, V: "a"}

	cases := []struct {
		name string
		e, g Effect
		want Effect
		ok   bool
	}{
		{"id∘id", id, id, id, true},
		{"add∘add cancels", add2, addm2, id, true},
		{"add∘add accumulates", add2, add2, Effect{Kind: Add, N: 4}, true},
		{"store wipes add", add2, store5, store5, true},
		{"numeric store then add folds", store5, add2, Effect{Kind: Store, N: 7, Num: true}, true},
		{"integer store then add folds", num5, add2, Effect{Kind: Store, N: 7, Num: true}, true},
		{"integer store wipes add", add2, num5, num5, true},
		{"non-numeric store then add fails", storeA, add2, Effect{}, false},
		{"then identity", store5, id, store5, true},
	}
	for _, c := range cases {
		got, ok := c.e.Then(c.g)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("%s: Then = %v,%v; want %v,%v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestCommute(t *testing.T) {
	id := Effect{Kind: Ident}
	add := Effect{Kind: Add, N: 3}
	s1 := Effect{Kind: Store, V: "x"}
	s2 := Effect{Kind: Store, V: "x"}
	s3 := Effect{Kind: Store, V: "y"}
	n7 := Effect{Kind: Store, N: 7, Num: true}
	n8 := Effect{Kind: Store, N: 8, Num: true}
	str7 := Effect{Kind: Store, V: "7"}
	cases := []struct {
		a, b Effect
		want bool
	}{
		{id, add, true}, {add, id, true}, {id, s1, true},
		{add, add, true},
		{s1, s2, true},  // equal-writes
		{s1, s3, false}, // different writes
		{add, s1, false}, {s1, add, false},
		{n7, n7, true}, {n7, n8, false},
		// An integer and the string of its digits are one stored value.
		{n7, str7, true}, {str7, n7, true}, {n8, str7, false},
	}
	for _, c := range cases {
		if got := Commute(c.a, c.b); got != c.want {
			t.Errorf("Commute(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAnalyzeRegister(t *testing.T) {
	// The Figure 1 identity pattern: work += w; work -= w.
	a, ok := AnalyzeRegister([]oplog.Sym{
		sym(adt.KindNumAdd, "3"), sym(adt.KindNumAdd, "-3"),
	})
	if !ok || !a.Eff.IsIdent() {
		t.Fatalf("identity pair: %v %v", a, ok)
	}
	if !Idempotent(a) {
		t.Errorf("identity must be idempotent")
	}

	// Shared-as-local: store then load.
	b, ok := AnalyzeRegister([]oplog.Sym{
		sym(adt.KindStrStore, "f.go"), sym(adt.KindStrLoad, ""),
	})
	if !ok || b.Eff.Kind != Store || b.Eff.V != "f.go" {
		t.Fatalf("store-load: %v %v", b, ok)
	}
	if b.ReadBeforeStore {
		t.Fatalf("the read follows the store: %+v", b)
	}
	if !Idempotent(b) {
		t.Errorf("store-then-load must be idempotent")
	}

	// Load before store is not idempotent.
	c, _ := AnalyzeRegister([]oplog.Sym{
		sym(adt.KindNumLoad, ""), sym(adt.KindNumStore, "5"),
	})
	if !c.ReadBeforeStore {
		t.Fatalf("the read precedes the store: %+v", c)
	}
	if Idempotent(c) {
		t.Errorf("load-then-store must not be idempotent")
	}

	// Pure add is not idempotent.
	d, _ := AnalyzeRegister([]oplog.Sym{sym(adt.KindNumAdd, "2")})
	if Idempotent(d) {
		t.Errorf("add(2) must not be idempotent")
	}

	// Relational per-key: put/remove/get map onto store/load.
	e, ok := AnalyzeRegister([]oplog.Sym{
		sym(adt.KindRelPut, "white"), sym(adt.KindRelGet, ""), sym(adt.KindRelRemove, ""),
	})
	if !ok || e.Eff.Kind != Store || e.Eff.V != adt.AbsentVal || e.ReadBeforeStore {
		t.Fatalf("rel seq analysis = %+v", e)
	}

	// A read under adds alone sees the entry value; a store, once in,
	// stays a store, even under a later add.
	f, ok := AnalyzeRegister([]oplog.Sym{
		sym(adt.KindNumAdd, "1"), sym(adt.KindNumLoad, ""), sym(adt.KindNumStore, "4"),
		sym(adt.KindNumAdd, "2"), sym(adt.KindNumLoad, ""),
	})
	if !ok || !f.ReadBeforeStore || f.Eff != (Effect{Kind: Store, N: 6, Num: true}) {
		t.Fatalf("add-load-store-add-load analysis = %+v %v", f, ok)
	}
	g, _ := AnalyzeRegister([]oplog.Sym{sym(adt.KindNumStore, "4"), sym(adt.KindNumAdd, "2"), sym(adt.KindNumLoad, "")})
	if g.ReadBeforeStore || !Idempotent(g) {
		t.Fatalf("store-add-load analysis = %+v", g)
	}

	// Stack ops leave the register theory.
	if _, ok := AnalyzeRegister([]oplog.Sym{sym(adt.KindListPush, "1")}); ok {
		t.Errorf("stack op must not be register-analyzable")
	}
	if _, ok := AnalyzeRegister([]oplog.Sym{sym(adt.KindNumAdd, "junk")}); ok {
		t.Errorf("malformed arg must fail")
	}
}

func TestPairConflictsPatterns(t *testing.T) {
	analyze := func(syms ...oplog.Sym) Analysis {
		a, ok := AnalyzeRegister(syms)
		if !ok {
			t.Fatalf("not register: %v", syms)
		}
		return a
	}
	identity := analyze(sym(adt.KindNumAdd, "2"), sym(adt.KindNumAdd, "-2"))
	reduction := analyze(sym(adt.KindNumAdd, "5"))
	equalW1 := analyze(sym(adt.KindRelPut, "white"))
	equalW2 := analyze(sym(adt.KindRelPut, "white"))
	diffW := analyze(sym(adt.KindRelPut, "black"))
	spy := analyze(sym(adt.KindNumLoad, ""))
	local := analyze(sym(adt.KindStrStore, "a"), sym(adt.KindStrLoad, ""))

	cases := []struct {
		name     string
		a, b     Analysis
		conflict bool
	}{
		{"identity vs identity", identity, identity, false},
		{"identity vs reduction", identity, reduction, false},
		{"reduction vs reduction", reduction, reduction, false},
		{"equal writes", equalW1, equalW2, false},
		{"different writes", equalW1, diffW, true},
		{"spy vs identity", spy, identity, false},
		{"spy vs reduction", spy, reduction, true},
		{"local vs local", local, local, false},
		{"local vs different store", local, analyze(sym(adt.KindStrStore, "b")), true},
	}
	for _, c := range cases {
		if got := PairConflicts(c.a, c.b); got != c.conflict {
			t.Errorf("%s: PairConflicts = %v, want %v", c.name, got, c.conflict)
		}
		if got := PairConflicts(c.b, c.a); got != c.conflict {
			t.Errorf("%s (swapped): PairConflicts = %v, want %v", c.name, got, c.conflict)
		}
	}
}

func TestAnalyzeStack(t *testing.T) {
	balanced, ok := AnalyzeStack([]oplog.Sym{
		sym(adt.KindListPush, "2"), sym(adt.KindListPush, "7"),
		sym(adt.KindListPop, ""), sym(adt.KindListPop, ""),
	})
	if !ok || !balanced.Balanced() {
		t.Fatalf("balanced push/pop: %+v %v", balanced, ok)
	}
	if !IdempotentStack(balanced) {
		t.Errorf("balanced sequence must be idempotent")
	}

	if balanced.NetPushes != 0 || balanced.NetPops != 0 || balanced.SizeReads != 0 {
		t.Fatalf("balanced push/pop counts: %+v", balanced)
	}

	popFirst, _ := AnalyzeStack([]oplog.Sym{sym(adt.KindListPop, ""), sym(adt.KindListPush, "1")})
	if popFirst.Balanced() || !popFirst.PrestateRead || popFirst.NetPops != 1 || popFirst.NetPushes != 1 {
		t.Fatalf("pop-first: %+v", popFirst)
	}
	if IdempotentStack(popFirst) {
		t.Errorf("prestate-popping sequence must not be idempotent")
	}

	sized, _ := AnalyzeStack([]oplog.Sym{
		sym(adt.KindListPush, "1"), sym(adt.KindListSize, ""), sym(adt.KindListPop, ""),
	})
	if sized.SizeReads != 1 {
		t.Fatalf("size reads = %d, want 1", sized.SizeReads)
	}
	if !sized.Balanced() {
		t.Errorf("push-size-pop is balanced")
	}

	if _, ok := AnalyzeStack([]oplog.Sym{sym(adt.KindNumAdd, "1")}); ok {
		t.Errorf("register op must not be stack-analyzable")
	}

	// Pushes left standing are counted net of the pops that took them
	// back; a size read is unstable only under a height change.
	net, _ := AnalyzeStack([]oplog.Sym{
		sym(adt.KindListPush, "1"), sym(adt.KindListPush, "2"), sym(adt.KindListPop, ""), sym(adt.KindListSize, ""),
	})
	if net.NetPushes != 1 || net.NetPops != 0 || net.PrestateRead || net.Balanced() {
		t.Fatalf("push-push-pop-size: %+v", net)
	}
	if StackReadsStable(sized, net) || !StackReadsStable(sized, balanced) || !StackReadsStable(net, balanced) {
		t.Errorf("a size read is stable exactly under a height-preserving sequence")
	}
	if !StackReadsStable(popFirst, balanced) || StackReadsStable(popFirst, net) {
		t.Errorf("an entry-state pop is stable exactly under an identity sequence")
	}
}

func TestStackPairConflicts(t *testing.T) {
	bal, _ := AnalyzeStack([]oplog.Sym{sym(adt.KindListPush, "1"), sym(adt.KindListPop, "")})
	unbal, _ := AnalyzeStack([]oplog.Sym{sym(adt.KindListPush, "1")})
	if StackPairConflicts(bal, bal) {
		t.Errorf("two balanced sequences must not conflict")
	}
	if !StackPairConflicts(bal, unbal) || !StackPairConflicts(unbal, unbal) {
		t.Errorf("unbalanced sequences must conflict")
	}
}

func TestClassify(t *testing.T) {
	if got := Classify([]oplog.Sym{sym(adt.KindNumAdd, "1")}); got != TheoryRegister {
		t.Errorf("Classify add = %v", got)
	}
	if got := Classify([]oplog.Sym{sym(adt.KindListPush, "1")}); got != TheoryStack {
		t.Errorf("Classify push = %v", got)
	}
	if got := Classify([]oplog.Sym{sym(adt.KindListPush, "1"), sym(adt.KindNumAdd, "1")}); got != TheoryNone {
		t.Errorf("Classify mixed = %v", got)
	}
	for th, want := range map[Theory]string{TheoryRegister: "register", TheoryStack: "stack", TheoryNone: "none"} {
		if th.String() != want {
			t.Errorf("String(%d) = %q", th, th.String())
		}
	}
}

func TestBlockIdempotent(t *testing.T) {
	cases := []struct {
		syms []oplog.Sym
		want bool
	}{
		{nil, false},
		{[]oplog.Sym{sym(adt.KindNumAdd, "2"), sym(adt.KindNumAdd, "-2")}, true},
		{[]oplog.Sym{sym(adt.KindNumAdd, "2")}, false},
		{[]oplog.Sym{sym(adt.KindRelPut, "white")}, true}, // pure store
		{[]oplog.Sym{sym(adt.KindListPush, "3"), sym(adt.KindListPop, "")}, true},
		{[]oplog.Sym{sym(adt.KindListPop, ""), sym(adt.KindListPush, "3")}, false},
		{[]oplog.Sym{sym(adt.KindNumLoad, "")}, true}, // pure read block
	}
	for i, c := range cases {
		if got := BlockIdempotent(c.syms); got != c.want {
			t.Errorf("case %d (%v): BlockIdempotent = %v, want %v", i, c.syms, got, c.want)
		}
	}
}

// TestBlockIdempotentFoldMatchesAnalyses pins BlockIdempotent, on random
// sequences over every operation kind — including malformed adds,
// non-numeric stores under an add, and kinds no theory covers — to its
// definition: Idempotent(AnalyzeRegister(·)) when the register theory
// covers the sequence, IdempotentStack(AnalyzeStack(·)) when the stack
// theory does, false otherwise. Neither it nor the analyses allocate.
func TestBlockIdempotentFoldMatchesAnalyses(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vals := []string{"0", "1", "-1", "7", "x", "white", adt.AbsentVal}
	register := []string{
		adt.KindNumAdd, adt.KindNumStore, adt.KindStrStore, adt.KindBoolStore,
		adt.KindRelPut, adt.KindRelRemove, adt.KindRelClear,
		adt.KindNumLoad, adt.KindStrLoad, adt.KindBoolLoad, adt.KindRelGet, adt.KindRelHas,
	}
	stack := []string{adt.KindListPush, adt.KindListPop, adt.KindListSize}
	all := append(append([]string{"no.such.kind"}, register...), stack...)
	definition := func(syms []oplog.Sym) bool {
		if len(syms) == 0 {
			return false
		}
		a, regOK := AnalyzeRegister(syms)
		sa, stackOK := AnalyzeStack(syms)
		return regOK && Idempotent(a) || stackOK && IdempotentStack(sa)
	}
	idem := 0
	for i := 0; i < 20000; i++ {
		pool := all
		switch i % 4 { // mostly single-theory sequences, so both theories see long inputs
		case 0, 1:
			pool = register
		case 2:
			pool = stack
		}
		syms := make([]oplog.Sym, rng.Intn(7))
		for j := range syms {
			syms[j] = sym(pool[rng.Intn(len(pool))], vals[rng.Intn(len(vals))])
		}
		want := definition(syms)
		if got := BlockIdempotent(syms); got != want {
			t.Fatalf("%v: BlockIdempotent = %v, analyses say %v", syms, got, want)
		}
		if want {
			idem++
		}
	}
	if idem < 1000 || idem > 19000 {
		t.Fatalf("%d of 20000 random sequences idempotent: the table does not exercise both answers", idem)
	}

	seq := []oplog.Sym{sym(adt.KindNumStore, "3"), sym(adt.KindNumLoad, ""), sym(adt.KindNumAdd, "2"), sym(adt.KindNumLoad, "")}
	stk := []oplog.Sym{sym(adt.KindListPush, "3"), sym(adt.KindListSize, ""), sym(adt.KindListPop, ""), sym(adt.KindListPop, "")}
	for name, f := range map[string]func(){
		"BlockIdempotent(store/load)": func() { BlockIdempotent(seq[:2]) },
		"BlockIdempotent(stack)":      func() { BlockIdempotent(stk) },
		"AnalyzeRegister":             func() { AnalyzeRegister(seq[1:]) },
		"AnalyzeStack":                func() { AnalyzeStack(stk) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.0f per call, want 0", name, n)
		}
	}
}

// TestIdempotenceSemantics validates the Lemma 5.1 predicate against
// direct double-execution on random register sequences over a small value
// domain.
func TestIdempotenceSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	genSeq := func() []oplog.Sym {
		n := 1 + rng.Intn(4)
		out := make([]oplog.Sym, n)
		for i := range out {
			switch rng.Intn(3) {
			case 0:
				out[i] = sym(adt.KindNumAdd, strconv.Itoa(rng.Intn(5)-2))
			case 1:
				out[i] = sym(adt.KindNumStore, strconv.Itoa(rng.Intn(4)))
			default:
				out[i] = sym(adt.KindNumLoad, "")
			}
		}
		return out
	}
	run := func(seq []oplog.Sym, x int64) (int64, []int64) {
		var obs []int64
		for _, s := range seq {
			switch s.Kind {
			case adt.KindNumAdd:
				x += s.N
			case adt.KindNumStore:
				x = s.N
			case adt.KindNumLoad:
				obs = append(obs, x)
			}
		}
		return x, obs
	}
	for iter := 0; iter < 2000; iter++ {
		seq := genSeq()
		a, ok := AnalyzeRegister(seq)
		if !ok {
			t.Fatalf("register analysis failed: %v", seq)
		}
		got := Idempotent(a)
		// Semantics: for all entry x, state after once == after twice and
		// the second run's observations equal the first run's.
		want := true
		for x := int64(-5); x <= 5 && want; x++ {
			s1, o1 := run(seq, x)
			s2, o2 := run(seq, s1)
			if s1 != s2 || len(o1) != len(o2) {
				want = false
				break
			}
			for i := range o1 {
				if o1[i] != o2[i] {
					want = false
					break
				}
			}
		}
		if got != want {
			t.Fatalf("iter %d: Idempotent=%v, semantics=%v, seq=%v", iter, got, want, seq)
		}
	}
}

func TestEffectString(t *testing.T) {
	if (Effect{Kind: Ident}).String() != "id" ||
		(Effect{Kind: Add, N: 2}).String() != "x+2" ||
		(Effect{Kind: Store, V: "a"}).String() != "≔a" {
		t.Errorf("effect strings wrong")
	}
}
