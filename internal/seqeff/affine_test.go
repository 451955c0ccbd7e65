package seqeff_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/seqeff"
)

func TestEffectThenApply(t *testing.T) {
	add3 := Effect{A: true, B: 3}
	store7 := Effect{A: false, B: 7}
	cases := []struct {
		name string
		e    Effect
		x    int64
		want int64
	}{
		{"identity", Identity, 5, 5},
		{"add", add3, 5, 8},
		{"store", store7, 5, 7},
		{"add then store", add3.Then(store7), 5, 7},
		{"store then add", store7.Then(add3), 5, 10},
		{"add then add", add3.Then(add3), 5, 11},
	}
	for _, c := range cases {
		if got := c.e.Apply(c.x); got != c.want {
			t.Errorf("%s: Apply(%d) = %d, want %d", c.name, c.x, got, c.want)
		}
	}
	if !Identity.IsIdentity() || add3.IsIdentity() || store7.IsIdentity() {
		t.Errorf("IsIdentity misclassifies")
	}
}

func TestAnalyze(t *testing.T) {
	// load; add 2; load; store 9; load; add 1
	a := Analyze([]Token{{Kind: Load}, {Kind: Add, Arg: 2}, {Kind: Load}, {Kind: Store, Arg: 9}, {Kind: Load}, {Kind: Add, Arg: 1}})
	if a.Effect.A || a.Effect.B != 10 {
		t.Fatalf("effect = %v, want const 10", a.Effect)
	}
	if len(a.Reads) != 3 {
		t.Fatalf("reads = %d, want 3", len(a.Reads))
	}
	if !a.Reads[0].IsIdentity() {
		t.Errorf("first read prefix = %v, want identity", a.Reads[0])
	}
	if a.Reads[1].A != true || a.Reads[1].B != 2 {
		t.Errorf("second read prefix = %v, want x+2", a.Reads[1])
	}
	if a.Reads[2].A || a.Reads[2].B != 9 {
		t.Errorf("third read prefix = %v, want const 9", a.Reads[2])
	}
}

// TestCommuteAgainstSemantics checks the closed-form commutativity test
// against direct evaluation over sampled inputs.
func TestCommuteAgainstSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	effects := func() Effect {
		return Effect{A: rng.Intn(2) == 0, B: int64(rng.Intn(7) - 3)}
	}
	for i := 0; i < 2000; i++ {
		f, g := effects(), effects()
		want := true
		for x := int64(-10); x <= 10; x++ {
			if f.Apply(g.Apply(x)) != g.Apply(f.Apply(x)) {
				want = false
				break
			}
		}
		if got := Commute(f, g); got != want {
			t.Fatalf("Commute(%v, %v) = %v, semantics say %v", f, g, got, want)
		}
	}
}

func TestCommutePatterns(t *testing.T) {
	addOnly := Analyze([]Token{{Kind: Add, Arg: 5}, {Kind: Add, Arg: -2}})
	identity := Analyze([]Token{{Kind: Add, Arg: 4}, {Kind: Add, Arg: -4}})
	store3 := Analyze([]Token{{Kind: Store, Arg: 3}})
	store3b := Analyze([]Token{{Kind: Store, Arg: 3}})
	store4 := Analyze([]Token{{Kind: Store, Arg: 4}})

	if !Commute(addOnly.Effect, addOnly.Effect) {
		t.Errorf("reduction: add-only pairs must commute")
	}
	if !Commute(identity.Effect, store3.Effect) {
		t.Errorf("identity must commute with store")
	}
	if Commute(addOnly.Effect, store3.Effect) {
		t.Errorf("net-nonzero add must not commute with store")
	}
	if !Commute(store3.Effect, store3b.Effect) {
		t.Errorf("equal-writes: same stores must commute")
	}
	if Commute(store3.Effect, store4.Effect) {
		t.Errorf("different stores must not commute")
	}
}

func TestSameRead(t *testing.T) {
	// A load at the start (prefix identity) is disturbed by any non-identity g.
	spy := Analyze([]Token{{Kind: Load}, {Kind: Add, Arg: 1}})
	if SameRead(spy, Effect{A: true, B: 2}) {
		t.Errorf("entry-value load must be disturbed by add")
	}
	if !SameRead(spy, Identity) {
		t.Errorf("identity concurrent effect never disturbs reads")
	}
	// Shared-as-local: load after own store has A=0 prefix.
	local := Analyze([]Token{{Kind: Store, Arg: 5}, {Kind: Load}})
	if !SameRead(local, Effect{A: false, B: 99}) {
		t.Errorf("load after own store must be order-insensitive")
	}
}

// TestPairConflictsAgainstConcrete validates the full CONFLICT judgment
// against brute-force two-order execution: evaluate both interleavings
// a·b and b·a on sampled entry values, compare final value and per-load
// observations.
func TestPairConflictsAgainstConcrete(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	genSeq := func() []Token {
		n := 1 + rng.Intn(4)
		out := make([]Token, n)
		for i := range out {
			switch rng.Intn(3) {
			case 0:
				out[i] = Token{Kind: Add, Arg: int64(rng.Intn(5) - 2)}
			case 1:
				out[i] = Token{Kind: Store, Arg: int64(rng.Intn(4))}
			default:
				out[i] = Token{Kind: Load}
			}
		}
		return out
	}
	run := func(seq []Token, x int64) (int64, []int64) {
		var obs []int64
		for _, tk := range seq {
			switch tk.Kind {
			case Add:
				x += tk.Arg
			case Store:
				x = tk.Arg
			case Load:
				obs = append(obs, x)
			}
		}
		return x, obs
	}
	for iter := 0; iter < 3000; iter++ {
		s1, s2 := genSeq(), genSeq()
		a1, a2 := Analyze(s1), Analyze(s2)
		got := PairConflicts(a1, a2)
		// Semantics: no conflict iff for all entry x, (i) final value of
		// s1·s2 equals s2·s1 and (ii) each sequence's loads observe the
		// same values whether or not the other ran first.
		conflictSem := false
		for x := int64(-6); x <= 6 && !conflictSem; x++ {
			m1, _ := run(s1, x)
			f12, obs2after := run(s2, m1)
			m2, _ := run(s2, x)
			f21, obs1after := run(s1, m2)
			if f12 != f21 {
				conflictSem = true
				break
			}
			_, obs1alone := run(s1, x)
			_, obs2alone := run(s2, x)
			if !equalInts(obs1alone, obs1after) || !equalInts(obs2alone, obs2after) {
				conflictSem = true
			}
		}
		// The analysis must never claim "no conflict" when semantics show
		// one (soundness). It may be conservative the other way only via
		// SameRead's identity shortcut — but the closed forms are exact,
		// so demand equality.
		if got != conflictSem {
			t.Fatalf("iter %d: PairConflicts=%v, semantics=%v\ns1=%v\ns2=%v", iter, got, conflictSem, s1, s2)
		}
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTokenize(t *testing.T) {
	syms := []oplog.Sym{
		{Kind: adt.KindNumAdd, N: 3, Int: true},
		{Kind: adt.KindNumStore, N: -1, Int: true},
		{Kind: adt.KindNumLoad},
	}
	toks, ok := Tokenize(syms)
	if !ok || len(toks) != 3 {
		t.Fatalf("Tokenize failed: %v %v", toks, ok)
	}
	if toks[0] != (Token{Kind: Add, Arg: 3}) || toks[1] != (Token{Kind: Store, Arg: -1}) || toks[2] != (Token{Kind: Load}) {
		t.Errorf("tokens = %v", toks)
	}
	if _, ok := Tokenize([]oplog.Sym{{Kind: adt.KindListPush, N: 1, Int: true}}); ok {
		t.Errorf("non-numeric kind must be rejected")
	}
	if _, ok := Tokenize([]oplog.Sym{{Kind: adt.KindNumAdd, Arg: "zzz"}}); ok {
		t.Errorf("unparsable arg must be rejected")
	}
	if a, ok := AnalyzeSyms(syms); !ok || a.Effect.A || a.Effect.B != -1 {
		t.Errorf("AnalyzeSyms = %v %v", a, ok)
	}
	if _, ok := AnalyzeSyms([]oplog.Sym{{Kind: "weird"}}); ok {
		t.Errorf("AnalyzeSyms must reject unknown kinds")
	}
}

func TestThenAssociative(t *testing.T) {
	err := quick.Check(func(a1, a2, a3 bool, b1, b2, b3 int8) bool {
		e1 := Effect{A: a1, B: int64(b1)}
		e2 := Effect{A: a2, B: int64(b2)}
		e3 := Effect{A: a3, B: int64(b3)}
		l := e1.Then(e2).Then(e3)
		r := e1.Then(e2.Then(e3))
		return l == r
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestTokenString(t *testing.T) {
	if (Token{Kind: Add, Arg: 2}).String() != "add(2)" ||
		(Token{Kind: Store, Arg: 3}).String() != "store(3)" ||
		(Token{Kind: Load}).String() != "load" {
		t.Errorf("token strings wrong")
	}
	if (Effect{A: true, B: 2}).String() != "x+2" || (Effect{A: false, B: 3}).String() != "const 3" {
		t.Errorf("effect strings wrong")
	}
}

// TestAgreesWithAffineTheory cross-validates the generalized register
// theory against the specialized affine theory (affine_theory_test.go) on
// random numeric sequences: both must produce identical conflict
// verdicts.
func TestAgreesWithAffineTheory(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	gen := func() []oplog.Sym {
		n := 1 + rng.Intn(5)
		out := make([]oplog.Sym, n)
		for i := range out {
			switch rng.Intn(3) {
			case 0:
				out[i] = oplog.Sym{Kind: adt.KindNumAdd, N: int64(rng.Intn(9) - 4), Int: true}
			case 1:
				out[i] = oplog.Sym{Kind: adt.KindNumStore, N: int64(rng.Intn(5)), Int: true}
			default:
				out[i] = oplog.Sym{Kind: adt.KindNumLoad}
			}
		}
		return out
	}
	for iter := 0; iter < 1000; iter++ {
		s1, s2 := gen(), gen()
		r1, ok1 := seqeff.AnalyzeRegister(s1)
		r2, ok2 := seqeff.AnalyzeRegister(s2)
		a1, okA1 := AnalyzeSyms(s1)
		a2, okA2 := AnalyzeSyms(s2)
		if !ok1 || !ok2 || !okA1 || !okA2 {
			t.Fatalf("iter %d: analyses failed: %v %v %v %v", iter, ok1, ok2, okA1, okA2)
		}
		reg := seqeff.PairConflicts(r1, r2)
		aff := PairConflicts(a1, a2)
		if reg != aff {
			t.Fatalf("iter %d: register says conflict=%v, affine says %v\ns1=%v\ns2=%v",
				iter, reg, aff, s1, s2)
		}
	}
}
