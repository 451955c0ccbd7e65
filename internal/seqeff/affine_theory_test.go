package seqeff_test

// The affine theory: the composite effect of single-location numeric
// operation sequences as affine functions, a closed-form special case of
// the register theory in seqeff that its verdicts are cross-checked
// against (TestAgreesWithAffineTheory).
//
// A sequence over one integer location composed of adds and stores denotes
// the function f(x) = A·x + B with A ∈ {0, 1}: adds keep A = 1 and
// accumulate into B; a store resets A = 0 and pins B. Loads denote the
// value of the running prefix. On this representation both checks of the
// CONFLICT algorithm (Figure 8) are closed-form:
//
//	COMMUTE:  f∘g = g∘f  ⇔  A1·B2 + B1 = A2·B1 + B2
//	SAMEREAD: every load of s1 is order-insensitive to s2
//	          ⇔ each load's prefix has A = 0, or s2 is the identity
//
// The theory directly captures the paper's patterns: reduction (add-only
// pairs always commute), identity (net-zero sequences commute with
// everything), equal-writes (store/store pairs commute iff the stored
// values agree), and shared-as-local (loads preceded by own stores are
// order-insensitive).

import (
	"fmt"

	"repro/internal/adt"
	"repro/internal/oplog"
)

// TokenKind classifies one numeric-sequence operation.
type TokenKind int

// Token kinds.
const (
	Add TokenKind = iota
	Store
	Load
)

// Token is one operation of a numeric sequence.
type Token struct {
	Kind TokenKind
	Arg  int64 // addend for Add, stored value for Store; unused for Load
}

// String renders the token.
func (t Token) String() string {
	switch t.Kind {
	case Add:
		return fmt.Sprintf("add(%d)", t.Arg)
	case Store:
		return fmt.Sprintf("store(%d)", t.Arg)
	default:
		return "load"
	}
}

// Effect is the affine function x ↦ A·x + B with A encoded as a boolean
// (true: coefficient 1, the input still flows through).
type Effect struct {
	A bool
	B int64
}

// Identity is the effect of the empty sequence.
var Identity = Effect{A: true, B: 0}

// IsIdentity reports whether the effect is x ↦ x.
func (e Effect) IsIdentity() bool { return e.A && e.B == 0 }

// Apply evaluates the effect at x.
func (e Effect) Apply(x int64) int64 {
	if e.A {
		return x + e.B
	}
	return e.B
}

// Then returns the composition g∘e: first e, then g.
func (e Effect) Then(g Effect) Effect {
	if g.A {
		return Effect{A: e.A, B: e.B + g.B}
	}
	return g
}

// String renders the effect.
func (e Effect) String() string {
	if e.A {
		return fmt.Sprintf("x+%d", e.B)
	}
	return fmt.Sprintf("const %d", e.B)
}

// Analysis is the full decomposition of a sequence: its composite effect
// and the prefix effect observed by each load.
type Analysis struct {
	Effect Effect
	Reads  []Effect // prefix effect immediately before each load
}

// Analyze folds the token sequence into its analysis.
func Analyze(tokens []Token) Analysis {
	eff := Identity
	var reads []Effect
	for _, t := range tokens {
		switch t.Kind {
		case Add:
			eff = eff.Then(Effect{A: true, B: t.Arg})
		case Store:
			eff = Effect{A: false, B: t.Arg}
		case Load:
			reads = append(reads, eff)
		}
	}
	return Analysis{Effect: eff, Reads: reads}
}

// Commute reports whether the two composite effects commute as functions:
// f∘g = g∘f on every input.
func Commute(f, g Effect) bool {
	// f(g(x)) = fg.B (+x if both A); compare the two compositions.
	fg := g.Then(f)
	gf := f.Then(g)
	return fg.A == gf.A && fg.B == gf.B
}

// SameRead reports whether every load in a is unaffected by executing the
// other sequence (with composite effect g) before a's sequence.
func SameRead(a Analysis, g Effect) bool {
	if g.IsIdentity() {
		return true
	}
	for _, prefix := range a.Reads {
		if prefix.A {
			// The load still sees the entry value; g changes it.
			return false
		}
	}
	return true
}

// PairConflicts runs the full per-location CONFLICT judgment of Figure 8
// on two analyzed sequences: a conflict exists unless both SAMEREAD checks
// and the COMMUTE check pass.
func PairConflicts(a, b Analysis) bool {
	if !SameRead(a, b.Effect) || !SameRead(b, a.Effect) {
		return true
	}
	return !Commute(a.Effect, b.Effect)
}

// Tokenize converts a per-location symbolic sequence into affine tokens.
// It returns ok = false when the sequence contains an operation outside
// the numeric theory (the caller then falls back to another theory or to
// write-set detection).
func Tokenize(syms []oplog.Sym) ([]Token, bool) {
	out := make([]Token, 0, len(syms))
	for _, s := range syms {
		switch s.Kind {
		case adt.KindNumAdd:
			if !s.Int {
				return nil, false
			}
			out = append(out, Token{Kind: Add, Arg: s.N})
		case adt.KindNumStore:
			if !s.Int {
				return nil, false
			}
			out = append(out, Token{Kind: Store, Arg: s.N})
		case adt.KindNumLoad:
			out = append(out, Token{Kind: Load})
		default:
			return nil, false
		}
	}
	return out, true
}

// AnalyzeSyms is Tokenize followed by Analyze.
func AnalyzeSyms(syms []oplog.Sym) (Analysis, bool) {
	toks, ok := Tokenize(syms)
	if !ok {
		return Analysis{}, false
	}
	return Analyze(toks), true
}
