// Package seqeff analyzes the composite effect of per-location operation
// sequences, generalizing the numeric affine theory (affine_theory_test.go,
// kept as a cross-check) to all the operation kinds of the reproduction:
// numeric add/store/load, string and boolean stores/loads, per-key
// relational put/remove/get/has (a relational key behaves as a register
// whose "absent" value is a distinguished constant), and stack
// push/pop/size.
//
// The theory answers the three questions the hindsight engine asks:
//
//   - composite effect of a sequence (COMMUTE, Figure 8);
//   - stability of each internal read under a concurrent effect
//     (SAMEREAD, Lemma 5.2);
//   - idempotence of a subsequence (the Kleene-cross abstraction of §5.2,
//     Lemma 5.1).
package seqeff

import (
	"fmt"
	"strconv"

	"repro/internal/adt"
	"repro/internal/oplog"
)

// EffKind classifies a register effect.
type EffKind int

// Register effect kinds. Ident is the identity function; Add shifts a
// numeric value; Store pins the value regardless of input.
const (
	Ident EffKind = iota
	Add
	Store
)

// Effect is the composite effect of a register sequence: identity, a
// numeric shift by N, or a store. A store of an integer holds it in N
// with Num set, so the integer arguments of descriptors are never
// rendered; a store of anything else holds the rendered value in V.
type Effect struct {
	Kind EffKind
	N    int64  // Add: the shift; Store with Num: the stored integer
	V    string // Store without Num: the stored value, rendered
	Num  bool   // Store: the stored value is the integer N
}

// String renders the effect.
func (e Effect) String() string {
	switch e.Kind {
	case Ident:
		return "id"
	case Add:
		return fmt.Sprintf("x+%d", e.N)
	default:
		return "≔" + e.Stored()
	}
}

// Stored renders a store's value. An integer renders as its decimal
// digits, so a stored integer and the string of its digits are the same
// stored value, as they were when every argument was rendered.
func (e Effect) Stored() string {
	if e.Num {
		return strconv.FormatInt(e.N, 10)
	}
	return e.V
}

// sameStored reports whether two stores store the same value; it renders
// only when one of them stores an integer and the other does not.
func sameStored(a, b Effect) bool {
	if a.Num && b.Num {
		return a.N == b.N
	}
	if !a.Num && !b.Num {
		return a.V == b.V
	}
	return a.Stored() == b.Stored()
}

// IsIdent reports the identity effect.
func (e Effect) IsIdent() bool { return e.Kind == Ident }

// Then returns the composition g∘e (first e, then g). ok is false when
// the composition leaves the theory (an Add applied after a non-numeric
// Store).
func (e Effect) Then(g Effect) (Effect, bool) {
	switch g.Kind {
	case Ident:
		return e, true
	case Add:
		switch e.Kind {
		case Ident:
			return normAdd(g.N), true
		case Add:
			return normAdd(e.N + g.N), true
		default: // Store then Add: fold into the stored value if numeric
			n := e.N
			if !e.Num {
				var err error
				if n, err = strconv.ParseInt(e.V, 10, 64); err != nil {
					return Effect{}, false
				}
			}
			return Effect{Kind: Store, N: n + g.N, Num: true}, true
		}
	default: // Store wipes anything before it
		return g, true
	}
}

func normAdd(n int64) Effect {
	if n == 0 {
		return Effect{Kind: Ident}
	}
	return Effect{Kind: Add, N: n}
}

// Commute reports whether two effects commute as functions on every input.
func Commute(a, b Effect) bool {
	switch {
	case a.IsIdent() || b.IsIdent():
		return true
	case a.Kind == Add && b.Kind == Add:
		return true
	case a.Kind == Store && b.Kind == Store:
		return sameStored(a, b)
	default:
		// Add vs Store: the non-identity add shifts the store's result
		// in one order only.
		return false
	}
}

// Analysis decomposes a register sequence.
type Analysis struct {
	Eff Effect
	// ReadBeforeStore reports a read that precedes the sequence's first
	// store, so that the value it observes depends on the entry state. A
	// store, once composed in, stays a store (Effect.Then), so this is
	// exactly "some read's prefix effect is not a store": the one fact
	// SAMEREAD and idempotence need of the reads.
	ReadBeforeStore bool
}

// SameRead reports whether every read in a is unaffected by executing a
// concurrent sequence with composite effect g first: g is the identity,
// or every read follows a's first store.
func SameRead(a Analysis, g Effect) bool {
	return g.IsIdent() || !a.ReadBeforeStore
}

// PairConflicts runs the per-location CONFLICT judgment (Figure 8) on two
// register analyses: conflict unless both SAMEREAD checks and COMMUTE
// pass.
func PairConflicts(a, b Analysis) bool {
	if !SameRead(a, b.Eff) || !SameRead(b, a.Eff) {
		return true
	}
	return !Commute(a.Eff, b.Eff)
}

// Idempotent reports whether a register sequence is idempotent in the
// sense of Lemma 5.1: running it twice from any state is indistinguishable
// from running it once, for both the final state and every internal read.
// That holds when the composite effect is the identity (the second run
// starts where the first did), or when it is a store and every read
// follows the sequence's first store (the second run starts at the stored
// value, which its reads then observe identically).
func Idempotent(a Analysis) bool {
	switch a.Eff.Kind {
	case Ident:
		return true
	case Store:
		return !a.ReadBeforeStore
	default:
		return false
	}
}

// AnalyzeRegister folds a per-location symbolic sequence into its register
// analysis. ok is false when the sequence contains stack operations or an
// add whose delta is not an integer (Sym.Int) — callers then try the stack
// theory or give up. Integer arguments are read as integers, never parsed.
func AnalyzeRegister(syms []oplog.Sym) (Analysis, bool) {
	var a Analysis
	a.Eff = Effect{Kind: Ident}
	for _, s := range syms {
		var step Effect
		read := false
		switch s.Kind {
		case adt.KindNumAdd:
			if !s.Int {
				return Analysis{}, false
			}
			step = normAdd(s.N)
		case adt.KindNumStore, adt.KindStrStore, adt.KindBoolStore, adt.KindRelPut:
			step = Effect{Kind: Store, N: s.N, V: s.Arg, Num: s.Int}
		case adt.KindRelRemove, adt.KindRelClear:
			// Per-key semantics: removal stores the distinguished
			// "absent" value.
			step = Effect{Kind: Store, V: adt.AbsentVal}
		case adt.KindNumLoad, adt.KindStrLoad, adt.KindBoolLoad, adt.KindRelGet, adt.KindRelHas:
			read = true
		default:
			return Analysis{}, false
		}
		if read {
			a.ReadBeforeStore = a.ReadBeforeStore || a.Eff.Kind != Store
			continue
		}
		eff, ok := a.Eff.Then(step)
		if !ok {
			return Analysis{}, false
		}
		a.Eff = eff
	}
	return a, true
}

// --- Stack theory ---

// StackAnalysis summarizes a sequence of stack operations relative to the
// entry stack. The judgments need only heights, never the pushed values:
// the stack theory's one commuting case is two balanced sequences.
type StackAnalysis struct {
	// NetPops counts pops that consumed entry-state elements.
	NetPops int
	// NetPushes counts the sequence's own pushes still above the entry
	// level at its end.
	NetPushes int
	// PrestateRead reports whether any pop observed an entry-state value.
	PrestateRead bool
	// SizeReads counts size observations.
	SizeReads int
}

// Balanced reports net identity: the sequence restores the entry stack
// exactly and never consumed entry-state elements.
func (s StackAnalysis) Balanced() bool {
	return s.NetPops == 0 && s.NetPushes == 0 && !s.PrestateRead
}

// AnalyzeStack folds a sequence of stack operations. ok is false for
// non-stack kinds.
func AnalyzeStack(syms []oplog.Sym) (StackAnalysis, bool) {
	var sa StackAnalysis
	for _, s := range syms {
		switch s.Kind {
		case adt.KindListPush:
			sa.NetPushes++
		case adt.KindListPop:
			if sa.NetPushes > 0 {
				sa.NetPushes--
			} else {
				sa.NetPops++
				sa.PrestateRead = true
			}
		case adt.KindListSize:
			sa.SizeReads++
		default:
			return StackAnalysis{}, false
		}
	}
	return sa, true
}

// StackReadsStable reports whether every observation in a (pops of own
// pushes, size reads) is unaffected by running the other sequence first:
// pops are stable when they never consume entry-state elements, and size
// reads are stable when the other sequence's net height change is zero.
func StackReadsStable(a, other StackAnalysis) bool {
	if a.PrestateRead {
		// Pops reached the entry stack: the values observed depend on
		// what the other sequence left there.
		otherIdentity := other.NetPops == 0 && other.NetPushes == 0
		if !otherIdentity {
			return false
		}
	}
	if a.SizeReads > 0 {
		if other.NetPushes-other.NetPops != 0 {
			return false
		}
	}
	return true
}

// StackPairConflicts reports the CONFLICT judgment for two stack
// sequences. Two balanced (identity) sequences commute and read
// consistently in either order; anything else is conservatively a
// conflict. Size observations are stable because the identity concurrent
// sequence leaves the height unchanged.
func StackPairConflicts(a, b StackAnalysis) bool {
	return !(a.Balanced() && b.Balanced())
}

// IdempotentStack reports Lemma 5.1 idempotence for a stack sequence:
// balanced sequences restore the entry state, so a second run repeats the
// first exactly.
func IdempotentStack(a StackAnalysis) bool { return a.Balanced() }

// --- Theory dispatch ---

// Theory identifies which effect theory covers a sequence.
type Theory int

// Theories.
const (
	TheoryNone Theory = iota
	TheoryRegister
	TheoryStack
)

// String renders the theory.
func (t Theory) String() string {
	switch t {
	case TheoryRegister:
		return "register"
	case TheoryStack:
		return "stack"
	default:
		return "none"
	}
}

// Classify determines the covering theory of a symbolic sequence.
func Classify(syms []oplog.Sym) Theory {
	if _, ok := AnalyzeRegister(syms); ok {
		return TheoryRegister
	}
	if _, ok := AnalyzeStack(syms); ok {
		return TheoryStack
	}
	return TheoryNone
}

// BlockIdempotent reports whether a concrete symbolic block is idempotent
// under its covering theory — the predicate driving the Kleene-cross
// abstraction of §5.2: Idempotent(AnalyzeRegister(·)) when the register
// theory covers the block, IdempotentStack(AnalyzeStack(·)) when the
// stack theory does, false otherwise and for the empty block. seqabs asks
// once per candidate block per prepared location, and the analyses keep
// flags, counts and integers, so the question allocates nothing.
func BlockIdempotent(syms []oplog.Sym) bool {
	if len(syms) == 0 {
		return false
	}
	if a, ok := AnalyzeRegister(syms); ok {
		return Idempotent(a)
	}
	sa, ok := AnalyzeStack(syms)
	return ok && IdempotentStack(sa)
}
