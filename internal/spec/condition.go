package spec

import (
	"fmt"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/seqeff"
	"repro/internal/state"
)

// The commutativity judgments at the heart of JANUS: the symbolic
// condition language that training proves and production evaluates, and
// the concrete SAMEREAD and COMMUTE checks of the projection-based
// CONFLICT algorithm (Figure 8, justified by Lemma 5.2) that verify it.
//
// An entry certifies, for a pair of abstract sequence shapes, which
// decision procedure soundly answers commutativity queries for concrete
// instances of those shapes:
//
//   - condAlways: the shapes commute for every instance (e.g. two add-only
//     reduction sequences) — no per-query work at all.
//   - condRegister: evaluate the register effect theory (internal/seqeff)
//     on the concrete pair; exact for add/store/load sequences, covering
//     the identity, reduction, equal-writes, and shared-as-local patterns.
//   - condStackIdentity: both stack sequences must be balanced (net
//     identity), the JFileSync monitor pattern.
//
// Production never trusts a condition that training (train.go) did not
// prove and verify, or that online learning did not prove.
//
// The concrete judgment (conflictConcrete) is training's verifier. It
// checks SAMEREAD for all read prefixes of a sequence in one lockstep
// pass over two clones of the entry state, one of which ran the other
// sequence first, so a pair costs O(|seq1|+|seq2|) op applications per
// entry state. The pass stops at the sequence's last read, where the
// per-prefix definition stops: training skips a sample whose ops fail,
// so an op no prefix reaches must not decide anything.

// conditionKind identifies the decision procedure cached for a shape pair.
type conditionKind int

// Condition kinds.
const (
	condNone conditionKind = iota
	condAlways
	condRegister
	condStackIdentity
)

// String renders the kind.
func (k conditionKind) String() string {
	switch k {
	case condAlways:
		return "always"
	case condRegister:
		return "register"
	case condStackIdentity:
		return "stack-identity"
	default:
		return "none"
	}
}

// strength ranks condition kinds by the strength of the commutativity
// claim they certify: condAlways (commutes for every instance) is the
// strongest, then condRegister (per-instance register-theory evaluation),
// then condStackIdentity (per-instance balance check); condNone certifies
// nothing. The order is total, which makes conflict resolution between
// training runs deterministic.
func (k conditionKind) strength() int {
	switch k {
	case condAlways:
		return 3
	case condRegister:
		return 2
	case condStackIdentity:
		return 1
	default:
		return 0
	}
}

// resolve deterministically combines two conditions proved for the same
// shape key: the weaker (lower-strength) non-None condition wins, since a
// stronger claim proved for one instance pair need not hold for every
// instance of the shape — e.g. Always proved on store(5)/store(5) must
// yield to Register proved on store(5)/store(6). resolve is commutative
// and associative, so merged cache contents are independent of the order
// training runs are observed or merged.
func resolve(a, b conditionKind) conditionKind {
	if a == condNone {
		return b
	}
	if b == condNone {
		return a
	}
	if b.strength() < a.strength() {
		return b
	}
	return a
}

// prove derives the strongest condition kind that soundly decides
// commutativity for concrete instances of the two sequences' shapes.
// It returns condNone when no theory covers the pair (the caller then
// leaves the query uncached, and production falls back to write-set
// detection).
func prove(s1, s2 []oplog.Sym) conditionKind {
	t1, t2 := seqeff.Classify(s1), seqeff.Classify(s2)
	switch {
	case t1 == seqeff.TheoryRegister && t2 == seqeff.TheoryRegister:
		if addOnly(s1) && addOnly(s2) {
			return condAlways
		}
		if loadOnly(s1) && loadOnly(s2) {
			return condAlways
		}
		return condRegister
	case t1 == seqeff.TheoryStack && t2 == seqeff.TheoryStack:
		return condStackIdentity
	default:
		return condNone
	}
}

func addOnly(s []oplog.Sym) bool {
	for _, x := range s {
		if x.Kind != adt.KindNumAdd {
			return false
		}
	}
	return len(s) > 0
}

func loadOnly(s []oplog.Sym) bool {
	for _, x := range s {
		switch x.Kind {
		case adt.KindNumLoad, adt.KindStrLoad, adt.KindBoolLoad, adt.KindRelGet, adt.KindRelHas, adt.KindListSize:
		default:
			return false
		}
	}
	return len(s) > 0
}

// Check identifies which leg of the per-location CONFLICT judgment
// (Figure 8) failed, for abort-reason attribution in the observability
// layer.
type Check int

// Checks.
const (
	// CheckNone: no check failed (the pair commutes).
	CheckNone Check = iota
	// CheckSameRead: a SAMEREAD precondition failed — some read of one
	// sequence would observe a different value after the other's effect.
	CheckSameRead
	// CheckCommute: the final COMMUTE test failed — the composite
	// effects do not commute.
	CheckCommute
	// CheckTheory: the sequences fell outside the cached condition's
	// theory (malformed query; callers answer conservatively).
	CheckTheory
)

// String renders the check name.
func (c Check) String() string {
	switch c {
	case CheckSameRead:
		return "same-read"
	case CheckCommute:
		return "commute"
	case CheckTheory:
		return "theory"
	default:
		return "none"
	}
}

// evaluate runs the cached condition on a concrete sequence pair,
// reporting whether the pair conflicts and, when it does, the first check
// of the Figure 8 judgment that rejected it. ok is false when the
// sequences do not actually fit the condition's theory (a malformed
// query; callers must then answer conservatively).
func evaluate(kind conditionKind, s1, s2 []oplog.Sym) (conflict bool, failed Check, ok bool) {
	switch kind {
	case condAlways:
		return false, CheckNone, true
	case condRegister:
		a1, ok1 := seqeff.AnalyzeRegister(s1)
		a2, ok2 := seqeff.AnalyzeRegister(s2)
		if !ok1 || !ok2 {
			return true, CheckTheory, false
		}
		if !seqeff.SameRead(a1, a2.Eff) || !seqeff.SameRead(a2, a1.Eff) {
			return true, CheckSameRead, true
		}
		if !seqeff.Commute(a1.Eff, a2.Eff) {
			return true, CheckCommute, true
		}
		return false, CheckNone, true
	case condStackIdentity:
		a1, ok1 := seqeff.AnalyzeStack(s1)
		a2, ok2 := seqeff.AnalyzeStack(s2)
		if !ok1 || !ok2 {
			return true, CheckTheory, false
		}
		// Balance is the stack identity condition: an unbalanced
		// sequence's composite effect fails COMMUTE.
		if seqeff.StackPairConflicts(a1, a2) {
			return true, CheckCommute, true
		}
		return false, CheckNone, true
	default:
		return true, CheckTheory, false
	}
}

// --- Concrete Figure 8 checks ---

// plocValue reads the value the projection location denotes in st: the
// scalar value for a plain location, or the value bound to the key (with
// adt.AbsentVal for unbound) for a relational one. This is the "s(l)" of
// the SAMEREAD and COMMUTE definitions instantiated at projection
// granularity. Whether a location is relational is decided by the value
// it holds, not by the key: the empty string is a key like any other.
func plocValue(st *state.State, p oplog.PLoc) (state.Value, error) {
	v, bound := st.Get(p.Loc)
	if !bound {
		return nil, fmt.Errorf("spec: unbound location %q", p.Loc)
	}
	rel, isRel := v.(state.Rel)
	if !isRel {
		if p.Key != "" {
			return nil, fmt.Errorf("spec: %q is not relational but PLoc %q has a key", p.Loc, p)
		}
		return v, nil
	}
	if val, ok := rel.R.Get(p.Key); ok {
		return state.Str(val), nil
	}
	return state.Str(adt.AbsentVal), nil
}

// applyAll replays a per-location event subsequence onto st.
func applyAll(st *state.State, seq oplog.Log) error {
	for _, e := range seq {
		if _, err := e.Op.Apply(st); err != nil {
			return err
		}
	}
	return nil
}

// sameReads is the concrete SAMEREAD check of Figure 8 for every read
// prefix of seq at once: after each read of seq, l's value is the same
// whether or not other ran first, starting from entry state s. One state
// runs seq alone and one runs other and then seq, in lockstep, so the
// check costs O(|seq|+|other|) op applications; Apply is deterministic,
// so after op i each state holds what a fresh replay of seq[:i+1] would.
// The pass stops at seq's last read: the per-prefix definition never runs
// an op past it, so an op there that fails must not turn into an error,
// and a sequence with no read applies nothing, not even other.
func sameReads(s *state.State, l oplog.PLoc, seq, other oplog.Log) (bool, error) {
	last := len(seq) - 1
	for last >= 0 && !seq[last].Op.IsRead() {
		last--
	}
	if last < 0 {
		return true, nil
	}
	alone, after := s.Clone(), s.Clone()
	if err := applyAll(after, other); err != nil {
		return false, err
	}
	for _, e := range seq[:last+1] {
		if _, err := e.Op.Apply(alone); err != nil {
			return false, err
		}
		if _, err := e.Op.Apply(after); err != nil {
			return false, err
		}
		if !e.Op.IsRead() {
			continue
		}
		v1, err := plocValue(alone, l)
		if err != nil {
			return false, err
		}
		v2, err := plocValue(after, l)
		if err != nil {
			return false, err
		}
		if !v1.EqualValue(v2) {
			return false, nil
		}
	}
	return true, nil
}

// commutes is the concrete COMMUTE check of Figure 8: l's value is the
// same under both execution orders starting from entry state s.
func commutes(s *state.State, l oplog.PLoc, seq1, seq2 oplog.Log) (bool, error) {
	ab := s.Clone()
	if err := applyAll(ab, seq1); err != nil {
		return false, err
	}
	if err := applyAll(ab, seq2); err != nil {
		return false, err
	}
	vab, err := plocValue(ab, l)
	if err != nil {
		return false, err
	}
	ba := s.Clone()
	if err := applyAll(ba, seq2); err != nil {
		return false, err
	}
	if err := applyAll(ba, seq1); err != nil {
		return false, err
	}
	vba, err := plocValue(ba, l)
	if err != nil {
		return false, err
	}
	return vab.EqualValue(vba), nil
}

// conflictConcrete is the idealized CONFLICT of Figure 8 executed
// concretely from entry state s: a conflict exists unless every read
// prefix of each sequence passes SAMEREAD and the pair passes COMMUTE.
// SAMEREAD runs as one lockstep pass per side (sameReads), so a pair
// costs O(|seq1|+|seq2|) op applications, and it answers exactly what a
// replay per read prefix answers: the same verdict, and an error on the
// same inputs. It is an offline oracle, not a runtime path (it needs the
// entry state, which the runtime does not keep): training uses it to
// validate learned conditions on observed instances, and the soundness
// tests use it as their reference.
func conflictConcrete(s *state.State, l oplog.PLoc, seq1, seq2 oplog.Log) (bool, error) {
	for _, side := range [...][2]oplog.Log{{seq1, seq2}, {seq2, seq1}} {
		same, err := sameReads(s, l, side[0], side[1])
		if err != nil {
			return true, err
		}
		if !same {
			return true, nil
		}
	}
	ok, err := commutes(s, l, seq1, seq2)
	if err != nil {
		return true, err
	}
	return !ok, nil
}
