package adt

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/oplog"
	"repro/internal/relation"
	"repro/internal/state"
)

// Relational operations act on state.Rel values: relations over columns
// {k, v} with functional dependency k → v, per the §6.1 convention that
// the FD specializes the relation into a function from locations (keys)
// to values. These are the abstract states of BitSet, KVMap, IntArray,
// Canvas and the custom ADTs.

// NewRelValue returns a fresh, empty ADT relation value.
func NewRelValue() state.Rel { return state.Rel{R: relation.New()} }

// AbsentVal is the observed value a RelGetOp returns for an unbound key.
const AbsentVal = "∅"

func getRel(st *state.State, l state.Loc) (*relation.Relation, error) {
	v, ok := st.Get(l)
	if !ok {
		return nil, fmt.Errorf("adt: unbound location %q", l)
	}
	rv, ok := v.(state.Rel)
	if !ok {
		return nil, fmt.Errorf("adt: location %q holds %T, want Rel", l, v)
	}
	return rv.R, nil
}

// relPLoc is key's projection location in the relation at l: the key
// itself, as the relation files it.
func relPLoc(l state.Loc, key string) oplog.PLoc { return oplog.PLoc{Loc: l, Key: key} }

// applyRel is OpKind.Apply for the relational kinds.
func (k OpKind) applyRel(o oplog.Op, st *state.State) (state.Value, error) {
	r, err := getRel(st, o.L)
	if err != nil {
		return nil, err
	}
	switch k {
	case RelPut:
		r.Put(o.Key, o.Val)
	case RelRemove:
		r.Delete(o.Key)
	case RelGet:
		v, bound := r.Get(o.Key)
		if !bound {
			return state.Str(AbsentVal), nil
		}
		return state.Str(v), nil
	case RelHas:
		_, bound := r.Get(o.Key)
		return state.Bool(bound), nil
	case RelClear:
		r.Clear()
	default:
		panic(fmt.Sprintf("adt: unknown op kind %d", k))
	}
	return nil, nil
}

// appendRemoveAccess is a remove's footprint. Per §6.2, removing an absent
// tuple reads the key (the op observes absence); removing a present one
// writes it.
func appendRemoveAccess(dst []oplog.Access, o oplog.Op, st *state.State) []oplog.Access {
	p := relPLoc(o.L, o.Key)
	if r, err := getRel(st, o.L); err == nil {
		if _, bound := r.Get(o.Key); !bound {
			return append(dst, oplog.Access{P: p, Read: true})
		}
	}
	return append(dst, oplog.Access{P: p, Write: true})
}

// appendClearAccesses is a clear's footprint. Its effect on keys absent in
// the pre-state is vacuous, so it writes each key present at execution
// time, in key order (computed dynamically, like the §6.2 remove rule).
func appendClearAccesses(dst []oplog.Access, o oplog.Op, st *state.State) []oplog.Access {
	r, err := getRel(st, o.L)
	if err != nil {
		return dst
	}
	start := len(dst)
	r.Each(func(k, _ string) bool {
		dst = append(dst, oplog.Access{P: relPLoc(o.L, k), Write: true})
		return true
	})
	slices.SortFunc(dst[start:], func(a, b oplog.Access) int { return strings.Compare(a.P.Key, b.P.Key) })
	return dst
}

// RelPutOp binds Key to Val in the relation at L ("insert" of Table 2).
type RelPutOp struct {
	L   state.Loc
	Key string
	Val string
}

// Op returns the operation.
func (o RelPutOp) Op() oplog.Op { return oplog.Op{K: RelPut, L: o.L, Key: o.Key, Val: o.Val} }

// Apply applies the operation to st, for callers that time a relational
// write outside any executor.
func (o RelPutOp) Apply(st *state.State) (state.Value, error) { return o.Op().Apply(st) }

// RelRemoveOp unbinds Key in the relation at L ("remove" of Table 2,
// applied to the matching tuple).
type RelRemoveOp struct {
	L   state.Loc
	Key string
}

// Op returns the operation.
func (o RelRemoveOp) Op() oplog.Op { return oplog.Op{K: RelRemove, L: o.L, Key: o.Key} }

// RelGetOp reads the value bound to Key ("select" pinned to the key);
// an absent key observes AbsentVal.
type RelGetOp struct {
	L   state.Loc
	Key string
}

// Op returns the operation.
func (o RelGetOp) Op() oplog.Op { return oplog.Op{K: RelGet, L: o.L, Key: o.Key} }

// Apply applies the operation to st, for callers that time a relational
// read outside any executor.
func (o RelGetOp) Apply(st *state.State) (state.Value, error) { return o.Op().Apply(st) }

// RelHasOp reads whether Key is bound.
type RelHasOp struct {
	L   state.Loc
	Key string
}

// Op returns the operation.
func (o RelHasOp) Op() oplog.Op { return oplog.Op{K: RelHas, L: o.L, Key: o.Key} }

// RelClearOp removes every binding of the relation at L.
type RelClearOp struct{ L state.Loc }

// Op returns the operation.
func (o RelClearOp) Op() oplog.Op { return oplog.Op{K: RelClear, L: o.L} }
