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

// RelPutOp binds Key to Val in the relation at L ("insert" of Table 2).
type RelPutOp struct {
	L   state.Loc
	Key string
	Val string
}

// Apply implements oplog.Op.
func (o RelPutOp) Apply(st *state.State) (state.Value, error) {
	r, err := getRel(st, o.L)
	if err != nil {
		return nil, err
	}
	r.Put(o.Key, o.Val)
	return nil, nil
}

// AppendAccesses implements oplog.Op (the insert footprint of Table 3: a
// write of the key's subvalue).
func (o RelPutOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: relPLoc(o.L, o.Key), Write: true})
}

// Sym implements oplog.Op. The key is part of the projection location, so
// only the range value is the generalizable argument.
func (o RelPutOp) Sym() oplog.Sym { return oplog.Sym{Kind: KindRelPut, Arg: o.Val} }

// IsRead implements oplog.Op.
func (o RelPutOp) IsRead() bool { return false }

// String implements fmt.Stringer.
func (o RelPutOp) String() string { return fmt.Sprintf("%s[%s]=%s", o.L, o.Key, o.Val) }

// RelRemoveOp unbinds Key in the relation at L ("remove" of Table 2,
// applied to the matching tuple).
type RelRemoveOp struct {
	L   state.Loc
	Key string
}

// Apply implements oplog.Op.
func (o RelRemoveOp) Apply(st *state.State) (state.Value, error) {
	r, err := getRel(st, o.L)
	if err != nil {
		return nil, err
	}
	r.Delete(o.Key)
	return nil, nil
}

// AppendAccesses implements oplog.Op. Per §6.2, removing an absent tuple
// reads the key (the op observes absence); removing a present one writes
// it.
func (o RelRemoveOp) AppendAccesses(dst []oplog.Access, st *state.State) []oplog.Access {
	p := relPLoc(o.L, o.Key)
	if r, err := getRel(st, o.L); err == nil {
		if _, bound := r.Get(o.Key); !bound {
			return append(dst, oplog.Access{P: p, Read: true})
		}
	}
	return append(dst, oplog.Access{P: p, Write: true})
}

// Sym implements oplog.Op.
func (o RelRemoveOp) Sym() oplog.Sym { return oplog.Sym{Kind: KindRelRemove} }

// IsRead implements oplog.Op.
func (o RelRemoveOp) IsRead() bool { return false }

// String implements fmt.Stringer.
func (o RelRemoveOp) String() string { return fmt.Sprintf("del %s[%s]", o.L, o.Key) }

// RelGetOp reads the value bound to Key ("select" pinned to the key).
type RelGetOp struct {
	L   state.Loc
	Key string
}

// Apply implements oplog.Op. Absent keys observe AbsentVal.
func (o RelGetOp) Apply(st *state.State) (state.Value, error) {
	r, err := getRel(st, o.L)
	if err != nil {
		return nil, err
	}
	v, bound := r.Get(o.Key)
	if !bound {
		return state.Str(AbsentVal), nil
	}
	return state.Str(v), nil
}

// AppendAccesses implements oplog.Op.
func (o RelGetOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: relPLoc(o.L, o.Key), Read: true})
}

// Sym implements oplog.Op.
func (o RelGetOp) Sym() oplog.Sym { return oplog.Sym{Kind: KindRelGet} }

// IsRead implements oplog.Op.
func (o RelGetOp) IsRead() bool { return true }

// String implements fmt.Stringer.
func (o RelGetOp) String() string { return fmt.Sprintf("%s[%s]", o.L, o.Key) }

// RelHasOp reads whether Key is bound.
type RelHasOp struct {
	L   state.Loc
	Key string
}

// Apply implements oplog.Op.
func (o RelHasOp) Apply(st *state.State) (state.Value, error) {
	r, err := getRel(st, o.L)
	if err != nil {
		return nil, err
	}
	_, bound := r.Get(o.Key)
	return state.Bool(bound), nil
}

// AppendAccesses implements oplog.Op.
func (o RelHasOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: relPLoc(o.L, o.Key), Read: true})
}

// Sym implements oplog.Op.
func (o RelHasOp) Sym() oplog.Sym { return oplog.Sym{Kind: KindRelHas} }

// IsRead implements oplog.Op.
func (o RelHasOp) IsRead() bool { return true }

// String implements fmt.Stringer.
func (o RelHasOp) String() string { return fmt.Sprintf("%s.has(%s)", o.L, o.Key) }

// RelClearOp removes every binding of the relation at L. Its effect on keys
// absent in the pre-state is vacuous, so its footprint is a write of each
// key present at execution time, in key order (computed dynamically, like
// the §6.2 remove rule).
type RelClearOp struct{ L state.Loc }

// Apply implements oplog.Op.
func (o RelClearOp) Apply(st *state.State) (state.Value, error) {
	r, err := getRel(st, o.L)
	if err != nil {
		return nil, err
	}
	r.Clear()
	return nil, nil
}

// AppendAccesses implements oplog.Op.
func (o RelClearOp) AppendAccesses(dst []oplog.Access, st *state.State) []oplog.Access {
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

// Sym implements oplog.Op.
func (o RelClearOp) Sym() oplog.Sym { return oplog.Sym{Kind: KindRelClear} }

// IsRead implements oplog.Op.
func (o RelClearOp) IsRead() bool { return false }

// String implements fmt.Stringer.
func (o RelClearOp) String() string { return fmt.Sprintf("%s.clear()", o.L) }
