// Package state models the shared memory JANUS synchronizes: a finite map
// from locations to values. Values are scalars (integers, strings,
// booleans) or relational ADT states (internal/relation). Transactions
// privatize the state at begin (CREATETRANSACTION; here a faulting view
// that copies a location on first access), mutate the private copy, and
// replay their logs onto the global state at commit.
package state

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/relation"
)

// Loc identifies a shared location, e.g. "work" or "monitor.itemsWeight".
type Loc string

// Value is a shared-memory value. Implementations must support cloning
// (for privatization: mutations of a clone never show in the original,
// whether by copying or by structural sharing) and equality (for
// SAMEREAD/COMMUTE checks).
//
// Scalars (Int, Str, Bool) are immutable. A mutable value — a relation
// (Rel) or a list (*IntList) — belongs to the one state it is bound in,
// and operations mutate it there in place: a put rewrites the relation's
// header, a push appends to the list. So a value read out of one state
// (or out of a committed store) is bound in another only through Copy,
// never as it is: the fault path, State.Clone and every store boundary
// copy, and Range hands out values for reading only.
type Value interface {
	CloneValue() Value
	EqualValue(Value) bool
	fmt.Stringer
}

// Copy returns a value independent of v: mutating one never shows in the
// other. Scalars are immutable, so the interface value is handed back as
// it is — calling CloneValue on them would re-box the same bits (a heap
// allocation per string or large integer); everything else clones.
func Copy(v Value) Value {
	switch v.(type) {
	case Int, Str, Bool:
		return v
	}
	return v.CloneValue()
}

// Int is a 64-bit integer scalar.
type Int int64

// CloneValue implements Value.
func (v Int) CloneValue() Value { return v }

// EqualValue implements Value.
func (v Int) EqualValue(o Value) bool {
	ov, ok := o.(Int)
	return ok && ov == v
}

// String implements Value.
func (v Int) String() string { return fmt.Sprintf("%d", int64(v)) }

// Str is a string scalar.
type Str string

// CloneValue implements Value.
func (v Str) CloneValue() Value { return v }

// EqualValue implements Value.
func (v Str) EqualValue(o Value) bool {
	ov, ok := o.(Str)
	return ok && ov == v
}

// String implements Value.
func (v Str) String() string { return string(v) }

// Bool is a boolean scalar.
type Bool bool

// CloneValue implements Value.
func (v Bool) CloneValue() Value { return v }

// EqualValue implements Value.
func (v Bool) EqualValue(o Value) bool {
	ov, ok := o.(Bool)
	return ok && ov == v
}

// String implements Value.
func (v Bool) String() string { return fmt.Sprintf("%t", bool(v)) }

// Rel wraps a relational ADT state as a Value.
type Rel struct{ R *relation.Relation }

// CloneValue implements Value. It is O(1): relation versions share
// structure (see relation.Clone).
func (v Rel) CloneValue() Value { return Rel{R: v.R.Clone()} }

// EqualValue implements Value.
func (v Rel) EqualValue(o Value) bool {
	ov, ok := o.(Rel)
	return ok && v.R.Equal(ov.R)
}

// String implements Value.
func (v Rel) String() string { return v.R.String() }

// IntList is an ordered list of integers (the JFileSync monitor stacks).
// The Value is the pointer, *IntList: list operations push and pop on the
// list bound in their state in place, so writing the result back binds
// nothing new.
type IntList []int64

// listHeadroom is the spare capacity a list gets when it is cloned or
// first pushed onto, so the pushes after a fault append without growing
// it.
const listHeadroom = 8

// CloneValue implements Value: a copy with room for listHeadroom pushes.
// An empty list's header and its room are one allocation: one object of
// 96 bytes where the header and the first Push made two of 24 and 64
// (and a copy no op touches costs 96 bytes where the header cost 24).
func (v *IntList) CloneValue() Value {
	if len(*v) == 0 {
		b := new(struct {
			l   IntList
			buf [listHeadroom]int64
		})
		b.l = b.buf[:0]
		return &b.l
	}
	c := make(IntList, len(*v), len(*v)+listHeadroom)
	copy(c, *v)
	return &c
}

// Push appends x in place. A list with no storage yet grows straight to
// listHeadroom elements.
func (v *IntList) Push(x int64) {
	if cap(*v) == 0 {
		*v = make(IntList, 0, listHeadroom)
	}
	*v = append(*v, x)
}

// EqualValue implements Value.
func (v *IntList) EqualValue(o Value) bool {
	ov, ok := o.(*IntList)
	return ok && slices.Equal(*v, *ov)
}

// String implements Value.
func (v *IntList) String() string {
	parts := make([]string, len(*v))
	for i, x := range *v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// State is the shared store: a map from locations to values. A state may
// be backed by a fault handler (NewFaulting) that lazily materializes
// locations from an immutable snapshot source — copy-on-access
// privatization (the paper's §4.1 versioning discussion), whose cost
// follows the transaction's footprint instead of the state's size.
type State struct {
	m     map[Loc]Value
	fault func(Loc) (Value, bool)
}

// New returns an empty state.
func New() *State { return &State{m: make(map[Loc]Value)} }

// NewSized returns an empty state with room for n locations, for a caller
// that knows how many it will bind: the map is not grown by doubling.
func NewSized(n int) *State { return &State{m: make(map[Loc]Value, n)} }

// NewFaulting returns a state that materializes unbound locations on
// demand from fault, cloning the faulted value so later mutations never
// reach the source. fault must return immutable snapshot values.
func NewFaulting(fault func(Loc) (Value, bool)) *State {
	return &State{m: make(map[Loc]Value), fault: fault}
}

// Reset unbinds every location, keeping the map's storage and the fault
// source: the state a pooled transaction shell hands its next transaction.
// Clearing costs in proportion to the most locations the state ever held,
// so a caller that pools states bounds that (stm drops outsized shells).
func (s *State) Reset() { clear(s.m) }

// Get returns the value at loc and whether it is bound.
func (s *State) Get(loc Loc) (Value, bool) {
	v, ok := s.m[loc]
	if !ok && s.fault != nil {
		if fv, found := s.fault(loc); found {
			v = Copy(fv)
			s.m[loc] = v
			return v, true
		}
	}
	return v, ok
}

// Set binds loc to v.
func (s *State) Set(loc Loc, v Value) { s.m[loc] = v }

// Len returns the number of bound locations.
func (s *State) Len() int { return len(s.m) }

// Range calls fn for every bound location, in no particular order, until
// fn returns false.
func (s *State) Range(fn func(Loc, Value) bool) {
	for l, v := range s.m {
		if !fn(l, v) {
			return
		}
	}
}

// Locs returns the bound locations in sorted order.
func (s *State) Locs() []Loc {
	out := make([]Loc, 0, len(s.m))
	for l := range s.m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns an independent copy of every bound location. A faulting
// state's clone shares the (immutable) fault source.
func (s *State) Clone() *State {
	c := &State{m: make(map[Loc]Value, len(s.m)), fault: s.fault}
	for l, v := range s.m {
		c.m[l] = Copy(v)
	}
	return c
}

// Equal reports deep equality of the two states.
func (s *State) Equal(o *State) bool {
	if len(s.m) != len(o.m) {
		return false
	}
	for l, v := range s.m {
		ov, ok := o.m[l]
		if !ok || !v.EqualValue(ov) {
			return false
		}
	}
	return true
}

// String renders the state canonically for traces and golden tests.
func (s *State) String() string {
	locs := s.Locs()
	parts := make([]string, len(locs))
	for i, l := range locs {
		parts[i] = fmt.Sprintf("%s↦%s", l, s.m[l])
	}
	return "⟨" + strings.Join(parts, ", ") + "⟩"
}
