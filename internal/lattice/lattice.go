// Package lattice implements the subvalue lattice of JANUS §5.1.
//
// Values assigned to objects are assumed separable into subvalues ordered by
// a partial order ⊑ with join ⊔, meet ⊓, and a subtraction operator defined
// by v − v′ = min{w | w ⊔ v′ = v}. Operation footprints (read, written, and
// frame subvalues) are elements of this lattice, and a dependency between two
// operations exists iff their footprints overlap on a common location
// (Equation 1 in the paper).
//
// One instantiation is in use: KeySet, the powerset lattice over
// tuple/field keys for relational (ADT) locations, where an access touches
// a set of tuple keys. (Scalar locations need only the two-point lattice
// {⊥, ⊤}, which the detectors encode as an access's read/write flags.)
package lattice

import (
	"fmt"
	"sort"
	"strings"
)

// Sub is an element of a subvalue lattice. Implementations must be
// immutable: every operation returns a fresh element.
type Sub interface {
	// IsBottom reports whether the element is the least element ⊥
	// (the empty subvalue: no part of the location is touched).
	IsBottom() bool
	// Leq reports v ⊑ o. It is the partial order of the lattice.
	Leq(o Sub) bool
	// Join returns v ⊔ o, the least upper bound.
	Join(o Sub) Sub
	// Meet returns v ⊓ o, the greatest lower bound.
	Meet(o Sub) Sub
	// Subtract returns v − o = min{w | w ⊔ o ⊒ v}.
	Subtract(o Sub) Sub
	// Overlaps reports v ⊓ o ≠ ⊥, the dependency test of Equation 1.
	Overlaps(o Sub) bool
	// String renders the element for traces and tests.
	String() string
}

// KeySet is the powerset lattice over string keys, used for relational
// locations where a footprint is the set of tuple keys (or column names)
// an operation touches. The zero value is ⊥ (the empty set).
type KeySet struct {
	keys map[string]struct{}
}

// NewKeySet returns the KeySet containing exactly the given keys.
func NewKeySet(keys ...string) KeySet {
	m := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		m[k] = struct{}{}
	}
	return KeySet{keys: m}
}

// EmptyKeySet returns the ⊥ of the KeySet lattice.
func EmptyKeySet() KeySet { return KeySet{} }

// Has reports whether k is in the set.
func (s KeySet) Has(k string) bool {
	_, ok := s.keys[k]
	return ok
}

// Keys returns the keys in sorted order.
func (s KeySet) Keys() []string {
	out := make([]string, 0, len(s.keys))
	for k := range s.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// IsBottom implements Sub.
func (s KeySet) IsBottom() bool { return len(s.keys) == 0 }

// Leq implements Sub: subset inclusion.
func (s KeySet) Leq(o Sub) bool {
	os := o.(KeySet)
	for k := range s.keys {
		if !os.Has(k) {
			return false
		}
	}
	return true
}

// Join implements Sub: set union.
func (s KeySet) Join(o Sub) Sub {
	os := o.(KeySet)
	m := make(map[string]struct{}, len(s.keys)+len(os.keys))
	for k := range s.keys {
		m[k] = struct{}{}
	}
	for k := range os.keys {
		m[k] = struct{}{}
	}
	return KeySet{keys: m}
}

// Meet implements Sub: set intersection.
func (s KeySet) Meet(o Sub) Sub {
	os := o.(KeySet)
	m := make(map[string]struct{})
	for k := range s.keys {
		if os.Has(k) {
			m[k] = struct{}{}
		}
	}
	return KeySet{keys: m}
}

// Subtract implements Sub: set difference.
func (s KeySet) Subtract(o Sub) Sub {
	os := o.(KeySet)
	m := make(map[string]struct{})
	for k := range s.keys {
		if !os.Has(k) {
			m[k] = struct{}{}
		}
	}
	return KeySet{keys: m}
}

// Overlaps implements Sub.
func (s KeySet) Overlaps(o Sub) bool {
	os := o.(KeySet)
	// Iterate the smaller set.
	a, b := s, os
	if len(b.keys) < len(a.keys) {
		a, b = b, a
	}
	for k := range a.keys {
		if b.Has(k) {
			return true
		}
	}
	return false
}

// String implements Sub.
func (s KeySet) String() string {
	return fmt.Sprintf("{%s}", strings.Join(s.Keys(), ","))
}

// Footprint bundles the read and written subvalues of an operation's
// restriction to one location (op_s^r and op_s^w in §5.1).
type Footprint struct {
	Read  Sub
	Write Sub
}
