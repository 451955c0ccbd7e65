package lattice

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKeySetBasics(t *testing.T) {
	a := NewKeySet("x", "y")
	b := NewKeySet("y", "z")
	if got := a.Join(b).(KeySet).Keys(); !reflect.DeepEqual(got, []string{"x", "y", "z"}) {
		t.Errorf("join = %v", got)
	}
	if got := a.Meet(b).(KeySet).Keys(); !reflect.DeepEqual(got, []string{"y"}) {
		t.Errorf("meet = %v", got)
	}
	if got := a.Subtract(b).(KeySet).Keys(); !reflect.DeepEqual(got, []string{"x"}) {
		t.Errorf("subtract = %v", got)
	}
	if !a.Overlaps(b) {
		t.Errorf("a and b share y, should overlap")
	}
	if a.Overlaps(NewKeySet("q")) {
		t.Errorf("disjoint sets should not overlap")
	}
	if !EmptyKeySet().IsBottom() || a.IsBottom() {
		t.Errorf("bottom misclassified")
	}
	if !EmptyKeySet().Leq(a) || a.Leq(NewKeySet("x")) {
		t.Errorf("order wrong")
	}
	if a.String() != "{x,y}" {
		t.Errorf("String = %q", a.String())
	}
}

func TestKeySetHasLen(t *testing.T) {
	s := NewKeySet("a", "b", "b")
	if got := s.Keys(); len(got) != 2 {
		t.Errorf("Keys = %v, want 2 (duplicates collapse)", got)
	}
	if !s.Has("a") || s.Has("c") {
		t.Errorf("Has wrong")
	}
}

// genKeySet builds a small random KeySet for property tests.
func genKeySet(r *rand.Rand) KeySet {
	universe := []string{"a", "b", "c", "d", "e"}
	var ks []string
	for _, k := range universe {
		if r.Intn(2) == 0 {
			ks = append(ks, k)
		}
	}
	return NewKeySet(ks...)
}

func TestKeySetLatticeLaws(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			for i := range vs {
				vs[i] = reflect.ValueOf(genKeySet(r))
			}
		},
	}
	eq := func(a, b Sub) bool {
		return a.Leq(b) && b.Leq(a)
	}
	// Commutativity, associativity, absorption, and the subtraction law
	// (v − v′) ⊔ v′ ⊒ v.
	if err := quick.Check(func(a, b, c KeySet) bool {
		if !eq(a.Join(b), b.Join(a)) || !eq(a.Meet(b), b.Meet(a)) {
			return false
		}
		if !eq(a.Join(b).Join(c), a.Join(b.Join(c))) {
			return false
		}
		if !eq(a.Meet(b).Meet(c), a.Meet(b.Meet(c))) {
			return false
		}
		if !eq(a.Join(a.Meet(b)), a) || !eq(a.Meet(a.Join(b)), a) {
			return false
		}
		return a.Leq(a.Subtract(b).Join(b))
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestKeySetSubtractMinimality(t *testing.T) {
	// v − v′ must be the least w with w ⊔ v′ ⊒ v: removing any key from it
	// breaks coverage.
	a := NewKeySet("x", "y", "z")
	b := NewKeySet("y")
	d := a.Subtract(b).(KeySet)
	for _, k := range d.Keys() {
		smaller := d.Subtract(NewKeySet(k))
		if a.Leq(smaller.Join(b)) {
			t.Errorf("dropping %q from subtraction still covers a; not minimal", k)
		}
	}
}
