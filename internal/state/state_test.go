package state

import (
	"reflect"
	"testing"

	"repro/internal/relation"
)

func TestScalarValues(t *testing.T) {
	cases := []struct {
		v, same, diff Value
		str           string
	}{
		{Int(7), Int(7), Int(8), "7"},
		{Str("a"), Str("a"), Str("b"), "a"},
		{Bool(true), Bool(true), Bool(false), "true"},
	}
	for _, c := range cases {
		if !c.v.EqualValue(c.same) || c.v.EqualValue(c.diff) {
			t.Errorf("%v equality wrong", c.v)
		}
		if !c.v.EqualValue(c.v.CloneValue()) {
			t.Errorf("%v clone not equal", c.v)
		}
		if c.v.String() != c.str {
			t.Errorf("String = %q, want %q", c.v.String(), c.str)
		}
		// Cross-type comparisons are never equal.
		if c.v.EqualValue(&IntList{1}) {
			t.Errorf("%v equal to IntList", c.v)
		}
	}
}

func TestIntList(t *testing.T) {
	l := &IntList{1, 2, 3}
	c := l.CloneValue().(*IntList)
	(*c)[0] = 99
	if (*l)[0] != 1 {
		t.Fatalf("clone must not alias")
	}
	if !l.EqualValue(&IntList{1, 2, 3}) || l.EqualValue(&IntList{1, 2}) || l.EqualValue(&IntList{1, 2, 4}) {
		t.Errorf("equality wrong")
	}
	if l.String() != "[1 2 3]" {
		t.Errorf("String = %q", l.String())
	}
}

func TestRelValue(t *testing.T) {
	r := relation.New()
	r.Put("1", "a")
	rv := Rel{R: r}
	cl := rv.CloneValue().(Rel)
	cl.R.Put("2", "b")
	if r.Len() != 1 {
		t.Fatalf("clone must be deep")
	}
	if !rv.EqualValue(Rel{R: r.Clone()}) {
		t.Errorf("equal clones must compare equal")
	}
	if rv.EqualValue(cl) {
		t.Errorf("different relations must not compare equal")
	}
}

func TestStateBasics(t *testing.T) {
	s := New()
	if s.Len() != 0 {
		t.Fatalf("new state not empty")
	}
	s.Set("work", Int(0))
	s.Set("name", Str("x"))
	if v, ok := s.Get("work"); !ok || !v.EqualValue(Int(0)) {
		t.Errorf("Get work = %v %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Errorf("missing location must be unbound")
	}
	if got := s.Locs(); !reflect.DeepEqual(got, []Loc{"name", "work"}) {
		t.Errorf("Locs = %v", got)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestCloneAndEqual(t *testing.T) {
	s := New()
	s.Set("a", Int(1))
	s.Set("l", &IntList{5})
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatalf("clone must be equal")
	}
	c.Set("a", Int(2))
	if s.Equal(c) {
		t.Fatalf("modified clone must differ")
	}
	if v, _ := s.Get("a"); !v.EqualValue(Int(1)) {
		t.Fatalf("original mutated through clone")
	}
	// Deep: mutate list inside clone.
	c2 := s.Clone()
	lst, _ := c2.Get("l")
	(*lst.(*IntList))[0] = 42
	if orig, _ := s.Get("l"); (*orig.(*IntList))[0] != 5 {
		t.Fatalf("list clone not deep")
	}
	// Different domains are unequal.
	d := New()
	d.Set("a", Int(1))
	if s.Equal(d) {
		t.Fatalf("states with different domains must differ")
	}
}

func TestStateString(t *testing.T) {
	s := New()
	s.Set("b", Int(2))
	s.Set("a", Int(1))
	if got := s.String(); got != "⟨a↦1, b↦2⟩" {
		t.Errorf("String = %q", got)
	}
}

func TestFaultingStateMaterializesOnGet(t *testing.T) {
	source := map[Loc]Value{"a": Int(5), "l": &IntList{1, 2}}
	calls := 0
	st := NewFaulting(func(l Loc) (Value, bool) {
		calls++
		v, ok := source[l]
		return v, ok
	})
	if st.Len() != 0 {
		t.Fatalf("faulting state starts empty")
	}
	v, ok := st.Get("a")
	if !ok || !v.EqualValue(Int(5)) {
		t.Fatalf("Get a = %v %v", v, ok)
	}
	// Memoized: second Get must not fault again.
	if _, _ = st.Get("a"); calls != 1 {
		t.Fatalf("fault called %d times, want 1", calls)
	}
	if _, ok := st.Get("missing"); ok {
		t.Fatalf("missing loc must stay unbound")
	}
	// Mutations never reach the source (the fault clones).
	lv, _ := st.Get("l")
	(*lv.(*IntList))[0] = 99
	if (*source["l"].(*IntList))[0] != 1 {
		t.Fatalf("mutation leaked into the fault source")
	}
	// Set shadows the source.
	st.Set("a", Int(7))
	if v, _ := st.Get("a"); !v.EqualValue(Int(7)) {
		t.Fatalf("Set did not shadow: %v", v)
	}
}

func TestFaultingCloneSharesSource(t *testing.T) {
	st := NewFaulting(func(l Loc) (Value, bool) {
		if l == "x" {
			return Int(3), true
		}
		return nil, false
	})
	c := st.Clone()
	if v, ok := c.Get("x"); !ok || !v.EqualValue(Int(3)) {
		t.Fatalf("clone lost the fault source: %v %v", v, ok)
	}
}
