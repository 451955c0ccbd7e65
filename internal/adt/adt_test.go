package adt

import (
	"strings"
	"testing"

	"repro/internal/oplog"
	"repro/internal/state"
)

// directExec applies ops straight to a state and records events, standing
// in for a transaction.
type directExec struct {
	st  *state.State
	log oplog.Log
}

func (d *directExec) Exec(op oplog.Op) (state.Value, error) {
	acc := op.AppendAccesses(nil, d.st)
	v, err := op.Apply(d.st)
	if err != nil {
		return nil, err
	}
	ev := oplog.NewEvent(op, 0, len(d.log), acc, v)
	d.log = append(d.log, &ev)
	return v, nil
}

func newExec() *directExec {
	st := state.New()
	st.Set("work", state.Int(0))
	st.Set("name", state.Str(""))
	st.Set("flag", state.Bool(false))
	st.Set("stack", state.IntList{})
	st.Set("bits", NewRelValue())
	st.Set("map", NewRelValue())
	st.Set("arr", NewRelValue())
	st.Set("canvas", NewRelValue())
	return &directExec{st: st}
}

func TestCounter(t *testing.T) {
	ex := newExec()
	c := Counter{L: "work"}
	if err := c.Add(ex, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Sub(ex, 2); err != nil {
		t.Fatal(err)
	}
	v, err := c.Load(ex)
	if err != nil || v != 3 {
		t.Fatalf("Load = %d, %v; want 3", v, err)
	}
	if err := c.Store(ex, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Load(ex); v != 42 {
		t.Fatalf("after Store, Load = %d", v)
	}
	// Sub logs a negative add.
	syms := ex.log.Syms()
	if syms[1].Kind != KindNumAdd || syms[1].Arg != "-2" {
		t.Errorf("Sub sym = %v", syms[1])
	}
}

func TestCounterErrors(t *testing.T) {
	ex := newExec()
	bad := Counter{L: "missing"}
	if err := bad.Add(ex, 1); err == nil {
		t.Errorf("Add on unbound loc must error")
	}
	if _, err := bad.Load(ex); err == nil {
		t.Errorf("Load on unbound loc must error")
	}
	wrong := Counter{L: "name"} // holds Str
	if err := wrong.Add(ex, 1); err == nil || !strings.Contains(err.Error(), "want Int") {
		t.Errorf("type mismatch must error, got %v", err)
	}
}

func TestStrAndBoolVars(t *testing.T) {
	ex := newExec()
	s := StrVar{L: "name"}
	if err := s.Store(ex, "file.go"); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Load(ex); err != nil || v != "file.go" {
		t.Fatalf("Load = %q, %v", v, err)
	}
	b := BoolVar{L: "flag"}
	if err := b.Store(ex, true); err != nil {
		t.Fatal(err)
	}
	if v, err := b.Load(ex); err != nil || !v {
		t.Fatalf("Load = %v, %v", v, err)
	}
	if _, err := (StrVar{L: "work"}).Load(ex); err == nil {
		t.Errorf("Str load of Int loc must error")
	}
	if _, err := (BoolVar{L: "work"}).Load(ex); err == nil {
		t.Errorf("Bool load of Int loc must error")
	}
}

func TestStack(t *testing.T) {
	ex := newExec()
	s := Stack{L: "stack"}
	for _, v := range []int64{10, 20, 30} {
		if err := s.Push(ex, v); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := s.Size(ex); n != 3 {
		t.Fatalf("Size = %d", n)
	}
	if v, err := s.Pop(ex); err != nil || v != 30 {
		t.Fatalf("Pop = %d, %v", v, err)
	}
	if n, _ := s.Size(ex); n != 2 {
		t.Fatalf("Size after pop = %d", n)
	}
	_, _ = s.Pop(ex)
	_, _ = s.Pop(ex)
	if _, err := s.Pop(ex); err == nil {
		t.Errorf("pop from empty stack must error")
	}
}

func TestBitSet(t *testing.T) {
	ex := newExec()
	b := BitSet{L: "bits"}
	if err := b.Set(ex, 3); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Get(ex, 3); !got {
		t.Errorf("bit 3 must be set")
	}
	if got, _ := b.Get(ex, 4); got {
		t.Errorf("bit 4 must be clear")
	}
	if err := b.Clear(ex, 3); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Get(ex, 3); got {
		t.Errorf("bit 3 must be cleared")
	}
	_ = b.Set(ex, 1)
	_ = b.Set(ex, 2)
	if err := b.ClearAll(ex); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if got, _ := b.Get(ex, i); got {
			t.Errorf("bit %d must be cleared by ClearAll", i)
		}
	}
}

func TestKVMap(t *testing.T) {
	ex := newExec()
	m := KVMap{L: "map"}
	if err := m.Put(ex, "COUNTER", "7"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := m.Get(ex, "COUNTER")
	if err != nil || !ok || v != "7" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := m.Get(ex, "absent"); ok {
		t.Errorf("absent key must report !ok")
	}
	if has, _ := m.Has(ex, "COUNTER"); !has {
		t.Errorf("Has must be true")
	}
	if err := m.Remove(ex, "COUNTER"); err != nil {
		t.Fatal(err)
	}
	if has, _ := m.Has(ex, "COUNTER"); has {
		t.Errorf("Has after Remove must be false")
	}
	// Removing an absent key is a read (observes absence), not a write.
	pre := len(ex.log)
	if err := m.Remove(ex, "COUNTER"); err != nil {
		t.Fatal(err)
	}
	e := ex.log[pre]
	if acc := e.Accesses(); len(acc) != 1 || !acc[0].Read || acc[0].Write {
		t.Errorf("remove-absent access = %+v, want pure read", acc)
	}
}

func TestIntArray(t *testing.T) {
	ex := newExec()
	a := IntArray{L: "arr"}
	if v, err := a.Get(ex, 9); err != nil || v != 0 {
		t.Fatalf("unset index must read 0, got %d, %v", v, err)
	}
	if err := a.Set(ex, 9, -5); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.Get(ex, 9); v != -5 {
		t.Fatalf("Get = %d", v)
	}
}

func TestCanvas(t *testing.T) {
	ex := newExec()
	c := Canvas{L: "canvas"}
	if err := c.DrawPixel(ex, 2, 3, "white"); err != nil {
		t.Fatal(err)
	}
	// A pixel is the relational key "x:y".
	pixels := KVMap{L: "canvas"}
	col, ok, err := pixels.Get(ex, "2:3")
	if err != nil || !ok || col != "white" {
		t.Fatalf("pixel 2:3 = %q %v %v", col, ok, err)
	}
	if _, ok, _ := pixels.Get(ex, "0:0"); ok {
		t.Errorf("unpainted pixel must report !ok")
	}
}

// TestPutRefusesAbsentVal: a get observes AbsentVal for an unbound key,
// and the effect analysis reads a put of it as a remove, so a put of it
// would let detection admit orders that end in different states. Both
// handles that take a caller's value refuse it and log nothing.
func TestPutRefusesAbsentVal(t *testing.T) {
	ex := newExec()
	if err := (KVMap{L: "map"}).Put(ex, "k", AbsentVal); err == nil {
		t.Errorf("KVMap.Put(%q) succeeded", AbsentVal)
	}
	if err := (Canvas{L: "canvas"}).DrawPixel(ex, 0, 0, AbsentVal); err == nil {
		t.Errorf("Canvas.DrawPixel(%q) succeeded", AbsentVal)
	}
	if len(ex.log) != 0 {
		t.Errorf("a refused put logged %d ops", len(ex.log))
	}
}

func TestRelOpsOnWrongType(t *testing.T) {
	ex := newExec()
	m := KVMap{L: "work"} // Int location
	if err := m.Put(ex, "k", "v"); err == nil || !strings.Contains(err.Error(), "want Rel") {
		t.Errorf("Put on scalar loc must error, got %v", err)
	}
}

func TestRelClearAccessesListPresentKeys(t *testing.T) {
	ex := newExec()
	b := BitSet{L: "bits"}
	for _, i := range []int{5, 10, 1, 2} {
		_ = b.Set(ex, i)
	}
	op := RelClearOp{L: "bits"}
	acc := op.AppendAccesses(nil, ex.st)
	if len(acc) != 4 {
		t.Fatalf("clear accesses = %v, want 4 writes", acc)
	}
	for i, a := range acc {
		if !a.Write || a.Read {
			t.Errorf("clear access %+v must be a pure write", a)
		}
		if want := []string{"1", "10", "2", "5"}[i]; a.P != (oplog.PLoc{Loc: "bits", Key: want}) {
			t.Errorf("clear access %d names %v, want bits#%s: the keys in sorted order", i, a.P, want)
		}
	}
	// On an empty relation the clear has no footprint.
	_, _ = op.Apply(ex.st)
	if got := op.AppendAccesses(nil, ex.st); len(got) != 0 {
		t.Errorf("clear of empty relation must have empty footprint, got %v", got)
	}
}

// TestLoadsReturnTheHeldValue: a load hands back the value the location
// holds, not a copy boxed again, so a warm load allocates nothing — for a
// string, and for an integer past the runtime's small-integer cache.
func TestLoadsReturnTheHeldValue(t *testing.T) {
	st := state.New()
	st.Set("s", state.Str("a string"))
	st.Set("n", state.Int(1<<40))
	st.Set("b", state.Bool(true))
	for _, c := range []struct {
		op  oplog.Op
		loc state.Loc
	}{{StrLoadOp{L: "s"}, "s"}, {NumLoadOp{L: "n"}, "n"}, {BoolLoadOp{L: "b"}, "b"}} {
		want, _ := st.Get(c.loc)
		var got state.Value
		allocs := testing.AllocsPerRun(100, func() { got, _ = c.op.Apply(st) })
		if !got.EqualValue(want) {
			t.Errorf("%v = %v, want %v", c.op, got, want)
		}
		if allocs != 0 {
			t.Errorf("%v allocates %.0f objects on a warm location, want 0", c.op, allocs)
		}
	}
}

// TestRelAccessesAllocateNothing: a relational op's projection location
// is the key itself, so appending its footprint to a warm buffer allocates
// nothing — clear's too, whose keys are sorted in place.
func TestRelAccessesAllocateNothing(t *testing.T) {
	st := state.New()
	m := NewRelValue()
	for _, k := range []string{"b", "a", "", "c,d", "e=f"} {
		m.R.Put(k, "1")
	}
	st.Set("m", m)
	dst := make([]oplog.Access, 0, 8)
	for _, op := range []oplog.Op{
		RelPutOp{L: "m", Key: "a", Val: "2"},
		RelRemoveOp{L: "m", Key: "a"},
		RelRemoveOp{L: "m", Key: "absent"},
		RelGetOp{L: "m", Key: "c,d"},
		RelHasOp{L: "m", Key: ""},
		RelClearOp{L: "m"},
	} {
		if allocs := testing.AllocsPerRun(100, func() { dst = op.AppendAccesses(dst[:0], st) }); allocs != 0 {
			t.Errorf("%v: AppendAccesses allocates %.0f objects, want 0", op, allocs)
		}
	}
}

func TestOpStringsAndSyms(t *testing.T) {
	cases := []struct {
		op   oplog.Op
		str  string
		kind string
		read bool
	}{
		{NumAddOp{L: "w", Delta: 2}, "w+=2", KindNumAdd, false},
		{NumStoreOp{L: "w", V: 3}, "w=3", KindNumStore, false},
		{NumLoadOp{L: "w"}, "load(w)", KindNumLoad, true},
		{StrStoreOp{L: "s", V: "a"}, `s="a"`, KindStrStore, false},
		{StrLoadOp{L: "s"}, "load(s)", KindStrLoad, true},
		{BoolStoreOp{L: "b", V: true}, "b=true", KindBoolStore, false},
		{BoolLoadOp{L: "b"}, "load(b)", KindBoolLoad, true},
		{ListPushOp{L: "l", V: 4}, "l.push(4)", KindListPush, false},
		{ListPopOp{L: "l"}, "l.pop()", KindListPop, true},
		{ListSizeOp{L: "l"}, "l.size()", KindListSize, true},
		{RelPutOp{L: "r", Key: "1", Val: "x"}, "r[1]=x", KindRelPut, false},
		{RelRemoveOp{L: "r", Key: "1"}, "del r[1]", KindRelRemove, false},
		{RelGetOp{L: "r", Key: "1"}, "r[1]", KindRelGet, true},
		{RelHasOp{L: "r", Key: "1"}, "r.has(1)", KindRelHas, true},
		{RelClearOp{L: "r"}, "r.clear()", KindRelClear, false},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.str {
			t.Errorf("String = %q, want %q", got, c.str)
		}
		if got := c.op.Sym().Kind; got != c.kind {
			t.Errorf("%s: Sym kind = %q, want %q", c.str, got, c.kind)
		}
		if got := c.op.IsRead(); got != c.read {
			t.Errorf("%s: IsRead = %v, want %v", c.str, got, c.read)
		}
	}
}
