package adt

import (
	"math"
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
	st.Set("stack", &state.IntList{})
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
	if syms[1].Kind != KindNumAdd || !syms[1].Int || syms[1].N != -2 {
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
	if err := s.Store(ex, state.Str("file.go")); err != nil {
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
	op := RelClearOp{L: "bits"}.Op()
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
	}{{StrLoadOp{L: "s"}.Op(), "s"}, {NumLoadOp{L: "n"}.Op(), "n"}, {BoolLoadOp{L: "b"}.Op(), "b"}} {
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

// TestEqualStoreBindsNothing: a scalar store of the value its location
// already holds, of the same type, allocates nothing and leaves the state
// a blind Set would; a store of a new value, or of another type, binds
// it: a num.store boxes its integer, a str.store binds the box its op
// carries. On a view the compare faults the location in, which the store
// would have bound anyway.
func TestEqualStoreBindsNothing(t *testing.T) {
	const big = 1 << 20 // past the runtime's small-integer cache
	for _, c := range []struct {
		name   string
		held   state.Value
		op     oplog.Op
		want   state.Value
		allocs float64
	}{
		{"equal str", state.Str("black"), StrStoreOp{L: "x", V: state.Str("black")}.Op(), state.Str("black"), 0},
		{"equal num", state.Int(big), NumStoreOp{L: "x", V: big}.Op(), state.Int(big), 0},
		{"new str", state.Str("white"), StrStoreOp{L: "x", V: state.Str("black")}.Op(), state.Str("black"), 0},
		{"new num", state.Int(big), NumStoreOp{L: "x", V: big + 1}.Op(), state.Int(big + 1), 1},
		{"str over num", state.Int(big), StrStoreOp{L: "x", V: state.Str("1048576")}.Op(), state.Str("1048576"), 0},
		{"num over str", state.Str("1048576"), NumStoreOp{L: "x", V: big}.Op(), state.Int(big), 1},
		{"str over bool", state.Bool(true), StrStoreOp{L: "x", V: state.Str("true")}.Op(), state.Str("true"), 0},
	} {
		held := c.held
		blind := state.New()
		blind.Set("x", c.want)
		for _, view := range []bool{false, true} {
			st := state.New()
			if view {
				st = state.NewFaulting(func(l state.Loc) (state.Value, bool) { return held, l == "x" })
			} else {
				st.Set("x", held)
			}
			if _, err := c.op.Apply(st); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !st.Equal(blind) {
				t.Errorf("%s (view %v): %v leaves %v, a blind Set %v", c.name, view, c.op, st, blind)
			}
		}
		st := state.New()
		allocs := testing.AllocsPerRun(100, func() {
			st.Set("x", held)
			_, _ = c.op.Apply(st)
		})
		if allocs != c.allocs {
			t.Errorf("%s: %v over %v allocates %.0f objects, want %.0f", c.name, c.op, held, allocs, c.allocs)
		}
	}
}

// TestChangingStrStoreBindsItsBox: a str.store carries the value its
// caller boxed, and a store that changes its location binds that box
// without converting it: flipping a location between two boxed strings
// allocates nothing, applied directly or through StrVar.Store on a warm
// executor. Boxing the op's string at every changing store cost one
// object each. A value that is not a Str is refused before it is logged.
func TestChangingStrStoreBindsItsBox(t *testing.T) {
	// Built at run time, so no box comes from the binary's static data.
	black := state.Value(state.Str(strings.Repeat("black", 2)))
	white := state.Value(state.Str(strings.Repeat("white", 2)))
	st := state.New()
	st.Set("x", white)
	toBlack, toWhite := StrStoreOp{L: "x", V: black}.Op(), StrStoreOp{L: "x", V: white}.Op()
	if allocs := testing.AllocsPerRun(100, func() {
		_, _ = toBlack.Apply(st)
		_, _ = toWhite.Apply(st)
	}); allocs != 0 {
		t.Errorf("two changing str.stores of boxed values allocate %.0f objects, want 0", allocs)
	}
	ex := &warmExec{st: st, log: make([]oplog.Event, 0, 4)}
	x := StrVar{L: "x"}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = x.Store(ex, black)
		_ = x.Store(ex, white)
	}); allocs != 0 {
		t.Errorf("two changing StrVar.Stores of boxed values allocate %.0f objects, want 0", allocs)
	}
	if v, _ := st.Get("x"); v != white {
		t.Errorf("x holds %v, want %v", v, white)
	}
	if err := x.Store(ex, state.Int(1)); err == nil {
		t.Error("StrVar.Store of an Int succeeded")
	}
	if v, _ := st.Get("x"); v != white {
		t.Errorf("a refused store left x holding %v", v)
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
		RelPutOp{L: "m", Key: "a", Val: "2"}.Op(),
		RelRemoveOp{L: "m", Key: "a"}.Op(),
		RelRemoveOp{L: "m", Key: "absent"}.Op(),
		RelGetOp{L: "m", Key: "c,d"}.Op(),
		RelHasOp{L: "m", Key: ""}.Op(),
		RelClearOp{L: "m"}.Op(),
	} {
		if allocs := testing.AllocsPerRun(100, func() { dst = op.AppendAccesses(dst[:0], st) }); allocs != 0 {
			t.Errorf("%v: AppendAccesses allocates %.0f objects, want 0", op, allocs)
		}
	}
}

// warmExec is an executor in the runtime's shape (stm's Tx logging into
// its artifact): it computes an op's footprint into a buffer it reuses and
// logs the event, operation included, by value into storage it reuses.
type warmExec struct {
	st  *state.State
	acc []oplog.Access
	log []oplog.Event
}

func (w *warmExec) Exec(op oplog.Op) (state.Value, error) {
	w.acc = op.AppendAccesses(w.acc[:0], w.st)
	v, err := op.Apply(w.st)
	if err != nil {
		return nil, err
	}
	if len(w.log) == cap(w.log) {
		w.log = w.log[:0]
	}
	w.log = append(w.log, oplog.NewEvent(op, 1, len(w.log), w.acc, v))
	return v, nil
}

// TestHandlesAllocateOnlyTheirResults pins that a handle method called
// through a warm executor allocates what its operation's Apply allocates —
// the value it computes or returns, a relation's path copy — and nothing
// more: the operation is logged by value, not boxed. Canvas.DrawPixel
// renders its "x:y" key, one string of its own. Integers and stack
// heights are past the runtime's small-integer cache, so a boxed value
// shows. (A CustomObject's methods validate and render tuples, which
// allocates by design; they are not pinned here.)
func TestHandlesAllocateOnlyTheirResults(t *testing.T) {
	st := state.New()
	st.Set("n", state.Int(1<<20))
	st.Set("s", state.Str(""))
	st.Set("b", state.Bool(false))
	stack := make(state.IntList, 1000)
	for i := range stack {
		stack[i] = 1 << 20
	}
	st.Set("l", &stack)
	for _, l := range []state.Loc{"bits", "map", "arr", "canvas"} {
		st.Set(l, NewRelValue())
	}
	bits, m, arr, cv := BitSet{L: "bits"}, KVMap{L: "map"}, IntArray{L: "arr"}, Canvas{L: "canvas"}
	_ = m.Put(&warmExec{st: st}, "k", "v")
	_ = arr.Set(&warmExec{st: st}, 3, 42)
	cases := []struct {
		name string
		call func(Executor) error
		op   oplog.Op // what call logs
		own  float64  // what the handle allocates of its own
	}{
		{"Counter.Add", func(ex Executor) error { return Counter{L: "n"}.Add(ex, 1<<20) }, NumAddOp{L: "n", Delta: 1 << 20}.Op(), 0},
		{"Counter.Sub", func(ex Executor) error { return Counter{L: "n"}.Sub(ex, 1<<20) }, NumAddOp{L: "n", Delta: -1 << 20}.Op(), 0},
		{"Counter.Store", func(ex Executor) error { return Counter{L: "n"}.Store(ex, 1<<21) }, NumStoreOp{L: "n", V: 1 << 21}.Op(), 0},
		{"Counter.Load", func(ex Executor) error { _, err := Counter{L: "n"}.Load(ex); return err }, NumLoadOp{L: "n"}.Op(), 0},
		{"StrVar.Store", func(ex Executor) error { return StrVar{L: "s"}.Store(ex, state.Str("a.go")) }, StrStoreOp{L: "s", V: state.Str("a.go")}.Op(), 0},
		{"StrVar.Load", func(ex Executor) error { _, err := StrVar{L: "s"}.Load(ex); return err }, StrLoadOp{L: "s"}.Op(), 0},
		{"BoolVar.Store", func(ex Executor) error { return BoolVar{L: "b"}.Store(ex, true) }, BoolStoreOp{L: "b", V: true}.Op(), 0},
		{"BoolVar.Load", func(ex Executor) error { _, err := BoolVar{L: "b"}.Load(ex); return err }, BoolLoadOp{L: "b"}.Op(), 0},
		{"Stack.Push", func(ex Executor) error { return Stack{L: "l"}.Push(ex, 1<<20) }, ListPushOp{L: "l", V: 1 << 20}.Op(), 0},
		{"Stack.Pop", func(ex Executor) error { _, err := Stack{L: "l"}.Pop(ex); return err }, ListPopOp{L: "l"}.Op(), 0},
		{"Stack.Size", func(ex Executor) error { _, err := Stack{L: "l"}.Size(ex); return err }, ListSizeOp{L: "l"}.Op(), 0},
		{"BitSet.Set", func(ex Executor) error { return bits.Set(ex, 7) }, RelPutOp{L: "bits", Key: "7", Val: "1"}.Op(), 0},
		{"BitSet.Get", func(ex Executor) error { _, err := bits.Get(ex, 7); return err }, RelHasOp{L: "bits", Key: "7"}.Op(), 0},
		{"BitSet.Clear", func(ex Executor) error { return bits.Clear(ex, 7) }, RelRemoveOp{L: "bits", Key: "7"}.Op(), 0},
		{"BitSet.ClearAll", func(ex Executor) error { return bits.ClearAll(ex) }, RelClearOp{L: "bits"}.Op(), 0},
		{"KVMap.Put", func(ex Executor) error { return m.Put(ex, "k", "w") }, RelPutOp{L: "map", Key: "k", Val: "w"}.Op(), 0},
		{"KVMap.Get", func(ex Executor) error { _, _, err := m.Get(ex, "k"); return err }, RelGetOp{L: "map", Key: "k"}.Op(), 0},
		{"KVMap.Has", func(ex Executor) error { _, err := m.Has(ex, "k"); return err }, RelHasOp{L: "map", Key: "k"}.Op(), 0},
		{"KVMap.Remove", func(ex Executor) error { return m.Remove(ex, "gone") }, RelRemoveOp{L: "map", Key: "gone"}.Op(), 0},
		{"IntArray.Set", func(ex Executor) error { return arr.Set(ex, 3, 42) }, RelPutOp{L: "arr", Key: "3", Val: "42"}.Op(), 0},
		{"IntArray.Get", func(ex Executor) error { _, err := arr.Get(ex, 3); return err }, RelGetOp{L: "arr", Key: "3"}.Op(), 0},
		{"Canvas.DrawPixel", func(ex Executor) error { return cv.DrawPixel(ex, 1, 2, "white") }, RelPutOp{L: "canvas", Key: "1:2", Val: "white"}.Op(), 1},
	}
	for _, c := range cases {
		ex := &warmExec{st: st, log: make([]oplog.Event, 0, 4)}
		if err := c.call(ex); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := ex.log[0].Op; got != c.op {
			t.Fatalf("%s logged %v, want %v", c.name, got, c.op)
		}
		apply := testing.AllocsPerRun(100, func() { _, _ = c.op.Apply(st) })
		handle := testing.AllocsPerRun(100, func() { _ = c.call(ex) })
		if handle != apply+c.own {
			t.Errorf("%s through a warm executor allocates %.0f objects, want its op's Apply's %.0f + %.0f of its own", c.name, handle, apply, c.own)
		}
	}
}

// TestOpStringsAndSyms pins, for every kind, an op's rendering, its
// descriptor's rendering and whether it reads. The rows were computed when
// every argument was rendered into the descriptor as a string, so an
// integer argument, kept as an integer since, must render as it did then:
// negative ones and ones past the runtime's 0–99 cache of small-integer
// strings included.
func TestOpStringsAndSyms(t *testing.T) {
	cases := []struct {
		op   oplog.Op
		str  string
		sym  string
		read bool
	}{
		{NumAddOp{L: "c", Delta: 7}.Op(), "c+=7", "num.add(7)", false},
		{NumAddOp{L: "c", Delta: -300}.Op(), "c+=-300", "num.add(-300)", false},
		{NumAddOp{L: "c", Delta: 0}.Op(), "c+=0", "num.add(0)", false},
		{NumAddOp{L: "c", Delta: 99}.Op(), "c+=99", "num.add(99)", false},
		{NumAddOp{L: "c", Delta: 100}.Op(), "c+=100", "num.add(100)", false},
		{NumAddOp{L: "c", Delta: -1}.Op(), "c+=-1", "num.add(-1)", false},
		{NumAddOp{L: "c", Delta: math.MaxInt64}.Op(), "c+=9223372036854775807", "num.add(9223372036854775807)", false},
		{NumAddOp{L: "c", Delta: math.MinInt64}.Op(), "c+=-9223372036854775808", "num.add(-9223372036854775808)", false},
		{NumStoreOp{L: "c", V: 123456}.Op(), "c=123456", "num.store(123456)", false},
		{NumStoreOp{L: "c", V: -7}.Op(), "c=-7", "num.store(-7)", false},
		{NumLoadOp{L: "c"}.Op(), "load(c)", "num.load", true},
		{StrStoreOp{L: "s", V: state.Str("hello")}.Op(), "s=\"hello\"", "str.store(hello)", false},
		{StrStoreOp{L: "s", V: state.Str("")}.Op(), "s=\"\"", "str.store", false},
		{StrStoreOp{L: "s", V: state.Str("-42")}.Op(), "s=\"-42\"", "str.store(-42)", false},
		{StrLoadOp{L: "s"}.Op(), "load(s)", "str.load", true},
		{BoolStoreOp{L: "b", V: true}.Op(), "b=true", "bool.store(true)", false},
		{BoolStoreOp{L: "b", V: false}.Op(), "b=false", "bool.store(false)", false},
		{BoolLoadOp{L: "b"}.Op(), "load(b)", "bool.load", true},
		{ListPushOp{L: "l", V: -5}.Op(), "l.push(-5)", "list.push(-5)", false},
		{ListPushOp{L: "l", V: 250}.Op(), "l.push(250)", "list.push(250)", false},
		{ListPopOp{L: "l"}.Op(), "l.pop()", "list.pop", true},
		{ListSizeOp{L: "l"}.Op(), "l.size()", "list.size", true},
		{RelPutOp{L: "m", Key: "k", Val: "v"}.Op(), "m[k]=v", "rel.put(v)", false},
		{RelPutOp{L: "m", Key: "k", Val: ""}.Op(), "m[k]=", "rel.put", false},
		{RelRemoveOp{L: "m", Key: "k"}.Op(), "del m[k]", "rel.remove", false},
		{RelGetOp{L: "m", Key: ""}.Op(), "m[]", "rel.get", true},
		{RelHasOp{L: "m", Key: "k2"}.Op(), "m.has(k2)", "rel.has", true},
		{RelClearOp{L: "m"}.Op(), "m.clear()", "rel.clear", false},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.str {
			t.Errorf("String = %q, want %q", got, c.str)
		}
		if got := c.op.Sym().String(); got != c.sym {
			t.Errorf("%s: Sym = %q, want %q", c.str, got, c.sym)
		}
		if got := c.op.IsRead(); got != c.read {
			t.Errorf("%s: IsRead = %v, want %v", c.str, got, c.read)
		}
	}
}
