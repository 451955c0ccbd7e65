package adt_test

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/oplog"
	"repro/internal/relation"
	"repro/internal/state"
	"repro/internal/stm"
)

// routeSpec is a custom multi-column ADT: a routing table keyed by
// (src, dst) with cost and via columns.
func routeSpec() adt.CustomSpec {
	return adt.CustomSpec{
		Columns: []string{"src", "dst", "cost", "via"},
		Domain:  []string{"src", "dst"},
	}
}

func route(src, dst, cost, via string) relation.Tuple {
	return relation.Tuple{"src": src, "dst": dst, "cost": cost, "via": via}
}

func key(src, dst string) relation.Tuple {
	return relation.Tuple{"src": src, "dst": dst}
}

// directExec applies ops straight to a state.
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

func newObj(t *testing.T) (adt.CustomObject, *directExec) {
	t.Helper()
	st := state.New()
	obj, err := adt.NewCustom(st, "routes", routeSpec())
	if err != nil {
		t.Fatal(err)
	}
	return obj, &directExec{st: st}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		spec adt.CustomSpec
		ok   bool
	}{
		{"valid", routeSpec(), true},
		{"no columns", adt.CustomSpec{}, false},
		{"duplicate column", adt.CustomSpec{Columns: []string{"a", "a"}}, false},
		{"empty column", adt.CustomSpec{Columns: []string{""}}, false},
		{"domain not in schema", adt.CustomSpec{Columns: []string{"a"}, Domain: []string{"b"}}, false},
		{"domain covers everything", adt.CustomSpec{Columns: []string{"a"}, Domain: []string{"a"}}, false},
		{"no FD", adt.CustomSpec{Columns: []string{"a", "b"}}, true},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestPutGetDeleteHasClear(t *testing.T) {
	obj, ex := newObj(t)
	if err := obj.Put(ex, route("a", "b", "3", "r1")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := obj.Get(ex, key("a", "b"))
	if err != nil || !ok {
		t.Fatalf("Get = %v %v %v", got, ok, err)
	}
	if got["cost"] != "3" || got["via"] != "r1" {
		t.Fatalf("Get = %v", got)
	}
	// Re-put evicts the matching tuple (Table 2 insert).
	if err := obj.Put(ex, route("a", "b", "9", "r2")); err != nil {
		t.Fatal(err)
	}
	got, _, _ = obj.Get(ex, key("a", "b"))
	if got["cost"] != "9" {
		t.Fatalf("after re-put: %v", got)
	}
	if has, _ := obj.Has(ex, key("a", "b")); !has {
		t.Errorf("Has must be true")
	}
	if has, _ := obj.Has(ex, key("a", "z")); has {
		t.Errorf("absent key must report false")
	}
	if err := obj.Delete(ex, key("a", "b")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := obj.Get(ex, key("a", "b")); ok {
		t.Errorf("deleted key must be absent")
	}
	_ = obj.Put(ex, route("a", "b", "1", "r1"))
	_ = obj.Put(ex, route("b", "c", "2", "r1"))
	if err := obj.Clear(ex); err != nil {
		t.Fatal(err)
	}
	if has, _ := obj.Has(ex, key("b", "c")); has {
		t.Errorf("Clear must remove everything")
	}
}

func TestSchemaValidationErrors(t *testing.T) {
	obj, ex := newObj(t)
	if err := obj.Put(ex, relation.Tuple{"src": "a"}); err == nil {
		t.Errorf("partial tuple must be rejected")
	}
	if err := obj.Put(ex, relation.Tuple{"src": "a", "dst": "b", "cost": "1", "bogus": "x"}); err == nil {
		t.Errorf("wrong column must be rejected")
	}
	if _, _, err := obj.Get(ex, relation.Tuple{"src": "a"}); err == nil {
		t.Errorf("partial key must be rejected")
	}
	if err := obj.Delete(ex, relation.Tuple{"zzz": "1", "dst": "b"}); err == nil {
		t.Errorf("wrong key column must be rejected")
	}
}

func TestFootprintsArePerCompositeKey(t *testing.T) {
	obj, ex := newObj(t)
	if err := obj.Put(ex, route("a", "b", "3", "r1")); err != nil {
		t.Fatal(err)
	}
	acc := ex.log[0].Accesses()
	if len(acc) != 1 || !acc[0].Write {
		t.Fatalf("put accesses = %+v", acc)
	}
	if want := (oplog.PLoc{Loc: "routes", Key: "dst=b,src=a"}); acc[0].P != want {
		t.Fatalf("PLoc = %q, want %q", acc[0].P, want)
	}
	// Deleting an absent key observes absence (a read, §6.2).
	if err := obj.Delete(ex, key("q", "r")); err != nil {
		t.Fatal(err)
	}
	acc = ex.log[len(ex.log)-1].Accesses()
	if len(acc) != 1 || !acc[0].Read || acc[0].Write {
		t.Fatalf("delete-absent accesses = %+v", acc)
	}
}

func TestSymsReuseBuiltinKinds(t *testing.T) {
	obj, ex := newObj(t)
	_ = obj.Put(ex, route("a", "b", "3", "r1"))
	_, _, _ = obj.Get(ex, key("a", "b"))
	_ = obj.Delete(ex, key("a", "b"))
	_ = obj.Clear(ex)
	wantKinds := []string{adt.KindRelPut, adt.KindRelGet, adt.KindRelRemove, adt.KindRelClear}
	syms := ex.log.Syms()
	if len(syms) != len(wantKinds) {
		t.Fatalf("log = %v", syms)
	}
	for i, k := range wantKinds {
		if syms[i].Kind != k {
			t.Errorf("op %d kind = %q, want %q", i, syms[i].Kind, k)
		}
	}
	if syms[0].Arg != "cost=3,via=r1" {
		t.Errorf("put arg = %q", syms[0].Arg)
	}
}

// TestEndToEndEqualWritesOnCustomADT runs the full pipeline — training,
// cached conditions, the parallel runtime — over the custom schema: tasks
// writing equal route entries commute; different costs conflict and
// serialize.
func TestEndToEndEqualWritesOnCustomADT(t *testing.T) {
	newState := func() *state.State {
		st := state.New()
		if _, err := adt.NewCustom(st, "routes", routeSpec()); err != nil {
			t.Fatal(err)
		}
		return st
	}
	mkTask := func(cost string) adt.Task {
		return func(ex adt.Executor) error {
			obj := adt.CustomObject{L: "routes", S: routeSpec()}
			if err := obj.Put(ex, route("a", "b", cost, "r1")); err != nil {
				return err
			}
			_, _, err := obj.Get(ex, key("a", "b"))
			return err
		}
	}
	var tasks []adt.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, mkTask("3"))
	}
	engine := core.NewEngine(core.Options{})
	if err := engine.Train(newState(), tasks[:2]); err != nil {
		t.Fatal(err)
	}
	final, stats, err := stm.Run(stm.Config{Threads: 4, Detector: engine.Detector()}, newState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries != 0 {
		t.Fatalf("equal-writes custom ADT must not retry, got %d", stats.Retries)
	}
	v, _ := final.Get("routes")
	if v.(state.Rel).R.Len() != 1 {
		t.Fatalf("routes = %v", v)
	}
	// Different costs must be detected as a genuine conflict (and still
	// serialize correctly under the write-set baseline semantics).
	mixed := []adt.Task{mkTask("3"), mkTask("9")}
	seq, err := stm.RunSequential(newState(), mixed)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := stm.Run(stm.Config{Threads: 2, Ordered: true, Detector: conflict.NewWriteSet()}, newState(), mixed)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seq) {
		t.Fatalf("ordered mixed run diverged")
	}
}

func TestParseTupleRoundTrip(t *testing.T) {
	obj, ex := newObj(t)
	_ = obj.Put(ex, route("x", "y", "7", "gw"))
	got, ok, err := obj.Get(ex, key("x", "y"))
	if err != nil || !ok {
		t.Fatal(err)
	}
	for c, v := range map[string]string{"src": "x", "dst": "y", "cost": "7", "via": "gw"} {
		if got[c] != v {
			t.Errorf("%s = %q, want %q", c, got[c], v)
		}
	}
	if tp := relation.ParseKey(""); len(tp) != 0 {
		t.Errorf("empty parse = %v", tp)
	}
}

// TestKeysWithSeparatorsStayDistinct: a multi-column key whose values
// contain the rendering's separators names its own location, and a value
// holding them reads back whole.
func TestKeysWithSeparatorsStayDistinct(t *testing.T) {
	obj, ex := newObj(t)
	a, b := key("c", "a,src=b"), key("b,src=c", "a")
	if err := obj.Put(ex, route("c", "a,src=b", "1", "x")); err != nil {
		t.Fatal(err)
	}
	if err := obj.Put(ex, route("b,src=c", "a", "2", "y")); err != nil {
		t.Fatal(err)
	}
	for _, k := range []relation.Tuple{a, b} {
		if has, err := obj.Has(ex, k); err != nil || !has {
			t.Errorf("Has(%v) = %v, %v; want true", k, has, err)
		}
	}
	if v, _ := ex.st.Get(obj.L); v.(state.Rel).R.Len() != 2 {
		t.Errorf("two puts at distinct keys left %v", v)
	}

	evil := route("s", "d", "1,via=evil", "gw")
	if err := obj.Put(ex, evil); err != nil {
		t.Fatal(err)
	}
	got, ok, err := obj.Get(ex, key("s", "d"))
	if err != nil || !ok {
		t.Fatalf("Get: %v, %v", ok, err)
	}
	for c, v := range evil {
		if got[c] != v {
			t.Errorf("%s = %q, want %q", c, got[c], v)
		}
	}
}

func TestNewRejectsInvalidSpec(t *testing.T) {
	st := state.New()
	if _, err := adt.NewCustom(st, "x", adt.CustomSpec{}); err == nil {
		t.Fatalf("invalid spec must be rejected")
	}
}
