package oplog

import (
	"reflect"
	"testing"

	"repro/internal/state"
)

// fakeKind is a minimal kind for log-level tests: an add of N to the
// integer at L, or a load of it.
type fakeKind struct{ read bool }

func (f fakeKind) Apply(o Op, st *state.State) (state.Value, error) {
	v, _ := st.Get(o.L)
	iv, _ := v.(state.Int)
	if f.read {
		return iv, nil
	}
	st.Set(o.L, state.Int(int64(iv)+o.N))
	return nil, nil
}

func (f fakeKind) AppendAccesses(o Op, dst []Access, _ *state.State) []Access {
	return append(dst, Access{P: PLoc{Loc: o.L}, Read: true, Write: !f.read})
}

func (f fakeKind) Sym(o Op) Sym {
	if f.read {
		return Sym{Kind: "num.load"}
	}
	return Sym{Kind: "num.add", N: o.N, Int: true}
}
func (f fakeKind) IsRead(Op) bool     { return f.read }
func (f fakeKind) String(o Op) string { return "fake:" + string(o.L) }

// fakeAdd adds 1 to the integer at loc; fakeLoad reads it.
func fakeAdd(loc state.Loc) Op  { return Op{K: fakeKind{}, L: loc, N: 1} }
func fakeLoad(loc state.Loc) Op { return Op{K: fakeKind{read: true}, L: loc} }

// TestPLocRoundTrip: a projection location renders as "loc" or
// "loc#key", and a '#' in the location's own name stays in the location:
// the rendering is for output only and never splits a name.
func TestPLocRoundTrip(t *testing.T) {
	cases := []struct {
		p    PLoc
		want string
	}{
		{PLoc{Loc: "work"}, "work"},
		{PLoc{Loc: "bits", Key: "k=3"}, "bits#k=3"},
		{PLoc{Loc: "a#b"}, "a#b"},
		{PLoc{Loc: "a#b", Key: "k=1"}, "a#b#k=1"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("%#v renders %q, want %q", c.p, got, c.want)
		}
	}
	if (PLoc{Loc: "a#b"}) == (PLoc{Loc: "a", Key: "b"}) {
		t.Errorf("a location named a#b must differ from key b of location a")
	}
}

func mkEvent(task, seq int, op Op, st *state.State) *Event {
	e := NewEvent(op, task, seq, op.AppendAccesses(nil, st), nil)
	return &e
}

// TestEventFootprint: an event keeps a footprint of any length as its
// own, and a copy of the struct reads the footprint stored in the copy,
// not in the original, so the original's storage may be overwritten.
func TestEventFootprint(t *testing.T) {
	buf := make([]Access, 0, 4)
	for _, acc := range [][]Access{
		nil,
		{{P: PLoc{Loc: "x"}, Read: true}},
		{{P: PLoc{Loc: "x"}, Write: true}, {P: PLoc{Loc: "y"}, Read: true}, {P: PLoc{Loc: "x"}, Read: true}},
	} {
		buf = append(buf[:0], acc...)
		e := NewEvent(multiOp(nil), 1, 2, buf, state.Int(7))
		for i := range buf {
			buf[i] = Access{P: PLoc{Loc: "clobbered"}} // the caller reuses its buffer
		}
		if got := e.Accesses(); len(got) != len(acc) || (len(acc) > 0 && !reflect.DeepEqual(got, acc)) {
			t.Fatalf("footprint %v read back as %v", acc, got)
		}
		cp := e
		e = NewEvent(multiOp(nil), 0, 0, []Access{{P: PLoc{Loc: "other"}, Write: true}}, nil)
		if got := cp.Accesses(); len(got) != len(acc) || (len(acc) > 0 && !reflect.DeepEqual(got, acc)) {
			t.Fatalf("copied event's footprint %v read back as %v after the original was overwritten", acc, got)
		}
		if cp.Task != 1 || cp.Seq != 2 || !cp.Observed.EqualValue(state.Int(7)) {
			t.Fatalf("event fields lost: %+v", cp)
		}
	}
}

func TestReplay(t *testing.T) {
	st := state.New()
	st.Set("x", state.Int(0))
	add := fakeAdd("x")
	load := fakeLoad("x")
	l := Log{mkEvent(1, 0, add, st), mkEvent(1, 1, load, st), mkEvent(1, 2, add, st)}
	if err := l.Replay(st); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get("x"); !v.EqualValue(state.Int(2)) {
		t.Fatalf("x = %v, want 2 (loads are no-ops)", v)
	}
}

// refDecompose is the reference model of Figure 8's DECOMPOSE that the
// Decomposer is checked against: per-projection-location subsequences in
// program order, an event appearing once per access to the location.
func refDecompose(l Log) map[PLoc]Log {
	out := make(map[PLoc]Log)
	for _, e := range l {
		for _, a := range e.Accesses() {
			out[a.P] = append(out[a.P], e)
		}
	}
	return out
}

func TestDecompose(t *testing.T) {
	st := state.New()
	st.Set("x", state.Int(0))
	st.Set("y", state.Int(0))
	ax := mkEvent(1, 0, fakeAdd("x"), st)
	ay := mkEvent(1, 1, fakeAdd("y"), st)
	ax2 := mkEvent(1, 2, fakeAdd("x"), st)
	got := new(Decomposer).Decompose(Log{ax, ay, ax2})
	if len(got) != 2 || got[0].P != (PLoc{Loc: "x"}) || got[1].P != (PLoc{Loc: "y"}) {
		t.Fatalf("locations = %v, want [x y]", got)
	}
	if x := got[0].Seq; len(x) != 2 || x[0] != ax || x[1] != ax2 {
		t.Errorf("x subsequence wrong: %v", x)
	}
	if y := got[1].Seq; len(y) != 1 || y[0] != ay {
		t.Errorf("y subsequence wrong: %v", y)
	}
}

func TestSymsAndStrings(t *testing.T) {
	st := state.New()
	st.Set("x", state.Int(0))
	l := Log{mkEvent(3, 7, fakeAdd("x"), st)}
	syms := l.Syms()
	want := []Sym{{Kind: "num.add", N: 1, Int: true}}
	if !reflect.DeepEqual(syms, want) {
		t.Errorf("Syms = %v, want %v", syms, want)
	}
	if (Sym{Kind: "num.load"}).String() != "num.load" {
		t.Errorf("argless Sym string wrong")
	}
	if (Sym{Kind: "num.add", Arg: "2"}).String() != "num.add(2)" {
		t.Errorf("Sym string wrong")
	}
	if (Sym{Kind: "num.add", N: -300, Int: true}).String() != "num.add(-300)" {
		t.Errorf("integer Sym string wrong")
	}
	if got := l[0].String(); got != "t3/7:fake:x" {
		t.Errorf("event String = %q", got)
	}
	if got := l.String(); got != "[t3/7:fake:x]" {
		t.Errorf("log String = %q", got)
	}
}

// randDecomposeLog builds a log over nLocs scalar locations with total
// accesses, deterministic per seed.
func randDecomposeLog(st *state.State, nLocs, total, seed int) Log {
	var l Log
	for i := 0; i < total; i++ {
		loc := state.Loc(string(rune('a' + (i*7+seed*3)%nLocs)))
		l = append(l, mkEvent(1, i, fakeAdd(loc), st))
	}
	return l
}

func TestDecomposeOrderedMatchesDecompose(t *testing.T) {
	st := state.New()
	for n := 0; n < 8; n++ {
		st.Set(state.Loc(string(rune('a'+n))), state.Int(0))
	}
	// Cover both the linear-scan path and the map path (more than
	// linearScanAccesses accesses).
	for _, total := range []int{0, 1, 5, 20, linearScanAccesses + 10} {
		l := randDecomposeLog(st, 5, total, total)
		want := refDecompose(l)
		got := new(Decomposer).Decompose(l)
		if len(got) != len(want) {
			t.Fatalf("total=%d: %d locations, want %d", total, len(got), len(want))
		}
		for _, ps := range got {
			if !reflect.DeepEqual(ps.Seq, want[ps.P]) {
				t.Fatalf("total=%d: subsequence for %q differs from Decompose", total, ps.P)
			}
		}
	}
}

func TestDecomposeOrderedFirstAccessOrder(t *testing.T) {
	st := state.New()
	st.Set("x", state.Int(0))
	st.Set("y", state.Int(0))
	st.Set("z", state.Int(0))
	l := Log{
		mkEvent(1, 0, fakeAdd("y"), st),
		mkEvent(1, 1, fakeAdd("x"), st),
		mkEvent(1, 2, fakeAdd("y"), st),
		mkEvent(1, 3, fakeAdd("z"), st),
	}
	got := new(Decomposer).Decompose(l)
	wantOrder := []PLoc{{Loc: "y"}, {Loc: "x"}, {Loc: "z"}}
	if len(got) != len(wantOrder) {
		t.Fatalf("locations = %d, want %d", len(got), len(wantOrder))
	}
	for i, p := range wantOrder {
		if got[i].P != p {
			t.Fatalf("slot %d = %q, want %q (first-access order)", i, got[i].P, p)
		}
	}
	if len(got[0].Seq) != 2 || got[0].Seq[0] != l[0] || got[0].Seq[1] != l[2] {
		t.Fatalf("y subsequence not in program order")
	}
}

// TestDecomposerReuse: a Decomposer must produce correct results across
// reuse (shrinking and growing logs) and drop event references on
// Release.
func TestDecomposerReuse(t *testing.T) {
	st := state.New()
	for n := 0; n < 8; n++ {
		st.Set(state.Loc(string(rune('a'+n))), state.Int(0))
	}
	var d Decomposer
	for _, total := range []int{30, 3, 0, linearScanAccesses + 5, 7} {
		l := randDecomposeLog(st, 6, total, total)
		want := refDecompose(l)
		got := d.Decompose(l)
		if len(got) != len(want) {
			t.Fatalf("total=%d: %d locations, want %d", total, len(got), len(want))
		}
		for _, ps := range got {
			if !reflect.DeepEqual(ps.Seq, want[ps.P]) {
				t.Fatalf("total=%d: subsequence for %q differs after reuse", total, ps.P)
			}
		}
	}
	d.Release()
	for _, e := range d.arena {
		if e != nil {
			t.Fatal("Release left event references in the arena")
		}
	}
	if len(d.out) != 0 {
		t.Fatal("Release left subsequences behind")
	}
}
