package oplog

import (
	"reflect"
	"testing"

	"repro/internal/state"
)

// multiKind is a fake kind touching several projection locations at once
// (possibly the same one twice), exercising the per-access yield contract.
type multiKind struct {
	acc []Access
}

func (m *multiKind) Apply(Op, *state.State) (state.Value, error) { return nil, nil }
func (m *multiKind) AppendAccesses(_ Op, dst []Access, _ *state.State) []Access {
	return append(dst, m.acc...)
}
func (m *multiKind) Sym(Op) Sym       { return Sym{Kind: "multi"} }
func (m *multiKind) IsRead(Op) bool   { return false }
func (m *multiKind) String(Op) string { return "multi" }

// multiOp is an op of a multiKind with footprint acc.
func multiOp(acc []Access) Op { return Op{K: &multiKind{acc: acc}} }

// collect drains a SubseqIter.
func collect(it SubseqIter) Log {
	var out Log
	for {
		e, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// TestSubseqIterMatchesDecompose: for randomized logs on both sides of the
// linearScanAccesses boundary, the cursor over each discovered location
// must yield exactly the reference model's subsequence.
func TestSubseqIterMatchesDecompose(t *testing.T) {
	st := state.New()
	for n := 0; n < 8; n++ {
		st.Set(state.Loc(string(rune('a'+n))), state.Int(0))
	}
	var d Decomposer
	for _, total := range []int{0, 1, 5, 20, linearScanAccesses - 1, linearScanAccesses, linearScanAccesses + 10, 4 * linearScanAccesses} {
		l := randDecomposeLog(st, 6, total, total)
		want := refDecompose(l)
		locs := d.Stream(l)
		if len(locs) != len(want) {
			t.Fatalf("total=%d: Stream found %d locations, want %d", total, len(locs), len(want))
		}
		for _, li := range locs {
			if li.N != len(want[li.P]) {
				t.Fatalf("total=%d: loc %q count = %d, want %d", total, li.P, li.N, len(want[li.P]))
			}
			if got := collect(d.Iter(li.P)); !reflect.DeepEqual(got, want[li.P]) {
				t.Fatalf("total=%d: cursor subsequence for %q differs from the model", total, li.P)
			}
		}
	}
}

// TestSubseqIterMultiAccess: an event accessing a location twice appears
// twice in that location's subsequence, and an absent location yields an
// empty iteration.
func TestSubseqIterMultiAccess(t *testing.T) {
	e1 := mkEvent(1, 0, multiOp([]Access{{P: PLoc{Loc: "x"}, Write: true}, {P: PLoc{Loc: "y"}, Read: true}}), nil)
	e2 := mkEvent(1, 1, multiOp([]Access{{P: PLoc{Loc: "x"}, Read: true}, {P: PLoc{Loc: "x"}, Write: true}}), nil)
	l := Log{e1, e2}
	want := refDecompose(l)
	var d Decomposer
	d.Stream(l)
	for _, p := range []PLoc{{Loc: "x"}, {Loc: "y"}, {Loc: "absent"}} {
		got := collect(d.Iter(p))
		if !reflect.DeepEqual(got, want[p]) {
			t.Fatalf("subsequence at %q = %v, want %v", p, got, want[p])
		}
	}
	if got := collect(d.Iter(PLoc{Loc: "x"})); len(got) != 3 {
		t.Fatalf("x subsequence has %d events, want 3 (e2 twice)", len(got))
	}
}

// TestStreamReuseAndRelease: a Decomposer must serve cursors correctly
// across reuse (alternating with plain Decompose calls, on both sides of
// the scan/map boundary) and forget the last log on Release — including
// the index mode, so a cursor asked for afterwards is empty rather than
// a read through a stale index.
func TestStreamReuseAndRelease(t *testing.T) {
	st := state.New()
	for n := 0; n < 8; n++ {
		st.Set(state.Loc(string(rune('a'+n))), state.Int(0))
	}
	var d Decomposer
	for _, total := range []int{30, 3, 0, 7, linearScanAccesses + 5} {
		l := randDecomposeLog(st, 6, total, total)
		want := refDecompose(l)
		d.Decompose(randDecomposeLog(st, 3, 9, total+1))
		locs := d.Stream(l)
		if len(locs) != len(want) {
			t.Fatalf("total=%d: %d locations after reuse, want %d", total, len(locs), len(want))
		}
		for i := range locs {
			got := collect(d.Iter(locs[i].P))
			if !reflect.DeepEqual(got, want[locs[i].P]) {
				t.Fatalf("total=%d: cursor subsequence for %q differs after reuse", total, locs[i].P)
			}
		}
	}
	if !d.useMap {
		t.Fatal("the last log must be a map-mode one for the Release check below")
	}
	d.Release()
	if len(d.infos) != 0 {
		t.Fatal("Release left location infos behind")
	}
	if got := collect(d.Iter(PLoc{Loc: "a"})); got != nil {
		t.Fatal("Iter after Release must yield nothing")
	}
}
