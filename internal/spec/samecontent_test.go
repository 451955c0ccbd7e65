package spec

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/state"
)

// The §6.2 equivalence in closed form (sameContent), checked against
// concrete replay with adt's relational ops from every entry relation of
// a small universe, the way state-chart commutativity analysis decides
// commutativity by enumerating small states.

const relLoc = "rel"

var (
	universeKeys = []string{"a", "b", "c"}
	universeVals = []string{"0", "1"}
	// numEntries is the number of relations over the universe: each key
	// is absent or bound to one of the values.
	numEntries = pow(len(universeVals)+1, len(universeKeys))
)

func pow(b, n int) int {
	p := 1
	for range n {
		p *= b
	}
	return p
}

var (
	clr    = adt.RelClearOp{L: relLoc}.Op()
	put    = func(k, v string) oplog.Op { return adt.RelPutOp{L: relLoc, Key: k, Val: v}.Op() }
	remove = func(k string) oplog.Op { return adt.RelRemoveOp{L: relLoc, Key: k}.Op() }
	get    = func(k string) oplog.Op { return adt.RelGetOp{L: relLoc, Key: k}.Op() }
)

// universeOps is every relational op over the universe: put, remove, get
// and has on each key, and clear.
func universeOps() []oplog.Op {
	var ops []oplog.Op
	for _, k := range universeKeys {
		for _, v := range universeVals {
			ops = append(ops, put(k, v))
		}
		ops = append(ops, remove(k), get(k), adt.RelHasOp{L: relLoc, Key: k}.Op())
	}
	return append(ops, clr)
}

// logOf wraps ops as a logged sequence, which is what sameContent reads.
func logOf(ops ...oplog.Op) oplog.Log {
	l := make(oplog.Log, len(ops))
	for i, op := range ops {
		ev := oplog.NewEvent(op, 1, i, nil, nil)
		l[i] = &ev
	}
	return l
}

// replay applies ops to the entry relation numbered entry (one base-3
// digit per key: 0 absent, d bound to universeVals[d-1]) and returns the
// number of the relation they leave.
func replay(t testing.TB, entry int, ops []oplog.Op) int {
	rv := adt.NewRelValue()
	for _, k := range universeKeys {
		if d := entry % (len(universeVals) + 1); d > 0 {
			rv.R.Put(k, universeVals[d-1])
		}
		entry /= len(universeVals) + 1
	}
	st := state.New()
	st.Set(relLoc, rv)
	for _, op := range ops {
		if _, err := op.Apply(st); err != nil {
			t.Fatalf("replaying %v: %v", ops, err)
		}
	}
	v, _ := st.Get(relLoc)
	r := v.(state.Rel).R
	out, bound := 0, 0
	for i := len(universeKeys) - 1; i >= 0; i-- {
		d := 0
		if val, ok := r.Get(universeKeys[i]); ok {
			bound++
			d = 1 + slices.Index(universeVals, val)
		}
		out = out*(len(universeVals)+1) + d
	}
	if bound != r.Len() {
		t.Fatalf("replaying %v left keys outside the universe: %v", ops, r)
	}
	return out
}

// commutesFromEvery replays a;b and b;a from every entry relation and
// reports whether each pair of results is equal.
func commutesFromEvery(t testing.TB, a, b []oplog.Op) bool {
	for r := range numEntries {
		ab := replay(t, r, append(append([]oplog.Op(nil), a...), b...))
		ba := replay(t, r, append(append([]oplog.Op(nil), b...), a...))
		if ab != ba {
			return false
		}
	}
	return true
}

// TestSameContentExhaustive: for every pair of sequences of length ≤ 2
// over the universe, the closed form says "equal" iff both orders leave
// equal relations from every entry relation. Replay is deterministic and
// the relation is the whole state, so a;b from r is b from what a leaves:
// each sequence is replayed once per entry and pairs compose the table.
func TestSameContentExhaustive(t *testing.T) {
	ops := universeOps()
	seqs := [][]oplog.Op{nil}
	for _, x := range ops {
		seqs = append(seqs, []oplog.Op{x})
	}
	for _, x := range ops {
		for _, y := range ops {
			seqs = append(seqs, []oplog.Op{x, y})
		}
	}
	next := make([][]int, len(seqs))
	logs := make([]oplog.Log, len(seqs))
	for i, s := range seqs {
		next[i] = make([]int, numEntries)
		for r := range numEntries {
			next[i][r] = replay(t, r, s)
		}
		logs[i] = logOf(s...)
	}
	var equal, differ int
	for i := range seqs {
		for j := range seqs {
			want := true
			for r := range numEntries {
				if next[j][next[i][r]] != next[i][next[j][r]] {
					want = false
					break
				}
			}
			if got := sameContent(logs[i], logs[j]); got != want {
				t.Fatalf("%v ⇄ %v: sameContent = %v, concrete replay from every entry says %v",
					seqs[i], seqs[j], got, want)
			}
			if want {
				equal++
			} else {
				differ++
			}
		}
	}
	if equal == 0 || differ == 0 {
		t.Fatalf("degenerate universe: %d equal, %d differ", equal, differ)
	}
}

// checkPairs checks that the closed form and concrete replay from every
// entry relation both give want for each pair of sequences.
func checkPairs(t *testing.T, want bool, pairs [][2][]oplog.Op) {
	t.Helper()
	for _, p := range pairs {
		if got := sameContent(logOf(p[0]...), logOf(p[1]...)); got != want {
			t.Errorf("%v ⇄ %v: sameContent = %v, want %v", p[0], p[1], got, want)
		}
		if got := commutesFromEvery(t, p[0], p[1]); got != want {
			t.Errorf("%v ⇄ %v: concrete replay says %v, want %v", p[0], p[1], got, want)
		}
	}
}

// TestTrivialEquivalences: sequences that write nothing, or whose last
// writes to every key they share are the same, agree.
func TestTrivialEquivalences(t *testing.T) {
	checkPairs(t, true, [][2][]oplog.Op{
		{nil, {clr}},
		{{get("a")}, {put("a", "0")}},
		{{remove("a")}, {remove("a")}},
		{{clr}, {remove("a")}},
		{{clr}, {clr, get("b")}},
		{{clr, put("a", "0")}, {put("a", "0")}},
		{{put("a", "0"), put("a", "1")}, {put("a", "1")}},
	})
}

// TestInsertOrderIndependence mirrors the paper's core use: set(1) and
// set(2) on a BitSet in either order leave the same content, as do any
// writes to disjoint keys.
func TestInsertOrderIndependence(t *testing.T) {
	checkPairs(t, true, [][2][]oplog.Op{
		{{put("a", "1")}, {put("b", "1")}},
		{{put("a", "0"), remove("b")}, {put("c", "1")}},
	})
}

func TestConflictingWritesDistinct(t *testing.T) {
	checkPairs(t, false, [][2][]oplog.Op{
		{{put("a", "0")}, {put("a", "1")}},
		{{clr}, {put("a", "0")}},
		{{remove("a")}, {put("a", "0")}},
		{{clr, put("a", "0")}, {put("a", "1")}},
	})
}

// TestRandomSequencesAgainstConcrete extends the exhaustive check to
// longer random sequences over the same universe.
func TestRandomSequencesAgainstConcrete(t *testing.T) {
	ops := universeOps()
	rng := rand.New(rand.NewSource(11))
	randSeq := func() []oplog.Op {
		s := make([]oplog.Op, 1+rng.Intn(6))
		for i := range s {
			s[i] = ops[rng.Intn(len(ops))]
		}
		return s
	}
	for iter := 0; iter < 200; iter++ {
		a, b := randSeq(), randSeq()
		want := commutesFromEvery(t, a, b)
		if got := sameContent(logOf(a...), logOf(b...)); got != want {
			t.Fatalf("iter %d: %v ⇄ %v: sameContent = %v, concrete replay says %v", iter, a, b, got, want)
		}
	}
}
