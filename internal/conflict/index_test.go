package conflict

import (
	"math/rand"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/adt"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/state"
)

// indexState holds 200 counters and four relations, each with the empty
// key and one other bound, so that a clear touches several keys from the
// start.
func indexState() *state.State {
	st := state.New()
	for i := 0; i < 200; i++ {
		st.Set(state.Loc("c"+strconv.Itoa(i)), state.Int(0))
	}
	for j := 0; j < 4; j++ {
		loc := state.Loc("m" + strconv.Itoa(j))
		st.Set(loc, adt.NewRelValue())
		for _, op := range []oplog.Op{adt.RelPutOp{L: loc, Key: "", Val: "e"}.Op(), adt.RelPutOp{L: loc, Key: "k", Val: "v"}.Op()} {
			if _, err := op.Apply(st); err != nil {
				panic(err)
			}
		}
	}
	return st
}

// randIndexLog records ops ops of task over up to nLocs distinct
// projection locations of indexState: counter adds and loads, relation
// puts and gets (the empty key among the keys), and relation clears,
// whose footprint is every key bound at the time.
func randIndexLog(t *testing.T, rng *rand.Rand, st *state.State, task, nLocs, ops int) oplog.Log {
	t.Helper()
	if nLocs == 0 {
		return nil
	}
	var out []oplog.Op
	for i := 0; i < ops; i++ {
		u := rng.Intn(nLocs)
		if u%2 == 0 {
			loc := state.Loc("c" + strconv.Itoa(u))
			if rng.Intn(3) == 0 {
				out = append(out, adt.NumLoadOp{L: loc}.Op())
			} else {
				out = append(out, adt.NumAddOp{L: loc, Delta: int64(rng.Intn(4))}.Op())
			}
			continue
		}
		loc := state.Loc("m" + strconv.Itoa(u%4))
		key := "k" + strconv.Itoa(u)
		if u == 1 {
			key = ""
		}
		switch rng.Intn(8) {
		case 0:
			out = append(out, adt.RelClearOp{L: loc}.Op())
		case 1, 2, 3:
			out = append(out, adt.RelGetOp{L: loc, Key: key}.Op())
		default:
			out = append(out, adt.RelPutOp{L: loc, Key: key, Val: "v"}.Op())
		}
	}
	return record(t, st, task, out...)
}

// refFootprint folds a log's accesses into its footprint the direct way:
// shared locations in first-access order, write flags OR'd, fnv64a hash.
func refFootprint(l oplog.Log) []FootprintLoc {
	var out []FootprintLoc
	for _, e := range l {
		for _, a := range e.Accesses() {
			j := 0
			for j < len(out) && out[j].Loc != a.P.Loc {
				j++
			}
			if j == len(out) {
				out = append(out, FootprintLoc{Loc: a.P.Loc, Hash: fnv64a(string(a.P.Loc))})
			}
			out[j].Write = out[j].Write || a.Write
		}
	}
	return out
}

// TestIndexedProjectionsMatchReference: the footprint folded from the
// log's index equals the direct fold of its accesses, and the per-location
// decomposition read from the index's slots equals the reference
// decomposition (first-access order, program order within a location),
// each location carrying its join hash — over 0 to 200 distinct
// locations, scalar and keyed, with multi-location clears.
func TestIndexedProjectionsMatchReference(t *testing.T) {
	st := indexState()
	rng := rand.New(rand.NewSource(3))
	for _, nLocs := range []int{0, 1, 2, 5, 16, 31, 33, 64, 65, 100, 200} {
		for _, ops := range []int{1, 20, 31, 32, 3 * nLocs, 400} {
			l := randIndexLog(t, rng, st, 1, nLocs, ops)
			p := Prepare(l)
			if got, want := p.Footprint(), refFootprint(l); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("nLocs=%d ops=%d: Footprint = %v, want %v", nLocs, ops, got, want)
			}
			var order []oplog.PLoc
			ref := map[oplog.PLoc]oplog.Log{}
			for _, e := range l {
				for _, a := range e.Accesses() {
					if _, seen := ref[a.P]; !seen {
						order = append(order, a.P)
					}
					ref[a.P] = append(ref[a.P], e)
				}
			}
			locs := p.locations()
			if len(locs) != len(order) {
				t.Fatalf("nLocs=%d ops=%d: %d locations, want %d", nLocs, ops, len(locs), len(order))
			}
			for i := range locs {
				pl := &locs[i]
				if pl.p != order[i] || !reflect.DeepEqual(pl.seq, ref[pl.p]) {
					t.Fatalf("nLocs=%d ops=%d: location %d at %q differs from the reference", nLocs, ops, i, pl.p)
				}
				if pl.h != plocHash(pl.p) || len(pl.syms) != len(pl.seq) {
					t.Fatalf("nLocs=%d ops=%d: location %q carries hash %#x and %d descriptors", nLocs, ops, pl.p, pl.h, len(pl.syms))
				}
			}
			p.Recycle()
		}
	}
}

// plainJoin is Sequence.DetectPrepared's join without the hash screen:
// every location pair is compared by projection location alone.
func plainJoin(s *Sequence, txn *Prepared, committed []*Prepared) Verdict {
	tlocs := txn.locations()
	for _, c := range committed {
		clocs := c.locations()
		for i := range tlocs {
			for j := range clocs {
				lt, lc := &tlocs[i], &clocs[j]
				if lt.p != lc.p {
					continue
				}
				atomic.AddInt64(&s.stats.PairQueries, 1)
				if v := s.pairVerdict(obs.Ctx{}, lt, lc); v.Conflict {
					return v
				}
			}
		}
	}
	return Verdict{}
}

// TestHashScreenedJoinMatchesPlainJoin: comparing the memoized hashes
// before the projection locations changes no verdict and no query count.
func TestHashScreenedJoinMatchesPlainJoin(t *testing.T) {
	st := indexState()
	rng := rand.New(rand.NewSource(5))
	relax := NewRelaxations([]state.Loc{"c0", "m1"}, []state.Loc{"c2", "m1", "m2"})
	configs := []func() *Sequence{
		func() *Sequence { return NewSequence(nil, nil) },
		func() *Sequence { return NewSequence(nil, relax) },
		func() *Sequence { return NewSequence(trainedIdentityCache(t), relax) },
	}
	conflicts := 0
	for round := 0; round < 200; round++ {
		nLocs := []int{4, 16, 65, 200}[round%4]
		txn := Prepare(randIndexLog(t, rng, st, 0, nLocs, 1+rng.Intn(100)))
		window := make([]*Prepared, 3)
		for i := range window {
			window[i] = Prepare(randIndexLog(t, rng, st, i+1, nLocs, 1+rng.Intn(100)))
		}
		for k, mk := range configs {
			screened, plain := mk(), mk()
			got := screened.DetectPrepared(obs.Ctx{}, nil, txn, window)
			want := plainJoin(plain, txn, window)
			if got != want {
				t.Fatalf("round %d, detector %d: verdict %+v, plain join %+v", round, k, got, want)
			}
			if g, w := screened.Stats().PairQueries, plain.Stats().PairQueries; g != w {
				t.Fatalf("round %d, detector %d: %d pair queries, plain join %d", round, k, g, w)
			}
			if got.Conflict {
				conflicts++
			}
		}
		txn.Recycle()
		for _, c := range window {
			c.Recycle()
		}
	}
	if conflicts == 0 || conflicts == 200*len(configs) {
		t.Fatalf("%d of %d detections conflicted: the fixture exercises one verdict only", conflicts, 200*len(configs))
	}
}
