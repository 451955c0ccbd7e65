package rec

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/state"
)

// randValue draws a value of any kind over small domains, so that random
// pairs collide on renderings (Int 1 and Str "1") often enough to matter.
func randValue(rng *rand.Rand) state.Value {
	switch rng.Intn(5) {
	case 0:
		return state.Int(rng.Intn(3))
	case 1:
		return state.Str(strconv.Itoa(rng.Intn(3)))
	case 2:
		return state.Bool(rng.Intn(2) == 0)
	case 3:
		l := state.IntList{}
		for n := rng.Intn(4); n > 0; n-- {
			l = append(l, int64(rng.Intn(3)))
		}
		return &l
	default:
		r := relation.New()
		for n := rng.Intn(6); n > 0; n-- {
			r.Put(strconv.Itoa(rng.Intn(8)), strconv.Itoa(rng.Intn(3)))
		}
		return state.Rel{R: r}
	}
}

// reordered returns an Equal state built in a different order: locations
// bound last to first, relations refilled from their bindings back to
// front.
func reordered(st *state.State) *state.State {
	out := state.New()
	locs := st.Locs()
	for i := len(locs) - 1; i >= 0; i-- {
		v, _ := st.Get(locs[i])
		if rel, ok := v.(state.Rel); ok {
			var kvs [][2]string
			rel.R.Each(func(k, v string) bool {
				kvs = append(kvs, [2]string{k, v})
				return true
			})
			slices.SortFunc(kvs, func(a, b [2]string) int { return strings.Compare(a[0], b[0]) })
			r := relation.New()
			for j := len(kvs) - 1; j >= 0; j-- {
				r.Put(kvs[j][0], kvs[j][1])
			}
			v = state.Rel{R: r}
		}
		out.Set(locs[i], v)
	}
	return out
}

// without returns st with loc unbound.
func without(st *state.State, loc state.Loc) *state.State {
	out := state.New()
	st.Range(func(l state.Loc, v state.Value) bool {
		if l != loc {
			out.Set(l, v)
		}
		return true
	})
	return out
}

// TestDigestFollowsEqual: over 10^4 random pairs, Equal states built in
// different orders digest the same — also across the state codec — and
// states that differ in one location, one value, one value's type or one
// tuple digest differently.
func TestDigestFollowsEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for pair := 0; pair < 10000; pair++ {
		a := state.New()
		for n := rng.Intn(6); n > 0; n-- {
			a.Set(state.Loc("l"+strconv.Itoa(rng.Intn(8))), randValue(rng))
		}
		b := reordered(a)
		if !a.Equal(b) || Digest(a) != Digest(b) {
			t.Fatalf("pair %d: %s rebuilt in another order: Equal %v, digests %016x %016x", pair, a, a.Equal(b), Digest(a), Digest(b))
		}
		if pair%10 == 0 {
			buf, err := EncodeState(a)
			if err != nil {
				t.Fatal(err)
			}
			if c, err := DecodeState(buf); err != nil || Digest(c) != Digest(a) {
				t.Fatalf("pair %d: %s digests %016x, decoded from its encoding %016x (%v)", pair, a, Digest(a), Digest(c), err)
			}
		}

		locs := b.Locs()
		what := "a location more"
		switch kind := rng.Intn(4); {
		case kind == 0 || len(locs) == 0:
			b.Set("more", randValue(rng))
		case kind == 1:
			what = "a location fewer"
			b = without(b, locs[rng.Intn(len(locs))])
		case kind == 2:
			what = "a location renamed"
			l := locs[rng.Intn(len(locs))]
			v, _ := b.Get(l)
			b = without(b, l)
			b.Set(l+"'", v)
		default:
			what = "a value changed"
			l := locs[rng.Intn(len(locs))]
			switch v, _ := b.Get(l); x := v.(type) {
			case state.Int: // same rendering, another type
				b.Set(l, state.Str(x.String()))
			case state.Str:
				b.Set(l, x+"'")
			case state.Bool:
				b.Set(l, !x)
			case *state.IntList:
				grown := append(state.IntList{7}, *x...)
				b.Set(l, &grown)
			case state.Rel:
				x.R.Put(strconv.Itoa(rng.Intn(8)), "changed")
			}
		}
		if a.Equal(b) || Digest(a) == Digest(b) {
			t.Fatalf("pair %d: %s and %s (%s): Equal %v, digests %016x %016x", pair, a, b, what, a.Equal(b), Digest(a), Digest(b))
		}
	}
}

// kvState is a state of a few scalars and one k→v relation of n tuples.
func kvState(n int) *state.State {
	st := state.New()
	st.Set("work", state.Int(n))
	st.Set("name", state.Str("tenant"))
	r := relation.New()
	for i := 0; i < n; i++ {
		r.Put(strconv.Itoa(i), "init")
	}
	st.Set("kv", state.Rel{R: r})
	return st
}

// TestDigestCostIgnoresTupleCount: a digest reads each relation's kept
// sum, so it allocates the same (nothing) at 16 and at 4096 tuples.
func TestDigestCostIgnoresTupleCount(t *testing.T) {
	small, large := kvState(16), kvState(4096)
	s := testing.AllocsPerRun(100, func() { _ = Digest(small) })
	l := testing.AllocsPerRun(100, func() { _ = Digest(large) })
	if s != l || l != 0 {
		t.Fatalf("Digest allocates %.0f times at 16 tuples and %.0f at 4096, want 0 and 0", s, l)
	}
}
