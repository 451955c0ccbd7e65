package stm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/state"
)

// TestStoreFaultsRaceCreation runs lock-free-side readers against the
// serialized writer the publication turn is: faults of base locations,
// of overflow locations and of locations not created yet, while one
// goroutine creates and overwrites overflow locations. Under -race this
// is the store's memory-model test; functionally a fault never sees a
// value other than one the writer stored, and once a location's creation
// has been observed it stays bound.
func TestStoreFaultsRaceCreation(t *testing.T) {
	const created, readers = 2000, 3
	initial := state.New()
	initial.Set("base", state.Int(-1))
	r := New(Config{}, initial)
	loc := func(i int) state.Loc { return state.Loc(fmt.Sprintf("new.%d", i)) }

	var upto atomic.Int64 // locations [0, upto) are created and stay bound
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; upto.Load() < created; i++ {
				if v, ok := r.storeGet("base"); !ok || !v.EqualValue(state.Int(-1)) {
					t.Errorf("base = %v, %v", v, ok)
					return
				}
				bound := upto.Load()
				l := (i*7 + w) % created
				v, ok := r.storeGet(loc(l))
				if int64(l) < bound && !ok {
					t.Errorf("%s unbound after its creation was published", loc(l))
					return
				}
				if ok && !v.EqualValue(state.Int(int64(l))) && !v.EqualValue(state.Int(int64(-l))) {
					t.Errorf("%s = %v, never stored", loc(l), v)
					return
				}
			}
		}(w)
	}
	for i := 0; i < created; i++ {
		r.storeSet(loc(i), valOf(state.Int(int64(i))))
		if i > 0 {
			r.storeSet(loc(i-1), valOf(state.Int(int64(-(i - 1))))) // overwrite: existing box, no creation
		}
		upto.Store(int64(i + 1))
	}
	wg.Wait()

	n := 0
	r.storeRange(func(state.Loc, state.Value) bool { n++; return true })
	if n != created+1 {
		t.Fatalf("storeRange visited %d locations, want %d", n, created+1)
	}
}

// valOf returns a fresh slot holding v, as a commit's value slab would.
func valOf(v state.Value) *state.Value { return &v }

// TestStoreCreateCostIsFlat: creating a location costs the same number of
// allocations into a store that already holds 100 mid-run locations as
// into one that holds 20 000 — its box, no path through the existing
// ones. (The value it publishes is a slot of the committing
// transaction's value slab, allocated outside the store.)
func TestStoreCreateCostIsFlat(t *testing.T) {
	createAllocs := func(existing int) float64 {
		r := New(Config{}, state.New())
		for i := 0; i < existing; i++ {
			r.storeSet(state.Loc(fmt.Sprintf("old.%d", i)), valOf(state.Int(1)))
		}
		const runs = 100
		names := make([]state.Loc, runs+1) // AllocsPerRun warms up with one extra call
		vals := make([]state.Value, runs+1)
		for i := range names {
			names[i] = state.Loc(fmt.Sprintf("new.%d", i))
			vals[i] = state.Int(1)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			r.storeSet(names[i], &vals[i])
			i++
		})
	}
	small, large := createAllocs(100), createAllocs(20000)
	if small != large {
		t.Fatalf("creating a location allocates %.0f times at 100 existing overflow locations, %.0f at 20000", small, large)
	}
	if small > 2 {
		t.Fatalf("creating a location allocates %.0f times, want its box (and an amortized share of its shard's map)", small)
	}
}

// TestStoreNewCostIsFlat: building a runtime over an initial state
// allocates the base table and one slab each of boxes and values, not a
// box and a value per location — so the count stays far below the
// location count, whatever it is. What grows is the base map's own
// storage (its tables), not per-location objects.
func TestStoreNewCostIsFlat(t *testing.T) {
	newAllocs := func(n int) float64 {
		st := state.New()
		for i := 0; i < n; i++ {
			st.Set(state.Loc(fmt.Sprintf("l.%d", i)), state.Int(1<<20)) // past the runtime's small-integer cache
		}
		return testing.AllocsPerRun(5, func() { New(Config{Threads: 1}, st) })
	}
	small, large := newAllocs(10), newAllocs(20000)
	if small > 16 {
		t.Fatalf("New over 10 locations allocates %.0f times, want at most 16", small)
	}
	if large > 100 {
		t.Fatalf("New over 20000 locations allocates %.0f times, want at most 100 (two per location would be 40000)", large)
	}
	t.Logf("New allocates %.0f times over 10 locations, %.0f over 20000", small, large)
}
