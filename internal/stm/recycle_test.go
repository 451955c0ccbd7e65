package stm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/state"
)

// TestPoisonedRecycle reruns the commit path's two oracles with recycled
// artifacts poisoned (conflict.PoisonRecycled): every explored schedule,
// and the threaded install-equals-replay runs unordered and ordered. A
// transaction that touches an artifact after the runtime took it back
// panics there, and the run fails with the stack (or, in the explorer,
// with the schedule) instead of a wrong final state. The footprint case
// holds a logged event past its artifact's recycling: the footprint lives
// in the event, and a poisoned one must panic, not report that the op
// touched nothing.
func TestPoisonedRecycle(t *testing.T) {
	defer conflict.PoisonRecycled(true)()
	t.Run("explore", TestExploreSchedules)
	t.Run("install", TestInstallEqualsReplay)
	t.Run("footprint", func(t *testing.T) {
		st := state.New()
		st.Set("c0", state.Int(0))
		r := New(Config{Threads: 1}, st)
		var stale *oplog.Event
		body := func(ex adt.Executor) error {
			if err := (adt.Counter{L: "c0"}).Add(ex, 1); err != nil {
				return err
			}
			stale = ex.(*Tx).prep.Log()[0]
			if len(stale.Accesses()) != 1 {
				t.Errorf("live event's footprint = %v, want one location", stale.Accesses())
			}
			return errors.New("abandon the attempt")
		}
		// A body error ends the attempt in execute, which recycles the
		// artifact the event lives in.
		if _, err := r.execute(obs.Ctx{Task: 1}, body, 1); err == nil {
			t.Fatal("execute swallowed the body error")
		}
		defer func() {
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "recycled") {
				t.Fatalf("reading a recycled event's footprint: recovered %v, want the recycled-log panic", p)
			}
		}()
		acc := stale.Accesses()
		t.Fatalf("a recycled event's footprint read as %v", acc)
	})
}

// fourOps is a transaction of four logged operations over two counters.
func fourOps(a, b state.Loc) adt.Task {
	return func(ex adt.Executor) error {
		for _, l := range []state.Loc{a, b, a, b} {
			if err := (adt.Counter{L: l}).Add(ex, 1); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestSteadyStateAttemptAllocs pins what an attempt allocates once the
// pools are warm: what its operations are made of — per operation the
// value it computes — and, per commit, the one slab the committed store
// keeps its published values in; nothing per written location and
// nothing else per transaction. An operation is logged by value and a
// one-location footprint is stored in the logged event, so neither costs
// anything of its own. The round is two transactions over disjoint
// counters (see warmRoundAllocs). A Tx, a view's map, a Prepared, a log,
// an event slab or a decomposer buffer allocated per attempt each cost at
// least one more allocation per transaction, two per round, and fail the
// bound; so does a box per written location.
func TestSteadyStateAttemptAllocs(t *testing.T) {
	st := state.New()
	for i := 0; i < 4; i++ {
		st.Set(fuzzCounterLoc(i), state.Int(1<<20)) // past the runtime's small-integer cache
	}
	best := warmRoundAllocs(t, st, fourOps("c0", "c1"), fourOps("c2", "c3"))
	// Per round: 8 operations × the new value, 2 commits × the value slab.
	const pinned = 8 + 2
	if best > pinned+1 { // one object per transaction would be two more
		t.Fatalf("a warm round of two 4-op transactions allocates %.0f objects, want the operations' and commits' %d", best, pinned)
	}
	t.Logf("%.0f allocations per round of two 4-op transactions (%d are the operations' and commits')", best, pinned)
}

// warmRoundAllocs returns the fewest allocations a round of outer and
// inner takes once the pools are warm. The two transactions are
// interleaved so that inner commits inside outer's window: the sequence
// detector then decomposes both artifacts, and the first one is reclaimed
// and recycled by the next round's commit.
func warmRoundAllocs(t *testing.T, st *state.State, outer, inner adt.Task) float64 {
	t.Helper()
	r := New(Config{Threads: 1, Detector: &conflict.Sequence{}}, st)
	tid := 0
	round := func() {
		tid += 2
		ctx := obs.Ctx{Task: int32(tid)}
		tx, err := r.execute(ctx, outer, tid)
		if err != nil {
			t.Fatal(err)
		}
		if committed, err := r.attempt(obs.Ctx{Task: int32(tid + 1)}, inner, tid+1); err != nil || !committed {
			t.Fatalf("inner attempt: committed=%v err=%v", committed, err)
		}
		if len(r.history) != 1 {
			t.Fatalf("history holds %d entries inside the outer window, want the inner commit alone", len(r.history))
		}
		if !r.finish(ctx, tx) {
			t.Fatal("outer transaction aborted against a disjoint commit")
		}
		tx.release()
	}
	// sync.Pool may drop an object at any time (and does, on purpose,
	// under -race), so a single round can allocate what the steady state
	// does not: take the best of several.
	best := 1e9
	for i := 0; i < 100; i++ {
		best = min(best, testing.AllocsPerRun(1, round))
	}
	return best
}

// putGet is a transaction that binds key to val in the map at "kv" and
// reads it back.
func putGet(key, val string) adt.Task {
	return func(ex adt.Executor) error {
		m := adt.KVMap{L: "kv"}
		if err := m.Put(ex, key, val); err != nil {
			return err
		}
		_, _, err := m.Get(ex, key)
		return err
	}
}

// TestSteadyStateRelAllocs pins the built-in relational path the same
// way: a warm round of two put+get transactions on disjoint keys of one
// KVMap, at the count the path had when the pin was set. Per transaction
// that is the get's result, the private clone of the relation, the put's
// one-level path copy and the commit's value slab; the outer one's commit
// replays its put on the relation the inner one committed, a clone and a
// path copy more. A commit publishes the relation its view or replay
// built, not a copy of it. The operations are logged by value and the
// footprints name the raw keys, so neither allocates. One more object per
// operation or per transaction fails the bound.
func TestSteadyStateRelAllocs(t *testing.T) {
	st := state.New()
	st.Set("kv", adt.NewRelValue())
	best := warmRoundAllocs(t, st, putGet("a", "1"), putGet("b", "2"))
	const pinned = 11
	if best > pinned {
		t.Fatalf("a warm round of two put+get transactions allocates %.0f objects, want at most %d", best, pinned)
	}
	t.Logf("%.0f allocations per round of two put+get transactions", best)
}

// TestPoolDropsOutliers: a transaction far larger than the rest must not
// leave its storage in the pools — a shell whose maps every later clear
// would have to sweep, an artifact parking its slab.
func TestPoolDropsOutliers(t *testing.T) {
	r := New(Config{Threads: 1}, state.New())
	big := func(ex adt.Executor) error {
		for i := 0; i <= maxShellLocs; i++ {
			if err := (adt.Counter{L: state.Loc(fmt.Sprintf("l%d", i))}).Store(ex, 1); err != nil {
				return err
			}
		}
		return nil
	}
	tx, err := r.execute(obs.Ctx{Task: 1}, big, 1)
	if err != nil {
		t.Fatal(err)
	}
	prep := tx.prep
	if !r.finish(obs.Ctx{Task: 1}, tx) {
		t.Fatal("the only transaction aborted")
	}
	tx.release()
	if tx.r == nil {
		t.Errorf("a shell with %d bound locations was pooled (bound %d)", tx.priv.Len(), maxShellLocs)
	}
	// The artifact is still the history's; the run's end returns it.
	r.Run(context.Background(), nil)
	for i := 0; i < 64; i++ {
		if p := conflict.Begin(); p == prep {
			t.Fatalf("an artifact with a %d-event log was pooled", maxShellLocs+1)
		}
	}
}
