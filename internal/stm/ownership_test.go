package stm

import (
	"context"
	"slices"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/obs"
	"repro/internal/state"
)

// listOf returns the elements of the list bound at l in st.
func listOf(t *testing.T, st *state.State, l state.Loc) []int64 {
	t.Helper()
	v, ok := st.Get(l)
	if !ok {
		t.Fatalf("%s is unbound", l)
	}
	return slices.Clone(*v.(*state.IntList))
}

// listState is a state whose list at "log" holds elems.
func listState(elems ...int64) *state.State {
	l := state.IntList(elems)
	st := state.New()
	st.Set("log", &l)
	return st
}

// popPush pops the stack at l and pushes vals: it rewrites the top
// element in place, which a list shared with the committed store would
// show there.
func popPush(l state.Loc, vals ...int64) adt.Task {
	return func(ex adt.Executor) error {
		s := adt.Stack{L: l}
		if _, err := s.Pop(ex); err != nil {
			return err
		}
		for _, v := range vals {
			if err := s.Push(ex, v); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestAbortedPushesNeverReachTheCommittedList: a transaction pops and
// pushes on its private copy of a list, a disjoint-in-time commit to the
// same list makes it abort, and the committed list is exactly the one
// the committing transaction wrote — none of the aborted attempt's
// in-place writes, neither the top it rewrote nor the elements it
// appended, shows in the store or in the next transaction's view.
func TestAbortedPushesNeverReachTheCommittedList(t *testing.T) {
	r := New(Config{Threads: 1}, listState(1, 2, 3))
	aborted, err := r.execute(obs.Ctx{Task: 1}, popPush("log", 90, 91, 92, 93, 94, 95, 96, 97, 98, 99), 1)
	if err != nil {
		t.Fatal(err)
	}
	if committed, err := r.attempt(obs.Ctx{Task: 2}, popPush("log", 30, 4), 2); err != nil || !committed {
		t.Fatalf("the second transaction: committed=%v err=%v", committed, err)
	}
	if r.finish(obs.Ctx{Task: 1}, aborted) {
		t.Fatal("a transaction whose list a later commit rewrote committed")
	}
	aborted.release()
	if got, want := listOf(t, r.State(), "log"), []int64{1, 2, 30, 4}; !slices.Equal(got, want) {
		t.Fatalf("committed list after the abort = %v, want %v", got, want)
	}
	var seen []int64
	look := func(ex adt.Executor) error {
		s := adt.Stack{L: "log"}
		for {
			n, err := s.Size(ex)
			if err != nil || n == 0 {
				return err
			}
			v, err := s.Pop(ex)
			if err != nil {
				return err
			}
			seen = append(seen, v)
		}
	}
	if committed, err := r.attempt(obs.Ctx{Task: 3}, look, 3); err != nil || !committed {
		t.Fatalf("the reading transaction: committed=%v err=%v", committed, err)
	}
	if want := []int64{4, 30, 2, 1}; !slices.Equal(seen, want) {
		t.Fatalf("the next transaction popped %v, want %v", seen, want)
	}
}

// TestUndoRestoresTheList: Undo after a Run of pushes and pops puts back
// the list the Run started from, element for element — the values the
// Run's commits published were copies, so nothing rewrote the old one.
func TestUndoRestoresTheList(t *testing.T) {
	r := New(Config{Threads: 2, Ordered: true}, listState(1, 2, 3))
	tasks := []adt.Task{popPush("log", 7, 8), popPush("log"), popPush("log", 9), popPush("log", 10, 11, 12)}
	if _, err := r.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if got, want := listOf(t, r.State(), "log"), []int64{1, 2, 10, 11, 12}; !slices.Equal(got, want) {
		t.Fatalf("after the Run the list is %v, want %v", got, want)
	}
	r.Undo()
	if got, want := listOf(t, r.State(), "log"), []int64{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("after Undo the list is %v, want %v", got, want)
	}
}

// TestStateListIsTheCallers: the list in State's result is the caller's.
// Mutating it in place — rewriting an element, appending into its spare
// capacity — reaches neither the store nor the next Run.
func TestStateListIsTheCallers(t *testing.T) {
	r := New(Config{Threads: 1}, listState(1, 2, 3))
	if _, err := r.Run(context.Background(), []adt.Task{popPush("log", 4, 5)}); err != nil {
		t.Fatal(err)
	}
	out := r.State()
	v, _ := out.Get("log")
	l := v.(*state.IntList)
	(*l)[0] = 100
	*l = append(*l, 101)
	if got, want := listOf(t, r.State(), "log"), []int64{1, 2, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("the store's list after the caller mutated its copy = %v, want %v", got, want)
	}
	if _, err := r.Run(context.Background(), []adt.Task{popPush("log", 6)}); err != nil {
		t.Fatal(err)
	}
	if got, want := listOf(t, r.State(), "log"), []int64{1, 2, 4, 6}; !slices.Equal(got, want) {
		t.Fatalf("the next Run left %v, want %v", got, want)
	}
}

// popPushPut pops the stack at "log", pushes vals, and binds key to val
// in the map at "kv": an in-place update of both mutable values its view
// holds.
func popPushPut(key, val string, vals ...int64) adt.Task {
	return func(ex adt.Executor) error {
		if err := popPush("log", vals...)(ex); err != nil {
			return err
		}
		return adt.KVMap{L: "kv"}.Put(ex, key, val)
	}
}

// TestPublishedValuesHaveOneOwner: a commit publishes the list and the
// relation its view built, not copies of them, and from then on the
// store is their one owner. The shell's release unbinds them from its
// view, so none of what follows writes them in place, though each runs
// in that recycled shell and updates a list and a relation in place: an
// attempt that aborts, a later Run's committing transaction, and Undo,
// which restores them as the store's values again. A shell that kept
// them bound would hand them to its next transaction as its own.
func TestPublishedValuesHaveOneOwner(t *testing.T) {
	st := listState(1, 2, 3)
	kv := adt.NewRelValue()
	kv.R.Put("a", "1")
	st.Set("kv", kv)
	r := New(Config{Threads: 1, Hooks: &Hooks{ForceAbort: func(task, _ int) bool { return task == 2 }}}, st)

	first, err := r.execute(obs.Ctx{Task: 1}, popPushPut("b", "2", 4, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.finish(obs.Ctx{Task: 1}, first) {
		t.Fatal("the first transaction aborted")
	}
	pubList, _ := r.storeGet("log")
	pubRel, _ := r.storeGet("kv")
	viewList, _ := first.priv.Get("log")
	viewRel, _ := first.priv.Get("kv")
	if pubList != viewList || pubRel.(state.Rel).R != viewRel.(state.Rel).R {
		t.Fatal("the commit published copies of the values its view built")
	}
	first.release()
	wantList, wantRel := []int64{1, 2, 4, 5}, "{(k=a,v=1) (k=b,v=2)}"
	unchanged := func(when string) {
		t.Helper()
		if got := *pubList.(*state.IntList); !slices.Equal(got, wantList) {
			t.Fatalf("%s the published list is %v, want %v", when, got, wantList)
		}
		if got := pubRel.String(); got != wantRel {
			t.Fatalf("%s the published relation is %s, want %s", when, got, wantRel)
		}
	}
	unchanged("after the commit")

	aborted, err := r.execute(obs.Ctx{Task: 2}, popPushPut("b", "9", 90, 91, 92), 2)
	if err != nil {
		t.Fatal(err)
	}
	if aborted != first {
		t.Log("the pool handed the aborted attempt another shell")
	}
	unchanged("while an attempt runs,")
	if r.finish(obs.Ctx{Task: 2}, aborted) {
		t.Fatal("an attempt the hook aborts committed")
	}
	aborted.release()
	unchanged("after an aborted attempt")

	if _, err := r.Run(context.Background(), []adt.Task{popPushPut("c", "3", 6)}); err != nil {
		t.Fatal(err)
	}
	if got, want := listOf(t, r.State(), "log"), []int64{1, 2, 4, 6}; !slices.Equal(got, want) {
		t.Fatalf("after the second Run the list is %v, want %v", got, want)
	}
	unchanged("after a later Run's transaction")

	r.Undo()
	if v, _ := r.storeGet("log"); v != pubList {
		t.Fatal("Undo did not restore the list the first commit published")
	}
	unchanged("after Undo")
	if got, _ := r.State().Get("kv"); got.String() != wantRel {
		t.Fatalf("after Undo the relation is %s, want %s", got, wantRel)
	}
}

// TestPublishedRelationsAreFrozen: every relation the committed store
// holds is frozen, so the transactions that fault it concurrently only
// read it. After each Run of puts, writing through a copy of a published
// relation's header leaves the relation as it was: the copy holds the
// relation's owner id, so were the relation still the committing view's
// own, the copy's put would land in nodes the store's value still
// reaches. Under -race, the second Run's transactions, which clone the
// relations the first published while others commit, would report a
// Clone that froze a published relation as a write.
func TestPublishedRelationsAreFrozen(t *testing.T) {
	st := state.New()
	for _, l := range []state.Loc{"kv1", "kv2"} {
		kv := adt.NewRelValue()
		for i := 0; i < 40; i++ {
			kv.R.Put(strconv.Itoa(i), "0")
		}
		st.Set(l, kv)
	}
	r := New(Config{Threads: 2}, st)
	run := func(round int) {
		var tasks []adt.Task
		for i := 0; i < 60; i++ {
			l, key := state.Loc("kv"+strconv.Itoa(1+i%2)), strconv.Itoa(i*7%50)
			tasks = append(tasks, func(ex adt.Executor) error {
				m := adt.KVMap{L: l}
				if _, _, err := m.Get(ex, strconv.Itoa(i)); err != nil {
					return err
				}
				return m.Put(ex, key, strconv.Itoa(round))
			})
		}
		if _, err := r.Run(context.Background(), tasks); err != nil {
			t.Fatal(err)
		}
		r.Range(func(l state.Loc, v state.Value) bool {
			rel := v.(state.Rel).R
			rel.Each(func(key, val string) bool {
				probe := *rel
				probe.Put(key, val+"'")
				if got, _ := rel.Get(key); got != val {
					t.Fatalf("round %d: a put through a copy of the header of the relation published at %s reached it: %s=%s, was %s",
						round, l, key, got, val)
				}
				return true
			})
			return true
		})
	}
	run(1)
	run(2)
}

// pushPops is a transaction of pairs rounds of push, push, pop, pop on the
// stack at l: the balanced push/pop of JFileSync's monitor stacks, 2·pairs
// pushes and as many pops. The values stay below the runtime's
// small-integer cache, so a pop's result boxes nothing.
func pushPops(l state.Loc, pairs int) adt.Task {
	return func(ex adt.Executor) error {
		s := adt.Stack{L: l}
		for i := 0; i < pairs; i++ {
			if err := s.Push(ex, int64(i%100)); err != nil {
				return err
			}
			if err := s.Push(ex, int64(i%100+100)); err != nil {
				return err
			}
			for j := 0; j < 2; j++ {
				if _, err := s.Pop(ex); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// TestWarmListTransactionAllocs pins what a warm transaction of list
// operations allocates: a constant, not one or two objects per push or
// pop. Each transaction of the round faults its list in, pushes and pops
// on its copy in place, and commits its value slab, publishing the list
// it built with no copy. A list of three elements is copied with spare
// capacity (header and elements) at the fault: three objects with the
// slab. An empty one's header and room are one object: two with the
// slab. That holds whether the transaction runs 2 000 pushes
// and 2 000 pops or 20 and 20. Before lists were updated in place, every
// push and pop copied the list and boxed the copy: 8 000 objects for the
// long transaction.
func TestWarmListTransactionAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		elems  []int64
		pinned float64 // per round of two transactions
	}{
		{"three elements", []int64{1, 2, 3}, 2 * 3},
		{"empty", nil, 2 * 2},
	} {
		round := func(pairs int) float64 {
			a, b := state.IntList(slices.Clone(c.elems)), state.IntList(slices.Clone(c.elems))
			st := state.New()
			st.Set("a", &a)
			st.Set("b", &b)
			return warmRoundAllocs(t, st, pushPops("a", pairs), pushPops("b", pairs))
		}
		long, short := round(1000), round(10)
		if long != short || long > c.pinned {
			t.Fatalf("%s: a warm round of two list transactions allocates %.0f objects at 2000 pushes and pops each, %.0f at 20; want the same, at most %.0f",
				c.name, long, short, c.pinned)
		}
		t.Logf("%s: %.0f allocations per round of two list transactions, at 4000 list operations each as at 40", c.name, long)
	}
}
