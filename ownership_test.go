package janus

import (
	"context"
	"slices"
	"testing"

	"repro/internal/state"
)

// stackOf returns the elements of the stack bound at l in st.
func stackOf(t *testing.T, st *State, l Loc) []int64 {
	t.Helper()
	v, ok := st.Get(l)
	if !ok {
		t.Fatalf("%s is unbound", l)
	}
	return slices.Clone(*v.(*state.IntList))
}

// scribble mutates the caller's copy of the stack at l in place: it
// appends an element into the spare capacity and rewrites the bottom one.
func scribble(st *State, l Loc) {
	v, _ := st.Get(l)
	s := v.(*state.IntList)
	*s = append(*s, -2)
	(*s)[0] = -1
}

func pushTask(l Loc, v int64) Task {
	return func(ex Executor) error { return Stack{L: l}.Push(ex, v) }
}

// TestRunResultStackIsTheCallers: a stack in a Runner.Run result belongs
// to the caller. Mutating it in place changes neither the initial state
// the run started from nor what the next run from that state computes.
func TestRunResultStackIsTheCallers(t *testing.T) {
	initial := NewState()
	InitStack(initial, "stk")
	r := New(Config{Threads: 2})
	tasks := []Task{pushTask("stk", 1), pushTask("stk", 1), pushTask("stk", 1)}
	res, _, err := r.Run(initial, tasks)
	if err != nil {
		t.Fatal(err)
	}
	scribble(res, "stk")
	if got := stackOf(t, initial, "stk"); len(got) != 0 {
		t.Fatalf("the initial stack holds %v after the caller mutated a run's result", got)
	}
	again, _, err := r.Run(initial, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stackOf(t, again, "stk"), []int64{1, 1, 1}; !slices.Equal(got, want) {
		t.Fatalf("the next run computed %v, want %v", got, want)
	}
}

// TestStoreStateStackIsTheCallers: a Store.State copy's stack belongs to
// the caller too. Mutating it reaches neither the store's committed state
// nor the store's next run; and the state the store was opened over is
// copied, so a later mutation of it does not reach the store either.
func TestStoreStateStackIsTheCallers(t *testing.T) {
	initial := NewState()
	InitStack(initial, "stk")
	s := New(Config{Threads: 2}).Open(initial)
	ctx := context.Background()
	if _, err := s.RunInOrderCtx(ctx, []Task{pushTask("stk", 1), pushTask("stk", 2)}); err != nil {
		t.Fatal(err)
	}
	scribble(s.State(), "stk")
	scribble(initial, "stk")
	if got, want := stackOf(t, s.State(), "stk"), []int64{1, 2}; !slices.Equal(got, want) {
		t.Fatalf("the store holds %v after the caller mutated copies, want %v", got, want)
	}
	if _, err := s.RunInOrderCtx(ctx, []Task{pushTask("stk", 3)}); err != nil {
		t.Fatal(err)
	}
	if got, want := stackOf(t, s.State(), "stk"), []int64{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("the store's next run left %v, want %v", got, want)
	}
}
