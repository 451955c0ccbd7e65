package stm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/spec"
	"repro/internal/state"
)

// runtimeTask is randomTask plus, now and then, a store to a location the
// initial state does not hold, so that runs create locations too.
func runtimeTask(rng *rand.Rand) adt.Task {
	task := randomTask(rng)
	if rng.Intn(3) > 0 {
		return task
	}
	fresh := adt.Counter{L: state.Loc(fmt.Sprintf("fresh%d", rng.Intn(2)))}
	v := int64(rng.Intn(9))
	return func(ex adt.Executor) error {
		if err := task(ex); err != nil {
			return err
		}
		return fresh.Store(ex, v)
	}
}

func runtimeTasks(rng *rand.Rand, n int) []adt.Task {
	tasks := make([]adt.Task, n)
	for i := range tasks {
		tasks[i] = runtimeTask(rng)
	}
	return tasks
}

// runtimeDetectors are the detectors the long-lived runtime is checked
// under: write-set, and sequence detection with a learning cache.
var runtimeDetectors = []struct {
	name string
	new  func() conflict.Detector
}{
	{"write-set", func() conflict.Detector { return conflict.NewWriteSet() }},
	{"sequence", func() conflict.Detector {
		return &conflict.Sequence{Cache: spec.New(spec.Abstract, true)}
	}},
}

// TestRunsContinueOnOneRuntime: two Runs on one runtime are one
// execution. The second starts from what the first committed, its commit
// times continue the first's, and the final state equals the sequential
// run of the first task list followed by the second, each in its commit
// order (task order when ordered) — at two threads, ordered and
// unordered, under write-set and sequence detection.
func TestRunsContinueOnOneRuntime(t *testing.T) {
	ctx := context.Background()
	for _, ordered := range []bool{false, true} {
		for _, det := range runtimeDetectors {
			for seed := int64(0); seed < 12; seed++ {
				name := fmt.Sprintf("ordered=%v/%s/seed=%d", ordered, det.name, seed)
				rng := rand.New(rand.NewSource(seed))
				lists := [][]adt.Task{runtimeTasks(rng, 8), runtimeTasks(rng, 8)}
				sink := &commitCollector{}
				r := New(Config{Threads: 2, Ordered: ordered, Detector: det.new(), Record: sink}, fuzzState())
				for _, tasks := range lists {
					stats, err := r.Run(ctx, tasks)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if stats.Tasks != len(tasks) || stats.Commits != int64(len(tasks)) {
						t.Fatalf("%s: a run of %d tasks reports %d tasks, %d commits", name, len(tasks), stats.Tasks, stats.Commits)
					}
				}
				var order []adt.Task
				for i, c := range sink.commits {
					if i > 0 && c.ctime <= sink.commits[i-1].ctime {
						t.Fatalf("%s: commit %d at time %d after one at %d", name, i, c.ctime, sink.commits[i-1].ctime)
					}
					run, pos := 0, i
					if i >= len(lists[0]) {
						run, pos = 1, i-len(lists[0])
					}
					if ordered && c.task != pos+1 {
						t.Fatalf("%s: run %d committed task %d in position %d", name, run+1, c.task, pos+1)
					}
					order = append(order, lists[run][c.task-1])
				}
				want, err := RunSequential(fuzzState(), order)
				if err != nil {
					t.Fatal(err)
				}
				if got := r.State(); !got.Equal(want) {
					t.Fatalf("%s: two runs on one runtime give %s, the tasks run sequentially give %s", name, got, want)
				}
			}
		}
	}
}

// TestUndoTakesBackTheRun: after Run and Undo the runtime holds the state
// the Run started from — a location the Run created is unbound again —
// and a Run after that gives what it gives alone. A failed Run is undone
// the same way, and a second Undo changes nothing.
func TestUndoTakesBackTheRun(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("boom")
	fail := func(adt.Executor) error { return boom }
	for _, det := range runtimeDetectors {
		for seed := int64(0); seed < 12; seed++ {
			name := fmt.Sprintf("%s/seed=%d", det.name, seed)
			rng := rand.New(rand.NewSource(seed))
			base, undone, after := runtimeTasks(rng, 4), runtimeTasks(rng, 6), runtimeTasks(rng, 6)
			// The undone run always creates a location the state lacks.
			undone = append(undone, func(ex adt.Executor) error {
				return adt.Counter{L: "created"}.Store(ex, 7)
			})
			r := New(Config{Threads: 2, Ordered: true, Detector: det.new()}, fuzzState())
			if _, err := r.Run(ctx, base); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			before := r.State()

			if _, err := r.Run(ctx, undone); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, ok := r.State().Get("created"); !ok {
				t.Fatalf("%s: the run did not create its location", name)
			}
			r.Undo()
			if got := r.State(); !got.Equal(before) {
				t.Fatalf("%s: after Undo the state is %s, before the run it was %s", name, got, before)
			}
			r.Undo()
			if got := r.State(); !got.Equal(before) {
				t.Fatalf("%s: a second Undo changed the state to %s", name, got)
			}

			// A run that fails after some of its tasks committed.
			if _, err := r.Run(ctx, append(append([]adt.Task{}, undone[:3]...), fail)); !errors.Is(err, boom) {
				t.Fatalf("%s: failing run: err = %v", name, err)
			}
			r.Undo()
			if got := r.State(); !got.Equal(before) {
				t.Fatalf("%s: after a failed run and Undo the state is %s, want %s", name, got, before)
			}

			if _, err := r.Run(ctx, after); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := RunSequential(before, after)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.State(); !got.Equal(want) {
				t.Fatalf("%s: the run after Undo gives %s, alone it gives %s", name, got, want)
			}
		}
	}
}

// TestOrderedSecondRunErrorDoesNotDeadlock: the first task of an ordered
// Run that follows another fails. Its successors wait for turns counted
// from where the first Run left the watermark; they must be woken, the
// Run must return the error, and the runtime must run the next set.
func TestOrderedSecondRunErrorDoesNotDeadlock(t *testing.T) {
	boom := errors.New("boom")
	bad := func(adt.Executor) error { return boom }
	checkNoGoroutineLeak(t, func() {
		ctx := context.Background()
		r := New(Config{Threads: 4, Ordered: true}, initialState())
		done := make(chan error, 1)
		go func() {
			if _, err := r.Run(ctx, []adt.Task{addTask(1), addTask(2), addTask(3), addTask(4)}); err != nil {
				done <- err
				return
			}
			if _, err := r.Run(ctx, []adt.Task{bad, addTask(5), addTask(6), addTask(7)}); !errors.Is(err, boom) {
				done <- fmt.Errorf("second run: err = %v, want boom", err)
				return
			}
			r.Undo()
			_, err := r.Run(ctx, []adt.Task{addTask(8), addTask(9)})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("an ordered run whose first task failed never returned")
		}
		if v, _ := r.State().Get("work"); !v.EqualValue(state.Int(1 + 2 + 3 + 4 + 8 + 9)) {
			t.Fatalf("work = %v, want the first and third runs' adds", v)
		}
	})
}

// TestRunCostIsFlat: a Run on an open runtime allocates what its tasks
// and commits cost and nothing per location of the store: the same count
// over 10 locations as over 20 000 (New pays for the store once,
// TestStoreNewCostIsFlat).
func TestRunCostIsFlat(t *testing.T) {
	ctx := context.Background()
	runAllocs := func(n int) float64 {
		st := state.New()
		for i := 0; i < n; i++ {
			st.Set(state.Loc(fmt.Sprintf("l.%d", i)), state.Int(1<<20))
		}
		r := New(Config{Threads: 1}, st)
		tasks := []adt.Task{fourOps("l.0", "l.1"), fourOps("l.1", "l.2")}
		// The best of several, as warmRoundAllocs takes: the pools may
		// drop what a run would reuse.
		best := 1e9
		for i := 0; i < 20; i++ {
			best = min(best, testing.AllocsPerRun(1, func() {
				if _, err := r.Run(ctx, tasks); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return best
	}
	small, large := runAllocs(10), runAllocs(20000)
	if large > small {
		t.Fatalf("a Run allocates %.0f times over 10 locations, %.0f over 20000", small, large)
	}
	t.Logf("a Run of two 4-op transactions allocates %.0f times over 10 locations, %.0f over 20000", small, large)
}
