package stm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/state"
)

// These tests pin down the drain contract a serving layer depends on:
// when a request deadline expires while the run is parked — in a backoff
// sleep or an ordered commit-turn wait — every worker must wake, drain,
// and the run must return the context's error with zero leaked goroutines. Each scenario runs in both commit modes (RunCtx and
// the ordered configuration behind RunInOrderCtx) at server-shaped
// concurrency.

// TestCtxDeadlineMidBackoffDrains parks a full worker pool in backoff
// sleeps (the detector conflicts every attempt, so no task ever commits)
// and lets the deadline expire mid-sleep. The sleep must select on the
// run's failure channel: all 16 workers and the context watcher drain
// promptly in both commit modes.
func TestCtxDeadlineMidBackoffDrains(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		name := "unordered"
		if ordered {
			name = "ordered"
		}
		t.Run(name, func(t *testing.T) {
			tasks := make([]adt.Task, 64)
			for i := range tasks {
				tasks[i] = addTask(1)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
			defer cancel()
			start := time.Now()
			checkNoGoroutineLeak(t, func() {
				_, stats, err := RunCtx(ctx, Config{
					Threads:  16,
					Ordered:  ordered,
					Detector: &alwaysConflict{},
					Backoff:  Backoff{Base: 30 * time.Second, Max: 30 * time.Second},
				}, initialState(), tasks)
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want context.DeadlineExceeded", err)
				}
				if stats.Commits != 0 {
					t.Fatalf("commits = %d, want 0 (detector conflicts always)", stats.Commits)
				}
				if stats.BackoffWaits == 0 {
					t.Fatal("no backoff sleeps recorded; deadline did not interrupt a backoff")
				}
			})
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("drain took %v; backoff sleeps not interruptible", elapsed)
			}
		})
	}
}

// TestCtxDeadlineMidCommitStallDrains pins task 1 between validation and
// commit (WindowDelay) well past the deadline. In ordered mode every other
// commit stalls in its commit-turn wait behind it, and the deadline must
// wake them all: nothing commits. In unordered mode the others commit
// around the straggler, and when it wakes into the failed run it must not
// commit either. Both modes return the context's error with nothing
// leaked.
func TestCtxDeadlineMidCommitStallDrains(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		name := "unordered"
		if ordered {
			name = "ordered"
		}
		t.Run(name, func(t *testing.T) {
			const n = 32
			// Distinct per-task counters: no conflicts, so only the
			// commit order can hold a task back.
			st := state.New()
			tasks := make([]adt.Task, n)
			for i := range tasks {
				loc := state.Loc(fmt.Sprintf("c%d", i))
				st.Set(loc, state.Int(0))
				tasks[i] = func(ex adt.Executor) error {
					return adt.Counter{L: loc}.Add(ex, 1)
				}
			}
			var delayed atomic.Int64
			hooks := &Hooks{WindowDelay: func(task int) {
				if task == 1 && delayed.Add(1) == 1 {
					time.Sleep(500 * time.Millisecond)
				}
			}}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			checkNoGoroutineLeak(t, func() {
				_, stats, err := RunCtx(ctx, Config{
					Threads: 8,
					Ordered: ordered,
					Hooks:   hooks,
				}, st, tasks)
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want context.DeadlineExceeded", err)
				}
				if ordered && stats.Commits != 0 {
					t.Fatalf("commits = %d, want 0 (every commit's turn is behind task 1)", stats.Commits)
				}
				if stats.Commits >= n {
					t.Fatalf("commits = %d: task 1 committed into a failed run", stats.Commits)
				}
			})
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("drain took %v; commit-turn waits not interruptible", elapsed)
			}
		})
	}
}

// TestCtxCancelStormUnderLoad hammers the racier shape a server produces:
// many concurrent runs, each canceled at a random-ish point while its
// workers are mid-protocol (some committing, some backing off). Every run
// must return either success or the cancellation error — never hang, never
// leak. Run with -race this doubles as a drain-path race test.
func TestCtxCancelStormUnderLoad(t *testing.T) {
	const runs = 8
	checkNoGoroutineLeak(t, func() {
		done := make(chan error, runs)
		for i := 0; i < runs; i++ {
			i := i
			go func() {
				tasks := make([]adt.Task, 24)
				for j := range tasks {
					tasks[j] = addTask(1)
				}
				// Stagger deadlines across runs so cancellation lands at
				// different protocol points: mid-run, mid-backoff,
				// mid-commit.
				d := time.Duration(1+i*2) * time.Millisecond
				ctx, cancel := context.WithTimeout(context.Background(), d)
				defer cancel()
				_, _, err := RunCtx(ctx, Config{
					Threads: 4,
					Ordered: i%2 == 1,
					Backoff: Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
				}, initialState(), tasks)
				done <- err
			}()
		}
		for i := 0; i < runs; i++ {
			select {
			case err := <-done:
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("run error = %v, want nil or context.DeadlineExceeded", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("a canceled run never returned")
			}
		}
	})
}
