package janus

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/adt"
)

// leakCheck runs fn and asserts the goroutine count settles back to its
// pre-run level: a deadline-killed run must drain its workers and the
// context watcher, not leak them into the serving process.
func leakCheck(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunCtxDeadlineDrainsUnderLoad is the server-shaped request shape:
// a batch whose deadline cannot be met (one task alone out-spins it, the
// rest contend on one counter and park in long backoff sleeps). Both
// RunCtx and RunInOrderCtx must return context.DeadlineExceeded and
// drain every worker, with cancellation latency bounded by the longest
// single task body — not by the 30s backoff budget.
func TestRunCtxDeadlineDrainsUnderLoad(t *testing.T) {
	mkTasks := func() []Task {
		tasks := []Task{func(ex Executor) error {
			// Out-spin the deadline: the run cannot finish before it
			// fires, so the drain path always executes.
			deadline := time.Now().Add(300 * time.Millisecond)
			for time.Now().Before(deadline) {
				adt.LocalWork(ex, 50_000)
			}
			return Counter{L: "work"}.Add(ex, 1)
		}}
		for i := 0; i < 63; i++ {
			tasks = append(tasks, addTask(1))
		}
		return tasks
	}
	run := func(t *testing.T, f func(*Runner, context.Context, *State, []Task) (*State, RunStats, error)) {
		r := New(Config{
			Detection: DetectWriteSet,
			Threads:   8,
			Backoff:   Backoff{Base: 30 * time.Second, Max: 30 * time.Second},
		})
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		leakCheck(t, func() {
			_, _, err := f(r, ctx, exampleState(), mkTasks())
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
		})
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("drain took %v; want bounded by the longest task body", elapsed)
		}
	}
	t.Run("RunCtx", func(t *testing.T) {
		run(t, func(r *Runner, ctx context.Context, st *State, tasks []Task) (*State, RunStats, error) {
			return r.RunCtx(ctx, st, tasks)
		})
	})
	t.Run("RunInOrderCtx", func(t *testing.T) {
		run(t, func(r *Runner, ctx context.Context, st *State, tasks []Task) (*State, RunStats, error) {
			return r.RunInOrderCtx(ctx, st, tasks)
		})
	})
}

// TestRetryLimitErrorSurfacesTyped: retry exhaustion must reach callers
// as the typed *RetryLimitError through the public API, distinguishable
// from task-body failures, so a serving layer can map it to a retryable
// status instead of a permanent one.
func TestRetryLimitErrorSurfacesTyped(t *testing.T) {
	r := New(Config{Detection: DetectWriteSet, Threads: 8, MaxRetries: 1})
	tasks := make([]Task, 32)
	for i := range tasks {
		// Spin inside the transaction so executions overlap, then write
		// one shared counter: write-set detection aborts overlapping
		// writers, and with MaxRetries 1 the first abort anywhere is
		// already exhaustion.
		tasks[i] = func(ex Executor) error {
			adt.LocalWork(ex, 500_000)
			return Counter{L: "work"}.Add(ex, 1)
		}
	}
	_, _, err := r.Run(exampleState(), tasks)
	if err == nil {
		t.Skip("no task exhausted its retries this run (low contention)")
	}
	var rle *RetryLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v, want *RetryLimitError", err)
	}
	if rle.Retries != 1 {
		t.Errorf("Retries = %d, want 1", rle.Retries)
	}
}
