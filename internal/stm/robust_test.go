package stm

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/state"
)

// checkNoGoroutineLeak runs fn and asserts the goroutine count returns to
// its pre-run level (a manual goleak): failed or canceled runs must drain
// their workers and any context watcher instead of leaking them.
func checkNoGoroutineLeak(t *testing.T, fn func()) {
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

func panicTask(v any) adt.Task {
	return func(adt.Executor) error { panic(v) }
}

func TestTaskPanicIsError(t *testing.T) {
	checkNoGoroutineLeak(t, func() {
		_, _, err := Run(Config{Threads: 2}, initialState(),
			[]adt.Task{addTask(1), panicTask("boom"), addTask(2)})
		if err == nil {
			t.Fatalf("panicking task did not fail the run")
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *PanicError", err)
		}
		if pe.Task != 2 {
			t.Errorf("PanicError.Task = %d, want 2", pe.Task)
		}
		if pe.Value != "boom" {
			t.Errorf("PanicError.Value = %v, want boom", pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "panicTask") {
			t.Errorf("stack does not name the panic site:\n%s", pe.Stack)
		}
	})
}

// TestOrderedPanicWakesWaiters is the regression for the crash-the-world
// failure mode: in ordered mode, tasks 2..N block in waitPublished until
// the published watermark reaches their id. If task 1 panics and the process merely died —
// or the waiters were never woken — this test would crash or hang; it
// must instead return the panic as a run error promptly.
func TestOrderedPanicWakesWaiters(t *testing.T) {
	checkNoGoroutineLeak(t, func() {
		tasks := []adt.Task{panicTask("first dies")}
		for i := 2; i <= 8; i++ {
			tasks = append(tasks, addTask(int64(i)))
		}
		done := make(chan error, 1)
		go func() {
			_, _, err := Run(Config{Threads: 8, Ordered: true}, initialState(), tasks)
			done <- err
		}()
		select {
		case err := <-done:
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Task != 1 {
				t.Fatalf("err = %v, want task 1 PanicError", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("ordered waiters never woken after peer panic")
		}
	})
}

func TestSequentialPanicIsError(t *testing.T) {
	_, err := RunSequential(initialState(), []adt.Task{addTask(1), panicTask(42)})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Task != 2 || pe.Value != 42 {
		t.Fatalf("err = %v, want task 2 PanicError(42)", err)
	}
}

func TestRunCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	checkNoGoroutineLeak(t, func() {
		_, _, err := RunCtx(ctx, Config{Threads: 4}, initialState(),
			[]adt.Task{addTask(1), addTask(2), addTask(3)})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}

// TestRunCtxDeadlineInterruptsBackoff parks every worker in a backoff
// sleep (the detector always conflicts, so no task ever commits) and
// asserts the deadline still drains the run promptly: backoff sleeps must
// select on the run's failure channel, not sleep blindly.
func TestRunCtxDeadlineInterruptsBackoff(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	checkNoGoroutineLeak(t, func() {
		_, _, err := RunCtx(ctx, Config{
			Threads:  2,
			Detector: &alwaysConflict{},
			Backoff:  Backoff{Base: 10 * time.Second, Max: 10 * time.Second},
		}, initialState(), []adt.Task{addTask(1), addTask(2)})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; backoff sleep not interruptible", elapsed)
	}
}

func TestRunCtxCompletesWithoutCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, stats, err := RunCtx(ctx, Config{Threads: 4}, initialState(),
		[]adt.Task{addTask(1), addTask(2), addTask(3)})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := final.Get("work"); !v.EqualValue(state.Int(6)) {
		t.Fatalf("work = %v, want 6", v)
	}
	if stats.Commits != 3 {
		t.Fatalf("commits = %d, want 3", stats.Commits)
	}
}

// TestMaxRetriesFailurePath covers the liveness-guard error end to end:
// the run fails with the "exceeded N retries" error, the retry/conflict
// accounting is consistent, and no goroutines leak.
func TestMaxRetriesFailurePath(t *testing.T) {
	const maxRetries = 5
	checkNoGoroutineLeak(t, func() {
		_, stats, err := Run(Config{Threads: 2, Detector: &alwaysConflict{}, MaxRetries: maxRetries},
			initialState(), []adt.Task{addTask(1), addTask(2)})
		if err == nil || !strings.Contains(err.Error(), "exceeded 5 retries") {
			t.Fatalf("err = %v, want exceeded-retries failure", err)
		}
		// The failure is typed: callers distinguish retry exhaustion
		// (retryable congestion) from task-body errors via errors.As.
		var rle *RetryLimitError
		if !errors.As(err, &rle) {
			t.Fatalf("err = %v, want *RetryLimitError", err)
		}
		if rle.Retries != maxRetries {
			t.Errorf("RetryLimitError.Retries = %d, want %d", rle.Retries, maxRetries)
		}
		if rle.Task != 1 && rle.Task != 2 {
			t.Errorf("RetryLimitError.Task = %d, want 1 or 2", rle.Task)
		}
		if stats.Retries < maxRetries {
			t.Errorf("Retries = %d, want >= %d", stats.Retries, maxRetries)
		}
		// Every retry was caused by a detected conflict (the always-
		// conflict detector), and re-detections can only add conflicts.
		if stats.Conflicts < stats.Retries {
			t.Errorf("Conflicts = %d < Retries = %d", stats.Conflicts, stats.Retries)
		}
		if stats.AbortReasons["write-set"] != stats.Conflicts {
			t.Errorf("AbortReasons = %v, want write-set = %d", stats.AbortReasons, stats.Conflicts)
		}
	})
}

func TestBackoffWaitDeterministicAndBounded(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond}
	for task := 1; task <= 5; task++ {
		for attempt := 1; attempt <= 10; attempt++ {
			w1 := b.wait(task, attempt)
			w2 := b.wait(task, attempt)
			if w1 != w2 {
				t.Fatalf("wait(%d,%d) nondeterministic: %v vs %v", task, attempt, w1, w2)
			}
			if w1 < b.Base/2 || w1 >= b.Max {
				t.Fatalf("wait(%d,%d) = %v outside [Base/2, Max)", task, attempt, w1)
			}
		}
	}
	if (Backoff{}).wait(1, 3) != 0 {
		t.Fatal("zero Backoff must disable waiting")
	}
	// The exponential ceiling clamps at Max: deep attempts stay bounded.
	if w := b.wait(2, 1000); w >= b.Max {
		t.Fatalf("deep attempt wait %v not bounded by Max %v", w, b.Max)
	}
	// Default Max is 64×Base.
	d := Backoff{Base: time.Microsecond}
	if w := d.wait(1, 1000); w >= 64*time.Microsecond {
		t.Fatalf("default cap: wait = %v, want < 64×Base", w)
	}
}

func TestBackoffWaitsCountedAndTraced(t *testing.T) {
	_, stats, err := Run(Config{
		Threads: 2,
		Hooks:   &Hooks{ForceAbort: func(_, attempt int) bool { return attempt <= 2 }},
		Backoff: Backoff{Base: 100 * time.Microsecond},
	}, initialState(), []adt.Task{addTask(1), addTask(2), addTask(3), addTask(4)})
	if err != nil {
		t.Fatal(err)
	}
	// Two forced aborts per task, plus whatever real conflicts the shared
	// counter causes: every retry waits once.
	if stats.BackoffWaits != stats.Retries || stats.Retries < 8 {
		t.Fatalf("backoff waits/retries = %d/%d, want one wait per retry, at least 8",
			stats.BackoffWaits, stats.Retries)
	}
}

// TestForceAbortHook drives the injection point directly: forced aborts
// retry the task (attributed as "injected"), and the run still completes
// with the right state once the injector relents.
func TestForceAbortHook(t *testing.T) {
	var injected atomic.Int64
	hooks := &Hooks{
		ForceAbort: func(task, attempt int) bool {
			if task == 1 && attempt == 1 {
				injected.Add(1)
				return true
			}
			return false
		},
	}
	final, stats, err := Run(Config{Threads: 2, Hooks: hooks}, initialState(),
		[]adt.Task{addTask(5), addTask(7)})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := final.Get("work"); !v.EqualValue(state.Int(12)) {
		t.Fatalf("work = %v, want 12", v)
	}
	if injected.Load() == 0 {
		t.Fatal("hook never consulted")
	}
	if stats.AbortReasons["injected"] == 0 {
		t.Fatalf("AbortReasons = %v, want injected > 0", stats.AbortReasons)
	}
	if stats.Retries == 0 {
		t.Fatal("forced abort did not register a retry")
	}
}

func TestPanicErrorMessage(t *testing.T) {
	e := &PanicError{Task: 7, Value: "kaboom"}
	if got := e.Error(); !strings.Contains(got, "task 7") || !strings.Contains(got, "kaboom") {
		t.Fatalf("Error() = %q", got)
	}
}
