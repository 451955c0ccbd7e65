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

// fakeGov counts the commit-turn waits the runtime reports.
type fakeGov struct{ commitWaits atomic.Int64 }

func (g *fakeGov) ObserveCommitWait(time.Duration) { g.commitWaits.Add(1) }

// TestGovernorObservesCommitWaits: in ordered mode every attempt waits for
// its commit turn once, and each wait is reported to the governor.
func TestGovernorObservesCommitWaits(t *testing.T) {
	gov := &fakeGov{}
	hooks := &Hooks{ForceAbort: func(task, attempt int) bool { return attempt == 1 }}
	_, stats, err := Run(Config{Threads: 2, Ordered: true, Governor: gov, Hooks: hooks},
		initialState(), []adt.Task{addTask(1), addTask(2), addTask(3)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries == 0 {
		t.Fatal("no retries recorded; hook did not fire")
	}
	if got, want := gov.commitWaits.Load(), stats.Commits+stats.Retries; got != want {
		t.Errorf("ObserveCommitWait count = %d, want one per attempt (%d)", got, want)
	}
}

// TestMaxTxnOpsBudget: an op past the budget is refused with
// *OplogBudgetError, the run fails with it (errors.As), and a task
// within budget is unaffected.
func TestMaxTxnOpsBudget(t *testing.T) {
	hungry := func(ex adt.Executor) error {
		c := adt.Counter{L: "work"}
		for i := 0; i < 10; i++ {
			if err := c.Add(ex, 1); err != nil {
				return err
			}
		}
		return nil
	}
	_, _, err := Run(Config{Threads: 1, MaxTxnOps: 4}, initialState(), []adt.Task{hungry})
	var be *OplogBudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *OplogBudgetError", err)
	}
	if be.Task != 1 || be.Ops != 4 || be.Budget != 4 {
		t.Errorf("OplogBudgetError = %+v, want {Task:1 Ops:4 Budget:4}", *be)
	}

	final, _, err := Run(Config{Threads: 2, MaxTxnOps: 4}, initialState(),
		[]adt.Task{addTask(2), addTask(3)})
	if err != nil {
		t.Fatalf("within-budget run failed: %v", err)
	}
	if v, _ := final.Get("work"); !v.EqualValue(state.Int(5)) {
		t.Fatalf("work = %v, want 5", v)
	}
}

// TestMaxTxnOpsSerialPath: the budget also binds escalated serial
// transactions (their Tx is built separately).
func TestMaxTxnOpsSerialPath(t *testing.T) {
	hungry := func(ex adt.Executor) error {
		c := adt.Counter{L: "work"}
		for i := 0; i < 10; i++ {
			if err := c.Add(ex, 1); err != nil {
				return err
			}
		}
		return nil
	}
	// The first, speculative attempt stays within budget and is forced to
	// abort; SerializeAfter escalates the second.
	attempts := 0
	task := func(ex adt.Executor) error {
		if attempts++; attempts == 1 {
			return adt.Counter{L: "work"}.Add(ex, 1)
		}
		return hungry(ex)
	}
	hooks := &Hooks{ForceAbort: func(_, attempt int) bool { return attempt == 1 }}
	_, stats, err := Run(Config{Threads: 1, MaxTxnOps: 4, SerializeAfter: 1, Hooks: hooks},
		initialState(), []adt.Task{task})
	var be *OplogBudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *OplogBudgetError", err)
	}
	if stats.Escalations != 1 {
		t.Errorf("Escalations = %d, want the budget hit on the serial attempt", stats.Escalations)
	}
}

// TestRunCtxCancelDuringSerialLock is the cancellation satellite: the
// context is canceled while a task holds the serial-escalation global
// write lock mid-execution. The lock must be released, the run must
// return the cancellation cause, and no goroutines may leak.
func TestRunCtxCancelDuringSerialLock(t *testing.T) {
	checkNoGoroutineLeak(t, func() {
		var calls atomic.Int64
		entered := make(chan struct{})
		release := make(chan struct{})
		blocker := func(ex adt.Executor) error {
			if calls.Add(1) == 2 {
				// Second attempt = the escalated serial one (SerializeAfter
				// is 1): we are now executing with the global write lock
				// held. Park until the test has canceled the context.
				close(entered)
				<-release
			}
			return adt.Counter{L: "work"}.Add(ex, 1)
		}
		hooks := &Hooks{ForceAbort: func(task, attempt int) bool {
			return task == 1 && attempt == 1
		}}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// White-box equivalent of RunCtx (same watcher wiring): the test
		// must observe r.failed() before unparking the lock holder, or the
		// run could drain and return nil before the cancellation lands.
		r := New(Config{Threads: 2, SerializeAfter: 1, Hooks: hooks}, initialState())
		stop := context.AfterFunc(ctx, func() {
			r.fail(fmt.Errorf("stm: run canceled: %w", context.Cause(ctx)))
		})
		defer stop()
		done := make(chan error, 1)
		go func() {
			_, _, err := r.run([]adt.Task{blocker, addTask(5), addTask(7)})
			done <- err
		}()
		<-entered // serial attempt holds the write lock now
		cancel()  // cancel while the lock is held
		for !r.failed() {
			time.Sleep(time.Millisecond)
		}
		close(release)
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not drain after cancel during serial lock hold; lock leaked?")
		}
	})
}
