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

// fakeGov is a minimal Governor for runtime-side tests: a settable
// SerialOnly switch plus counters for every Observe signal.
type fakeGov struct {
	serial      atomic.Bool
	commits     atomic.Int64
	escalations atomic.Int64
	backoffs    atomic.Int64
	commitWaits atomic.Int64
}

func (g *fakeGov) SerialOnly() bool                  { return g.serial.Load() }
func (g *fakeGov) ObserveCommit()                    { g.commits.Add(1) }
func (g *fakeGov) ObserveCommitWait(_ time.Duration) { g.commitWaits.Add(1) }
func (g *fakeGov) ObserveBackoff(_ time.Duration)    { g.backoffs.Add(1) }
func (g *fakeGov) ObserveEscalation()                { g.escalations.Add(1) }

// TestGovernorSerialOnlyEscalatesEveryTask: a tripped governor must route
// every transaction through the irrevocable serial path, in both commit
// orders, and still produce the correct final state.
func TestGovernorSerialOnlyEscalatesEveryTask(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		gov := &fakeGov{}
		gov.serial.Store(true)
		tasks := []adt.Task{addTask(1), addTask(2), addTask(3), addTask(4)}
		final, stats, err := Run(Config{Threads: 4, Ordered: ordered, Governor: gov},
			initialState(), tasks)
		if err != nil {
			t.Fatalf("ordered=%v: %v", ordered, err)
		}
		if v, _ := final.Get("work"); !v.EqualValue(state.Int(10)) {
			t.Fatalf("ordered=%v: work = %v, want 10", ordered, v)
		}
		if stats.Escalations != int64(len(tasks)) {
			t.Errorf("ordered=%v: Escalations = %d, want %d", ordered, stats.Escalations, len(tasks))
		}
		if got := gov.commits.Load(); got != int64(len(tasks)) {
			t.Errorf("ordered=%v: ObserveCommit count = %d, want %d", ordered, got, len(tasks))
		}
		if got := gov.escalations.Load(); got != int64(len(tasks)) {
			t.Errorf("ordered=%v: ObserveEscalation count = %d, want %d", ordered, got, len(tasks))
		}
	}
}

// TestGovernorObservesBackoff: aborted attempts that sleep must report
// each backoff to the governor.
func TestGovernorObservesBackoff(t *testing.T) {
	gov := &fakeGov{}
	hooks := &Hooks{ForceAbort: func(task, attempt int) bool { return attempt == 1 }}
	_, stats, err := Run(Config{
		Threads: 2, Governor: gov, Hooks: hooks,
		Backoff: Backoff{Base: time.Microsecond},
	}, initialState(), []adt.Task{addTask(1), addTask(2)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BackoffWaits == 0 {
		t.Fatal("no backoff waits recorded; hook did not fire")
	}
	if got := gov.backoffs.Load(); got != stats.BackoffWaits {
		t.Errorf("ObserveBackoff count = %d, want %d", got, stats.BackoffWaits)
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
	gov := &fakeGov{}
	gov.serial.Store(true)
	_, _, err := Run(Config{Threads: 1, MaxTxnOps: 4, Governor: gov},
		initialState(), []adt.Task{hungry})
	var be *OplogBudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *OplogBudgetError", err)
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
