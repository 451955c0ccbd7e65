package stm

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adt"
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
