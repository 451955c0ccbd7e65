package stm

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/adt"
)

// TestAttemptsBoundedByTaskCount pins the bound that makes a serial mode
// unnecessary (Theorem 4.1): an attempt aborts only on a window entry,
// which another task committed after the attempt began, and the retry
// begins after that entry. Each retry is charged to a distinct commit by
// another task, so in a set of n tasks none makes more than n attempts.
// Attempts are counted by task-body invocations, with no injected aborts,
// on the explorer's sets: sampled step-level schedules, then the runtime's
// own workers at 8 threads.
func TestAttemptsBoundedByTaskCount(t *testing.T) {
	const n = 8
	for _, set := range exploreSets {
		for _, det := range exploreDetectors {
			for _, ordered := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/ordered=%v", set.name, det.name, ordered), func(t *testing.T) {
					// exploration.run fails a schedule in which a task
					// begins attempt n+1.
					x := exploration{set: set, n: n, ordered: ordered, det: det.new(), retriesBranch: true}
					rng := rand.New(rand.NewSource(29))
					for i := 0; i < 100; i++ {
						if trace, err := x.run(func(_, enabled int) int { return rng.Intn(enabled) }); err != nil {
							t.Fatalf("schedule %s: %v", strings.Join(trace, " "), err)
						}
					}
					for run := 0; run < 10; run++ {
						bodies := make([]atomic.Int32, n+1)
						tasks := make([]adt.Task, n)
						for i := range tasks {
							tid, task := i+1, set.task(i+1)
							tasks[i] = func(ex adt.Executor) error {
								bodies[tid].Add(1)
								// Yield mid-body so attempts overlap on a
								// host with fewer cores than workers.
								runtime.Gosched()
								return task(ex)
							}
						}
						// MaxRetries n stops a run whose bound is broken
						// instead of letting it spin.
						_, _, err := Run(Config{Threads: n, Ordered: ordered, Detector: det.new(), MaxRetries: n},
							set.initial(), tasks)
						if err != nil {
							t.Fatalf("run %d: %v", run, err)
						}
						for tid := 1; tid <= n; tid++ {
							if got := bodies[tid].Load(); got > n {
								t.Fatalf("run %d: task %d made %d attempts in a set of %d", run, tid, got, n)
							}
						}
					}
				})
			}
		}
	}
}
