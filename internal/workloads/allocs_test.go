package workloads

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/state"
	"repro/internal/stm"
)

// applyExec runs a task's ops straight on a state, charging local work to
// nothing, so what a run allocates is the task body's and its ops'. It
// counts the string stores that change their location's value.
type applyExec struct {
	st      *state.State
	stores  int
	changes int
}

func (e *applyExec) Exec(op oplog.Op) (state.Value, error) {
	if op.K == adt.StrStore {
		e.stores++
		cur, _ := e.st.Get(op.L)
		if !op.V.EqualValue(cur) {
			e.changes++
		}
	}
	return op.Apply(e.st)
}

func (*applyExec) AddLocalWork(int64) {}

// TestHeavyTaskAllocsIgnoreOpCount: a heavy task's body names its
// counters from a table built once, so a warm task allocates the same at
// 1 024 ops as at 64. Formatting the name in the body cost one object per
// add/sub pair.
func TestHeavyTaskAllocsIgnoreOpCount(t *testing.T) {
	allocs := func(ops int) float64 {
		task := Heavy(ops, 0).Tasks(Training, 1)[0]
		ex := &applyExec{st: heavyState()}
		return testing.AllocsPerRun(50, func() {
			if err := task(ex); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(64), allocs(1024); long != short {
		t.Fatalf("a warm heavy task allocates %.0f objects at 1024 ops, %.0f at 64", long, short)
	}
}

// TestWekaRerunAllocatesNothing: run a weka task, then again over the
// state its first run left. Its names were built with the task set and
// its three colors boxed once per process, every pixel store is equal to
// what the pixel holds, and the three stores that change the color
// register (to background, white, black) bind a color's box: the rerun
// allocates nothing. Boxing the stored string at each change cost three.
func TestWekaRerunAllocatesNothing(t *testing.T) {
	tasks := Weka().Tasks(Training, 1000)
	g := jgGraphFor(Training, 1000)
	v := 0
	for len(g.neighbors[v]) < 3 {
		v++
	}
	ex := &applyExec{st: wekaState()}
	run := func() {
		if err := tasks[v](ex); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(20, run)
	ex.stores, ex.changes = 0, 0
	run()
	if allocs != 0 || ex.changes != 3 {
		t.Fatalf("a weka task of degree %d rerun over its own result allocates %.0f objects for %d stores, %d of them changing a value; want 0 objects and 3 changes, the color register's",
			len(g.neighbors[v]), allocs, ex.stores, ex.changes)
	}
	t.Logf("degree %d: %d stores, %d changes, %.0f allocations", len(g.neighbors[v]), ex.stores, ex.changes, allocs)
}

// TestWekaRunAllocs pins what the runtime allocates per committed
// transaction of weka, Figure 5's rendering loop, in a 2-thread
// production Run of the trained sequence detector, opening the runtime
// and reading its state out included, the way the benchmark counts it.
// A task stores dozens of strings, most of them changing a pixel, and
// boxing each changing store's string was most of the 41.8 objects per
// transaction this read before values were boxed once. What is left is
// the pixel boxes each fresh runtime creates mid-run (about 3 per
// transaction), the commit's value slab (1) and the sequence keys
// detection renders, which vary with the schedule; so the pin takes the
// fewest of ten runs.
func TestWekaRunAllocs(t *testing.T) {
	w := Weka()
	det := trainedDetector(t, w)
	tasks := w.Tasks(Production, 1)
	const pinned = 6
	best := math.Inf(1)
	for i := 0; i < 10; i++ {
		st := w.NewState()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, stats, err := stm.Run(stm.Config{Threads: 2, Detector: det}, st, tasks)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, float64(m1.Mallocs-m0.Mallocs)/float64(stats.Commits))
	}
	if best > pinned {
		t.Fatalf("a 2-thread production weka Run allocates %.1f objects per committed transaction, want at most %d", best, pinned)
	}
	t.Logf("%.2f objects per committed transaction over %d tasks", best, len(tasks))
}
