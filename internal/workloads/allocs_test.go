package workloads

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/state"
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
		if s, ok := cur.(state.Str); !ok || string(s) != op.Val {
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

// TestWekaRerunAllocatesOnlyChanges: run a weka task, then again over
// the state its first run left. Its names were built with the task set
// and every pixel store is equal to what the pixel holds, so the body
// allocates nothing: the rerun's only objects are the three values the
// color register changes to (background, white, black), one each.
func TestWekaRerunAllocatesOnlyChanges(t *testing.T) {
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
	if allocs != float64(ex.changes) || ex.changes != 3 {
		t.Fatalf("a weka task of degree %d rerun over its own result allocates %.0f objects for %d stores, %d of them changing a value; want 3, the color register's",
			len(g.neighbors[v]), allocs, ex.stores, ex.changes)
	}
	t.Logf("degree %d: %d stores, %d changes, %.0f allocations", len(g.neighbors[v]), ex.stores, ex.changes, allocs)
}
