package workloads

import (
	"fmt"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/state"
)

// JFileSync locations.
const (
	jfsItemsStarted = state.Loc("monitor.itemsStarted")
	jfsItemsWeight  = state.Loc("monitor.itemsWeight")
	jfsRootURISrc   = state.Loc("monitor.rootUriSrc")
	jfsRootURITgt   = state.Loc("monitor.rootUriTgt")
	jfsCanceled     = state.Loc("progress.canceled")
)

// JFileSync reproduces the directory-pair comparison loop of Figure 2:
// each task pushes progress entries onto the shared monitor's
// itemsStarted/itemsWeight stacks, recursively compares files (balanced
// push/pop per recursion level — the identity pattern), overwrites the
// monitor's rootUriSrc/rootUriTgt scratch fields (shared-as-local), and
// polls the shared cancellation flag.
func JFileSync() *Workload {
	return &Workload{
		Name:            "jfilesync",
		Version:         "2.2",
		Desc:            "Utility for synchronizing pairs of directories",
		Patterns:        []string{"identity", "shared-as-local"},
		TrainingInput:   "random directory-pair lists of length 5 and 10",
		ProductionInput: "random directory-pair lists of length 25 and 100",
		Ordered:         false,
		NewState:        jfsState,
		Tasks:           jfsTasks,
		Relaxations: conflict.NewRelaxations(
			nil,
			[]state.Loc{jfsRootURISrc, jfsRootURITgt}, // scratch fields: WAW tolerable
		),
		LocalWork: 5000,
	}
}

func jfsState() *state.State {
	st := state.New()
	st.Set(jfsItemsStarted, &state.IntList{})
	st.Set(jfsItemsWeight, &state.IntList{})
	st.Set(jfsRootURISrc, state.Str(""))
	st.Set(jfsRootURITgt, state.Str(""))
	st.Set(jfsCanceled, state.Bool(false))
	return st
}

func jfsTasks(size Size, seed int64) []adt.Task {
	var pairs int
	switch size {
	case Training:
		pairs = 5
		if seed%2 == 1 {
			pairs = 10
		}
	case Production:
		pairs = 100
		if seed%2 == 1 {
			pairs = 25
		}
	default:
		pairs = 10
	}
	r := rng(seed)
	w := JFileSync()
	tasks := make([]adt.Task, pairs)
	// Production directory trees run deeper than the training ones —
	// the §5.2 motivation: add–subtract sequences are length-wise
	// proportional to the complexity of the input items, so fixed-length
	// (unabstracted) cache keys miss on them.
	maxSub := 6
	if size == Production {
		maxSub = 12
	}
	for i := 0; i < pairs; i++ {
		// Per-pair shape, fixed up front so retries are deterministic:
		// number of sub-items found under the pair and their weights.
		subItems := 2 + r.Intn(maxSub)
		weights := make([]int64, subItems)
		for j := range weights {
			weights[j] = int64(1 + r.Intn(4))
		}
		// The roots the body stores, boxed once per task.
		src := state.Value(state.Str(fmt.Sprintf("/src/dir%04d", i)))
		tgt := state.Value(state.Str(fmt.Sprintf("/tgt/dir%04d", i)))
		tasks[i] = jfsCompareTask(src, tgt, weights, w.LocalWork)
	}
	return tasks
}

// jfsCompareTask is one iteration of the Figure 2 loop.
func jfsCompareTask(src, tgt state.Value, weights []int64, localWork int) adt.Task {
	return func(ex adt.Executor) error {
		started := adt.Stack{L: jfsItemsStarted}
		weight := adt.Stack{L: jfsItemsWeight}
		srcVar := adt.StrVar{L: jfsRootURISrc}
		tgtVar := adt.StrVar{L: jfsRootURITgt}
		canceled := adt.BoolVar{L: jfsCanceled}

		if err := started.Push(ex, 2); err != nil {
			return err
		}
		if err := weight.Push(ex, 1); err != nil {
			return err
		}
		if err := srcVar.Store(ex, src); err != nil {
			return err
		}
		if err := tgtVar.Store(ex, tgt); err != nil {
			return err
		}
		stop, err := canceled.Load(ex)
		if err != nil {
			return err
		}
		if !stop {
			var total int64
			for _, w := range weights {
				total += w
			}
			if err := started.Push(ex, int64(len(weights))); err != nil {
				return err
			}
			if err := weight.Push(ex, total); err != nil {
				return err
			}
			// compareFiles: recursive, making balanced add-remove calls.
			for _, w := range weights {
				if err := started.Push(ex, 1); err != nil {
					return err
				}
				if err := weight.Push(ex, w); err != nil {
					return err
				}
				// The scratch fields are read back deep in the recursion.
				if _, err := srcVar.Load(ex); err != nil {
					return err
				}
				adt.LocalWork(ex, int64(localWork))
				if _, err := weight.Pop(ex); err != nil {
					return err
				}
				if _, err := started.Pop(ex); err != nil {
					return err
				}
			}
			if _, err := weight.Pop(ex); err != nil {
				return err
			}
			if _, err := started.Pop(ex); err != nil {
				return err
			}
		}
		if _, err := weight.Pop(ex); err != nil {
			return err
		}
		if _, err := started.Pop(ex); err != nil {
			return err
		}
		return nil
	}
}
