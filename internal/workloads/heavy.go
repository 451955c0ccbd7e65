// The synthetic heavy-transaction driver. The five paper benchmarks are
// all small transactions — a handful of logged operations each — which
// never exercises the decomposer's index map. Heavy is the CLI-drivable
// counterweight: every transaction logs a configurable number of
// operations over a skewable location distribution, so `janus bench` can
// profile the large-ops/txn regime (`-ops-per-txn`, `-txn-skew`) that
// BenchmarkDetectLargeTxn measures in isolation.

package workloads

import (
	"fmt"

	"repro/internal/adt"
	"repro/internal/state"
)

// HeavyName is the synthetic workload's -workloads selector. It is not
// part of All(): the paper suite stays the five real benchmarks, and
// Heavy needs its knobs, so callers construct it via Heavy rather than
// ByName.
const HeavyName = "heavy"

// heavyLocs is the number of distinct counters heavy transactions spread
// their accesses over.
const heavyLocs = 64

// DefaultHeavyOps is the ops/txn when the knob is zero: an order of
// magnitude past the paper workloads' task bodies.
const DefaultHeavyOps = 64

func heavyLoc(i int) state.Loc { return state.Loc(fmt.Sprintf("h%02d", i)) }

// Heavy builds the heavy-transaction workload: each task executes
// opsPerTxn logged counter operations — balanced add/sub identity pairs
// on locations drawn from a skewable distribution, plus a shared
// reduction — so sequence detection admits concurrent commits that
// write-set detection would serialize, exactly like the paper patterns,
// but at 10–100× the operation count. opsPerTxn <= 0 means
// DefaultHeavyOps. skew biases location choice toward low indices
// (0 = uniform; larger values concentrate the footprint, raising the
// share of transaction pairs whose footprints overlap).
func Heavy(opsPerTxn int, skew float64) *Workload {
	if opsPerTxn <= 0 {
		opsPerTxn = DefaultHeavyOps
	}
	return &Workload{
		Name:    HeavyName,
		Version: "synthetic",
		Desc:    fmt.Sprintf("heavy transactions: %d ops/txn, skew %.2f", opsPerTxn, skew),
		Patterns: []string{
			"identity", "reduction",
		},
		TrainingInput:   "16 tasks",
		ProductionInput: "128 tasks",
		NewState:        heavyState,
		Tasks: func(size Size, seed int64) []adt.Task {
			return heavyTasks(size, seed, opsPerTxn, skew)
		},
	}
}

func heavyState() *state.State {
	st := state.New()
	for i := 0; i < heavyLocs; i++ {
		st.Set(heavyLoc(i), state.Int(0))
	}
	st.Set("h.total", state.Int(0))
	return st
}

// heavyPick draws a location index with the configured skew. rand.Zipf
// wants s > 1 and allocates per generator, so a direct power-law warp of
// one uniform draw keeps task-script generation cheap and deterministic:
// skew 0 is uniform, skew 1 roughly halves the effective footprint, and
// larger values concentrate most accesses on a few hot counters.
func heavyPick(u float64, skew float64) int {
	if skew > 0 {
		for i := 0.0; i < skew; i++ {
			u *= u
		}
	}
	return int(u * heavyLocs)
}

func heavyTasks(size Size, seed int64, opsPerTxn int, skew float64) []adt.Task {
	n := 128
	switch size {
	case Training:
		n = 16
	case Small:
		n = 32
	}
	r := rng(seed)
	tasks := make([]adt.Task, 0, n)
	for t := 0; t < n; t++ {
		// Fix the task's op script up front: retries must replay the
		// identical operation sequence, so the closure owns its script
		// rather than drawing from the shared generator at run time.
		pairs := (opsPerTxn - 1) / 2
		script := make([]int, pairs)
		for k := range script {
			script[k] = heavyPick(r.Float64(), skew)
		}
		delta := int64(t + 1)
		tasks = append(tasks, func(ex adt.Executor) error {
			for _, li := range script {
				c := adt.Counter{L: heavyLoc(li)}
				if err := c.Add(ex, delta); err != nil {
					return err
				}
				if err := c.Sub(ex, delta); err != nil {
					return err
				}
			}
			return adt.Counter{L: "h.total"}.Add(ex, delta)
		})
	}
	return tasks
}
