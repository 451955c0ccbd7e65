package stm

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/state"
)

// The step-level schedule explorer. A schedule is a sequence of moves,
// each one half of one task's attempt — execute_i or finish_i, the halves
// attempt calls back to back and the simulator calls at virtual times —
// with an aborted task re-queued for another execute. For small task sets
// every schedule is run; the oracle is Theorem 4.1 stated exactly: the
// final state equals a sequential run of the tasks in the order they
// committed, and no task makes more attempts than there are tasks. Below
// a half (lock order, lost commit races, history stalls) nothing is
// explored; see the staged tests for those.

// exploreSet is one hand-built task set over two or three locations.
type exploreSet struct {
	name    string
	initial func() *state.State
	// task builds the i-th task (1-based); sets are sized by the caller.
	task func(i int) adt.Task
	// abortFree: no schedule aborts under sequence detection, so the
	// number of schedules is the closed form.
	abortFree bool
}

func counters(vals ...int64) func() *state.State {
	return func() *state.State {
		st := state.New()
		for i, v := range vals {
			st.Set(fuzzCounterLoc(i), state.Int(v))
		}
		return st
	}
}

var exploreSets = []exploreSet{
	{
		// Every task adds to both counters: all pairs commute, every
		// overlapped commit replays dirty locations.
		name: "commuting-adds", initial: counters(0, 0), abortFree: true,
		task: func(i int) adt.Task {
			return func(ex adt.Executor) error {
				if err := (adt.Counter{L: "c0"}).Add(ex, int64(i)); err != nil {
					return err
				}
				return adt.Counter{L: "c1"}.Add(ex, int64(10*i))
			}
		},
	},
	{
		// Blind stores of distinct values to one location, and an add on a
		// private one: the last committer must win. No task reads, so the
		// commit-order rule admits every pair.
		name: "store-store", initial: counters(0, 0, 0), abortFree: true,
		task: func(i int) adt.Task {
			return func(ex adt.Executor) error {
				if err := (adt.Counter{L: "c0"}).Store(ex, int64(i)); err != nil {
					return err
				}
				return adt.Counter{L: fuzzCounterLoc(1 + i%2)}.Add(ex, 1)
			}
		},
	},
	{
		// Read one location, write a function of it to the next: a value
		// that flowed through the task body, which no replay can refresh.
		name: "read-then-write", initial: counters(1, 2, 3),
		task: func(i int) adt.Task {
			return func(ex adt.Executor) error {
				v, err := adt.Counter{L: fuzzCounterLoc(i % 3)}.Load(ex)
				if err != nil {
					return err
				}
				return adt.Counter{L: fuzzCounterLoc((i + 1) % 3)}.Store(ex, v+int64(i))
			}
		},
	},
	{
		// Locations the initial state lacks: the first committer creates
		// "fresh" in the overflow table (equal stores, so all pairs commute)
		// and later ones find it there; each task also creates its own.
		name: "created-mid-run", initial: counters(0), abortFree: true,
		task: func(i int) adt.Task {
			return func(ex adt.Executor) error {
				if err := (adt.Counter{L: "fresh"}).Store(ex, 7); err != nil {
					return err
				}
				if err := (adt.Counter{L: state.Loc(fmt.Sprintf("own.%d", i))}).Store(ex, int64(i)); err != nil {
					return err
				}
				return adt.Counter{L: "c0"}.Add(ex, 1)
			}
		},
	},
	{
		// Odd tasks add to c0 and then add to c0 and c1 with one op over
		// both; even tasks add to c1 only. When an even task commits
		// inside an odd one's window, c1 is dirty and c0 clean, and the
		// spanning op forces replayCompute's full replay. Every projection
		// is a counter add, so all pairs commute.
		name: "spanning-op", initial: counters(100, 0), abortFree: true,
		task: func(i int) adt.Task {
			return func(ex adt.Executor) error {
				if i%2 == 0 {
					return adt.Counter{L: "c1"}.Add(ex, int64(i))
				}
				if err := (adt.Counter{L: "c0"}).Add(ex, 5); err != nil {
					return err
				}
				_, err := ex.Exec(spreadOp("c0", "c1", int64(i)))
				return err
			}
		},
	},
	{
		// Odd tasks put a key into an empty relation, and the next even
		// task removes it. A remove that runs before the put finds the key
		// absent: its footprint there is a read (Table 3), which the
		// commit installs as a read, so the detector must judge it as one.
		// A set with rel.clear belongs here too, but fails under every
		// detector until the clear's commit is mended (ROADMAP 5(d)).
		name: "put-remove-absent",
		initial: func() *state.State {
			st := state.New()
			st.Set("r", adt.NewRelValue())
			return st
		},
		task: func(i int) adt.Task {
			return func(ex adt.Executor) error {
				m, key := adt.KVMap{L: "r"}, strconv.Itoa((i+1)/2)
				if i%2 == 1 {
					return m.Put(ex, key, "v")
				}
				return m.Remove(ex, key)
			}
		},
	},
}

// exploreDetectors are write-set; the sequence detector `janus serve`
// runs: an untrained cache that proves and caches a condition on each
// miss, so no trained entry hides a path, falling back to write-set where
// no theory covers the pair, and admitting a pair whenever the committed
// transaction's effect leaves the running one's reads unchanged; and the
// sequence detector with no cache, whose every conflict comes from the
// write-set fallback, so its safe-WAW inference (the commit-order rule)
// is all it admits beyond write-set.
var exploreDetectors = []struct {
	name string
	new  func() conflict.Detector
}{
	{"write-set", func() conflict.Detector { return conflict.NewWriteSet() }},
	{"sequence", func() conflict.Detector {
		return &conflict.Sequence{Cache: spec.New(spec.Abstract, true)}
	}},
	{"sequence+infer-waw", func() conflict.Detector { return &conflict.Sequence{} }},
}

// exploration is one point of the test matrix.
type exploration struct {
	set     exploreSet
	n       int
	ordered bool
	det     conflict.Detector
	// retriesBranch lets an aborted task's next attempt interleave like any
	// other move. Without it a retry waits until no first attempt can move
	// and then runs at once, so the schedule space stays the interleavings
	// of the 2n first-attempt moves however many of them abort.
	retriesBranch bool
}

// run runs one schedule from scratch. At every step it lists the enabled
// moves in a fixed order — per task, execute if it has no attempt in
// flight, else finish (in ordered mode only once every predecessor has
// published, where the runtime would park it) — and takes the one pick
// returns. It reports the moves taken and checks the oracle.
func (x exploration) run(pick func(step, enabled int) int) (trace []string, err error) {
	n := x.n
	tasks := make([]adt.Task, n)
	bodies := make([]int, n+1) // task-body invocations: the attempts begun
	for i := range tasks {
		tid, task := i+1, x.set.task(i+1)
		tasks[i] = func(ex adt.Executor) error {
			bodies[tid]++
			return task(ex)
		}
	}
	sink := &commitCollector{}
	r := New(Config{Threads: 1, Ordered: x.ordered, Detector: x.det, Record: sink}, x.set.initial())
	r.start(n)
	inFlight := make([]*Tx, n+1) // a task's executed attempt awaiting its finish
	done := make([]bool, n+1)
	attempts := make([]int, n+1)
	for step, left := 0, n; left > 0; step++ {
		var enabled, retries []int
		for tid := 1; tid <= n; tid++ {
			switch {
			case done[tid] || (inFlight[tid] != nil && x.ordered && r.published.Load() != r.turn(tid)):
			case attempts[tid] > 0 && !x.retriesBranch:
				retries = append(retries, tid)
			default:
				enabled = append(enabled, tid)
			}
		}
		if len(enabled) == 0 {
			enabled = retries[:1]
		}
		tid := enabled[pick(step, len(enabled))]
		ctx := obs.Ctx{Task: int32(tid), Attempt: int32(attempts[tid] + 1)}
		if inFlight[tid] == nil {
			trace = append(trace, fmt.Sprintf("execute_%d", tid))
			tx, err := r.execute(ctx, tasks[tid-1], tid)
			if err != nil {
				return trace, err
			}
			// Theorem 4.1's bound: every abort is charged to a distinct
			// commit by another task, so no task begins attempt n+1.
			if bodies[tid] > n {
				return trace, fmt.Errorf("task %d began attempt %d in a set of %d", tid, bodies[tid], n)
			}
			inFlight[tid] = tx
			continue
		}
		committed := r.finish(ctx, inFlight[tid])
		inFlight[tid] = nil
		attempts[tid]++
		if err := r.runErr(); err != nil {
			return trace, err
		}
		if committed {
			trace = append(trace, fmt.Sprintf("finish_%d", tid))
			r.noteCommit()
			done[tid] = true
			left--
		} else {
			trace = append(trace, fmt.Sprintf("finish_%d(abort)", tid))
			r.noteRetry(tid, attempts[tid])
		}
	}

	stats := r.statsSnapshot()
	if stats.Commits != int64(n) || len(sink.commits) != n {
		return trace, fmt.Errorf("%d commits counted, %d observed, want %d", stats.Commits, len(sink.commits), n)
	}
	order := make([]adt.Task, n)
	var written int64
	for i, c := range sink.commits {
		if x.ordered && c.task != i+1 {
			return trace, fmt.Errorf("ordered run committed task %d in position %d", c.task, i+1)
		}
		order[i] = tasks[c.task-1]
		for _, f := range conflict.Prepare(c.log).Footprint() {
			if f.Write {
				written++
			}
		}
	}
	want, err := RunSequential(x.set.initial(), order)
	if err != nil {
		return trace, err
	}
	if got := r.State(); !got.Equal(want) {
		return trace, fmt.Errorf("final state %s, but the tasks run sequentially in their commit order give %s", got, want)
	}
	if stats.LocsInstalled+stats.LocsReplayed != written {
		return trace, fmt.Errorf("%d locations installed + %d replayed, but the commits wrote %d",
			stats.LocsInstalled, stats.LocsReplayed, written)
	}
	return trace, nil
}

// enumerate runs every schedule, depth first: a schedule is replayed from
// its choice prefix and extended with first choices, then the deepest
// choice that has an untried sibling is advanced.
func (x exploration) enumerate(t *testing.T) (schedules int) {
	t.Helper()
	var prefix []int
	for {
		var widths []int
		trace, err := x.run(func(step, enabled int) int {
			widths = append(widths, enabled)
			if step < len(prefix) {
				return prefix[step]
			}
			return 0
		})
		if err != nil {
			t.Fatalf("n=%d, schedule %s: %v", x.n, strings.Join(trace, " "), err)
		}
		schedules++
		choice := make([]int, len(widths))
		copy(choice, prefix)
		i := len(choice) - 1
		for i >= 0 && choice[i]+1 >= widths[i] {
			i--
		}
		if i < 0 {
			return schedules
		}
		choice[i]++
		prefix = choice[:i+1]
	}
}

// TestExploreSchedules runs, per task set, detector and commit order:
// every schedule of two and three tasks, retries interleaving freely;
// every interleaving of four tasks' first attempts, retries re-queued
// behind them; and seeded random schedules of six, retries interleaving.
func TestExploreSchedules(t *testing.T) {
	const samples = 2000
	for _, set := range exploreSets {
		for _, det := range exploreDetectors {
			for _, ordered := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/ordered=%v", set.name, det.name, ordered), func(t *testing.T) {
					x := exploration{set: set, ordered: ordered, det: det.new(), retriesBranch: true}
					// (2n)!/2^n interleavings of n execute-before-finish pairs
					// when nothing aborts and nothing parks.
					closedForm := map[int]int{2: 6, 3: 90, 4: 2520}
					for x.n = 2; x.n <= 3; x.n++ {
						got := x.enumerate(t)
						if set.abortFree && det.name != "write-set" && !ordered && got != closedForm[x.n] {
							t.Fatalf("n=%d: %d schedules, want %d", x.n, got, closedForm[x.n])
						}
					}
					x.n, x.retriesBranch = 4, false
					if got := x.enumerate(t); !ordered && got != closedForm[4] {
						t.Fatalf("n=4: %d schedules, want %d", got, closedForm[4])
					}
					x.n, x.retriesBranch = 6, true
					rng := rand.New(rand.NewSource(23))
					for i := 0; i < samples/len(exploreSets); i++ {
						trace, err := x.run(func(_, enabled int) int { return rng.Intn(enabled) })
						if err != nil {
							t.Fatalf("sampled schedule %s: %v", strings.Join(trace, " "), err)
						}
					}
				})
			}
		}
	}
}
