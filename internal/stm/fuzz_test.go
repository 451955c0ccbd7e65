package stm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/state"
)

// randomTask builds a deterministic task performing a random mix of
// operations over a few shared locations.
func randomTask(rng *rand.Rand) adt.Task {
	type step struct {
		kind int
		loc  int
		arg  int64
		key  int
	}
	n := 1 + rng.Intn(6)
	steps := make([]step, n)
	for i := range steps {
		steps[i] = step{
			kind: rng.Intn(6),
			loc:  rng.Intn(3),
			arg:  int64(rng.Intn(9) - 4),
			key:  rng.Intn(4),
		}
	}
	return func(ex adt.Executor) error {
		for _, s := range steps {
			var err error
			switch s.kind {
			case 0:
				err = adt.Counter{L: fuzzCounterLoc(s.loc)}.Add(ex, s.arg)
			case 1:
				err = adt.Counter{L: fuzzCounterLoc(s.loc)}.Store(ex, s.arg)
			case 2:
				_, err = adt.Counter{L: fuzzCounterLoc(s.loc)}.Load(ex)
			case 3:
				err = adt.KVMap{L: "m"}.Put(ex, fmt.Sprintf("k%d", s.key), fmt.Sprintf("v%d", s.arg))
			case 4:
				_, _, err = adt.KVMap{L: "m"}.Get(ex, fmt.Sprintf("k%d", s.key))
			default:
				err = adt.BitSet{L: "b"}.Set(ex, s.key)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
}

func fuzzCounterLoc(i int) state.Loc { return state.Loc(fmt.Sprintf("c%d", i)) }

func fuzzState() *state.State {
	st := state.New()
	for i := 0; i < 3; i++ {
		st.Set(fuzzCounterLoc(i), state.Int(0))
	}
	st.Set("m", adt.NewRelValue())
	st.Set("b", adt.NewRelValue())
	return st
}

// TestFuzzOrderedSerializability: under ordered commits the final state
// must equal the sequential execution exactly, for random task mixes,
// with both detectors (trained and untrained).
func TestFuzzOrderedSerializability(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 25; trial++ {
		nTasks := 3 + rng.Intn(10)
		tasks := make([]adt.Task, nTasks)
		for i := range tasks {
			tasks[i] = randomTask(rng)
		}
		want, err := RunSequential(fuzzState(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		engine := core.NewEngine(core.Options{})
		if err := engine.Train(fuzzState(), tasks); err != nil {
			t.Fatal(err)
		}
		dets := []conflict.Detector{conflict.NewWriteSet(), engine.Detector()}
		for _, det := range dets {
			got, stats, err := Run(Config{
				Threads:  4,
				Ordered:  true,
				Detector: det,
			}, fuzzState(), tasks)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, det.Name(), err)
			}
			if stats.Commits != int64(nTasks) {
				t.Fatalf("trial %d: commits=%d", trial, stats.Commits)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d %s: ordered run diverged\ngot:  %s\nwant: %s",
					trial, det.Name(), got, want)
			}
		}
	}
}

// TestFuzzUnorderedCommutativeTasks: when every task is built from
// globally commutative operations (counter adds, same-value puts, bit
// sets), any commit order must equal the sequential state.
func TestFuzzUnorderedCommutativeTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		nTasks := 4 + rng.Intn(12)
		tasks := make([]adt.Task, nTasks)
		for i := range tasks {
			adds := make([]int64, 1+rng.Intn(4))
			for j := range adds {
				adds[j] = int64(rng.Intn(9) - 4)
			}
			bit := rng.Intn(6)
			tasks[i] = func(ex adt.Executor) error {
				for _, a := range adds {
					if err := (adt.Counter{L: "c0"}).Add(ex, a); err != nil {
						return err
					}
				}
				if err := (adt.BitSet{L: "b"}).Set(ex, bit); err != nil {
					return err
				}
				return adt.KVMap{L: "m"}.Put(ex, "shared", "const")
			}
		}
		want, err := RunSequential(fuzzState(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		engine := core.NewEngine(core.Options{})
		if err := engine.Train(fuzzState(), tasks[:2]); err != nil {
			t.Fatal(err)
		}
		got, _, err := Run(Config{Threads: 4, Detector: engine.Detector()}, fuzzState(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: commutative tasks diverged\ngot:  %s\nwant: %s", trial, got, want)
		}
	}
}

// TestFuzzUnorderedWriteSetIsSomeSerialOrder: under unordered commits with
// the conservative detector, the final state must equal the sequential
// execution of SOME permutation of the tasks. For tractability the trial
// sizes keep n! enumerable.
func TestFuzzUnorderedWriteSetIsSomeSerialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		nTasks := 2 + rng.Intn(3) // ≤ 4! = 24 permutations
		tasks := make([]adt.Task, nTasks)
		for i := range tasks {
			tasks[i] = randomTask(rng)
		}
		got, _, err := Run(Config{Threads: 4, Detector: conflict.NewWriteSet()}, fuzzState(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesSomePermutation(t, tasks, got) {
			t.Fatalf("trial %d: final state matches no serial order: %s", trial, got)
		}
	}
}

func matchesSomePermutation(t *testing.T, tasks []adt.Task, got *state.State) bool {
	t.Helper()
	idx := make([]int, len(tasks))
	for i := range idx {
		idx[i] = i
	}
	var try func(perm []int, rest []int) bool
	try = func(perm, rest []int) bool {
		if len(rest) == 0 {
			ordered := make([]adt.Task, len(perm))
			for i, p := range perm {
				ordered[i] = tasks[p]
			}
			want, err := RunSequential(fuzzState(), ordered)
			if err != nil {
				t.Fatal(err)
			}
			return got.Equal(want)
		}
		for i := range rest {
			next := append(append([]int{}, perm...), rest[i])
			rem := append(append([]int{}, rest[:i]...), rest[i+1:]...)
			if try(next, rem) {
				return true
			}
		}
		return false
	}
	return try(nil, idx)
}
