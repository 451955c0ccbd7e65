package stm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/oplog"
	"repro/internal/state"
)

// checkInstallAgainstReplay is the test-only install check: with the
// commit's stripes (or the write lock) still held and nothing published,
// replay the whole log onto a fresh overlay of the committed store — what
// Figure 7's COMMIT would have computed — and require every written
// location's installed value to equal the replayed one.
func checkInstallAgainstReplay(t *testing.T, r *Runtime) {
	r.installCheck = func(tx *Tx, foot []conflict.FootprintLoc) {
		full := state.NewFaulting(r.storeGet)
		if err := tx.prep.Log().Replay(full); err != nil {
			t.Errorf("task %d: full replay failed: %v", tx.tid, err)
			return
		}
		for i, f := range foot {
			if !f.Write {
				continue
			}
			got, gok := tx.installed(i, f.Loc)
			want, wok := full.Get(f.Loc)
			if gok != wok || (gok && !got.EqualValue(want)) {
				t.Errorf("task %d installs %s = %v (bound %v, dirty %v); a full replay computes %v (bound %v)",
					tx.tid, f.Loc, got, gok, tx.replayed(i), want, wok)
			}
		}
	}
}

// commutingTasks builds a task set every two members of which commute, so
// any serialization reaches the sequential final state and neverConflict
// is a valid detector: counter adds, puts to a per-task key of one
// relation, equal stores to one string, and a location created mid-run.
// With ordered, tasks also push their id onto a shared list — blind
// writes whose order the ordered commit turn fixes and only a replay onto
// the committed list gets right.
func commutingTasks(rng *rand.Rand, n int, ordered bool) []adt.Task {
	tasks := make([]adt.Task, n)
	for i := range tasks {
		id := i + 1
		kinds := make([]int, 1+rng.Intn(5))
		for j := range kinds {
			kinds[j] = rng.Intn(6)
		}
		locs := rng.Perm(6)
		tasks[i] = func(ex adt.Executor) error {
			for j, k := range kinds {
				var err error
				switch k {
				case 0, 1:
					err = adt.Counter{L: fuzzCounterLoc(locs[j] % 3)}.Add(ex, int64(id))
				case 2:
					err = adt.KVMap{L: "m"}.Put(ex, fmt.Sprintf("k%d", id), fmt.Sprintf("v%d", j))
				case 3:
					err = adt.StrVar{L: "tag"}.Store(ex, state.Str("same"))
				case 4:
					err = adt.Counter{L: state.Loc(fmt.Sprintf("new.%d", id))}.Store(ex, int64(id))
				default:
					if ordered {
						err = adt.Stack{L: "log"}.Push(ex, int64(id))
					} else {
						err = adt.BitSet{L: "b"}.Set(ex, id)
					}
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
	}
	return tasks
}

func installState() *state.State {
	st := fuzzState()
	st.Set("tag", state.Str(""))
	st.Set("log", &state.IntList{})
	return st
}

// TestInstallEqualsReplay is the install rule's oracle. Random commuting
// multi-location task sets run with the detect-to-commit window and the
// commit critical section stretched, so windows are non-empty and commits
// mix clean and dirty locations; every commit's installed values are
// compared with a full replay taken under the same stripes, and the final
// state with the sequential one (Theorem 4.1) — unordered and ordered,
// under a detector that clears every window (all dirty counters reach
// commit) and under write-set detection (only relation keys do).
func TestInstallEqualsReplay(t *testing.T) {
	var installed, replayed int64
	for _, ordered := range []bool{false, true} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(100*seed + 7))
			tasks := commutingTasks(rng, 20, ordered)
			want, err := RunSequential(installState(), tasks)
			if err != nil {
				t.Fatal(err)
			}
			for _, det := range []conflict.Detector{neverConflict{}, conflict.NewWriteSet()} {
				cfg := Config{Threads: 4, Ordered: ordered, Detector: det}
				// Deterministic per-task stalls: a third of the
				// transactions sit between validation and commit, a
				// third inside the commit, while the others publish.
				cfg.Hooks = &Hooks{
					WindowDelay: func(task int) {
						if task%3 == 0 {
							time.Sleep(50 * time.Microsecond)
						} else {
							runtime.Gosched()
						}
					},
					CommitDelay: func(task int) {
						if task%3 == 1 {
							time.Sleep(20 * time.Microsecond)
						}
					},
				}
				r := New(cfg, installState())
				checkInstallAgainstReplay(t, r)
				stats, err := r.Run(context.Background(), tasks)
				name := fmt.Sprintf("ordered=%v seed=%d %s", ordered, seed, det.Name())
				if err != nil {
					var p *PanicError
					if errors.As(err, &p) {
						t.Fatalf("%s: %v\n%s", name, err, p.Stack)
					}
					t.Fatalf("%s: %v", name, err)
				}
				if got := r.State(); !got.Equal(want) {
					t.Fatalf("%s: final state %s, sequential %s", name, got, want)
				}
				installed += stats.LocsInstalled
				replayed += stats.LocsReplayed
			}
		}
	}
	if installed == 0 || replayed == 0 {
		t.Fatalf("installed %d, replayed %d locations over all runs: the schedules exercise one path only", installed, replayed)
	}
}

// runOverlapped runs two transactions so that the second commits inside
// the first one's window: task 1 is held between its (empty-window)
// validation and its commit until task 2 has committed, loses the
// signature screen, re-validates against task 2's entry — neverConflict
// clears it, so the tasks must commute — and commits with that entry in
// its window.
func runOverlapped(st *state.State, first, second adt.Task) (*state.State, Stats, error) {
	sig := committedSignal{task: 2, ch: make(chan struct{})}
	return Run(Config{
		Threads:  2,
		Detector: neverConflict{},
		Record:   sig,
		Hooks: &Hooks{WindowDelay: func(task int) {
			if task == 1 {
				<-sig.ch
			}
		}},
	}, st, []adt.Task{first, second})
}

// spreadKind is a test-local kind over two locations: it adds N to both
// L and the location named by Key. No shipped op spans locations; the
// commit path must still be right for one that does. Its projection at
// either location is exactly the counter add its symbol names, so the
// sequence theories cover its pairs.
type spreadKind struct{}

// spreadOp adds n to both a and b.
func spreadOp(a, b state.Loc, n int64) oplog.Op {
	return oplog.Op{K: spreadKind{}, L: a, Key: string(b), N: n}
}

func (spreadKind) Apply(o oplog.Op, st *state.State) (state.Value, error) {
	for _, l := range []state.Loc{o.L, state.Loc(o.Key)} {
		if _, err := (adt.NumAddOp{L: l, Delta: o.N}.Op()).Apply(st); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func (spreadKind) AppendAccesses(o oplog.Op, dst []oplog.Access, st *state.State) []oplog.Access {
	return adt.NumAddOp{L: state.Loc(o.Key)}.Op().AppendAccesses(adt.NumAddOp{L: o.L}.Op().AppendAccesses(dst, st), st)
}
func (spreadKind) Sym(o oplog.Op) oplog.Sym { return adt.NumAddOp{Delta: o.N}.Op().Sym() }
func (spreadKind) IsRead(oplog.Op) bool     { return false }
func (spreadKind) String(o oplog.Op) string { return fmt.Sprintf("%s,%s+=%d", o.L, o.Key, o.N) }

// TestPartialReplay pins the two shapes of a commit whose window dirtied
// one of its two written locations. Single-location ops: only the dirty
// location is replayed, the clean one is installed. An op spanning the
// dirty and the clean location: skipping the clean location's earlier
// ops would hand the spanning op a stale value, so the commit falls back
// to the full replay and takes both locations from it.
func TestPartialReplay(t *testing.T) {
	twoCounters := func() *state.State {
		st := state.New()
		st.Set("a", state.Int(0))
		st.Set("b", state.Int(0))
		return st
	}
	dirtyB := func(ex adt.Executor) error { return adt.Counter{L: "b"}.Add(ex, 10) }
	check := func(name string, first adt.Task, a, b, installed, replayed int64) {
		t.Helper()
		final, stats, err := runOverlapped(twoCounters(), first, dirtyB)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if va, _ := final.Get("a"); !va.EqualValue(state.Int(a)) {
			t.Errorf("%s: a = %v, want %d", name, va, a)
		}
		if vb, _ := final.Get("b"); !vb.EqualValue(state.Int(b)) {
			t.Errorf("%s: b = %v, want %d", name, vb, b)
		}
		if stats.LocsInstalled != installed || stats.LocsReplayed != replayed {
			t.Errorf("%s: installed/replayed = %d/%d, want %d/%d",
				name, stats.LocsInstalled, stats.LocsReplayed, installed, replayed)
		}
	}
	// Task 2 always installs b (empty window). Task 1 installs a and
	// replays b …
	check("single-location ops", func(ex adt.Executor) error {
		if err := (adt.Counter{L: "a"}).Add(ex, 5); err != nil {
			return err
		}
		return adt.Counter{L: "b"}.Add(ex, 2)
	}, 5, 12, 2, 1)
	// … or, with the spanning op, replays both: a must keep its +5.
	check("spanning op", func(ex adt.Executor) error {
		if err := (adt.Counter{L: "a"}).Add(ex, 5); err != nil {
			return err
		}
		_, err := ex.Exec(spreadOp("a", "b", 2))
		return err
	}, 7, 12, 1, 2)
}

// TestPartialReplayKeepsEmptyClear: a clear of a relation the private
// view held empty has no footprint of its own, yet on the committed value
// it removes what the window added. Task 1 clears b while it is empty,
// sets bit 1 and adds to a; task 2 sets bit 7 and commits inside task 1's
// window. Write-set detection clears the pair (keys 1 and 7), task 1
// installs a and replays b, and in commit order (task 2, then task 1) b
// ends holding bit 1 alone.
func TestPartialReplayKeepsEmptyClear(t *testing.T) {
	st := state.New()
	st.Set("a", state.Int(0))
	st.Set("b", adt.NewRelValue())
	executed := make(chan struct{})
	var once sync.Once
	sig := committedSignal{task: 2, ch: make(chan struct{})}
	final, stats, err := Run(Config{
		Threads:  2,
		Detector: conflict.NewWriteSet(),
		Record:   sig,
		Hooks: &Hooks{WindowDelay: func(task int) {
			switch task {
			case 1:
				once.Do(func() { close(executed) })
				<-sig.ch
			case 2:
				<-executed
			}
		}},
	}, st, []adt.Task{
		func(ex adt.Executor) error {
			b := adt.BitSet{L: "b"}
			if err := b.ClearAll(ex); err != nil {
				return err
			}
			if err := b.Set(ex, 1); err != nil {
				return err
			}
			return adt.Counter{L: "a"}.Add(ex, 5)
		},
		func(ex adt.Executor) error { return adt.BitSet{L: "b"}.Set(ex, 7) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := final.Get("b"); v.(state.Rel).R.Len() != 1 {
		t.Errorf("b = %v, want bit 1 alone", v)
	}
	if v, _ := final.Get("a"); !v.EqualValue(state.Int(5)) {
		t.Errorf("a = %v, want 5", v)
	}
	if stats.LocsInstalled != 2 || stats.LocsReplayed != 1 {
		t.Errorf("installed/replayed = %d/%d, want 2/1", stats.LocsInstalled, stats.LocsReplayed)
	}
}

// TestInstallCountersNameThePath: an operator reads which path a run took
// off Stats. Footprint-disjoint transactions replay nothing. When every
// transaction writes every location and all of them validate before any
// commits (a barrier in WindowDelay), the first commit — whose window is
// necessarily empty — installs its locations and every later one finds
// them all dirty and replays them.
func TestInstallCountersNameThePath(t *testing.T) {
	const n, nLocs = 6, 4
	st := state.New()
	for i := 0; i < n; i++ {
		st.Set(fuzzCounterLoc(i), state.Int(0))
	}
	disjoint := make([]adt.Task, n)
	overlapping := make([]adt.Task, n)
	for i := range disjoint {
		loc := fuzzCounterLoc(i)
		disjoint[i] = func(ex adt.Executor) error { return adt.Counter{L: loc}.Add(ex, 1) }
		overlapping[i] = func(ex adt.Executor) error {
			for l := 0; l < nLocs; l++ {
				if err := (adt.Counter{L: fuzzCounterLoc(l)}).Add(ex, 1); err != nil {
					return err
				}
			}
			return nil
		}
	}
	_, stats, err := Run(Config{Threads: 4}, st, disjoint)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LocsInstalled != n || stats.LocsReplayed != 0 {
		t.Fatalf("disjoint run: installed/replayed = %d/%d, want %d/0", stats.LocsInstalled, stats.LocsReplayed, n)
	}

	var first [n + 1]sync.Once
	var validated sync.WaitGroup
	validated.Add(n)
	final, stats, err := Run(Config{
		Threads:  n,
		Detector: neverConflict{},
		Hooks: &Hooks{WindowDelay: func(task int) {
			first[task].Do(func() {
				validated.Done()
				validated.Wait()
			})
		}},
	}, st, overlapping)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LocsInstalled != nLocs || stats.LocsReplayed != (n-1)*nLocs {
		t.Fatalf("all-overlapping run: installed/replayed = %d/%d, want %d/%d",
			stats.LocsInstalled, stats.LocsReplayed, nLocs, (n-1)*nLocs)
	}
	for l := 0; l < nLocs; l++ {
		if v, _ := final.Get(fuzzCounterLoc(l)); !v.EqualValue(state.Int(n)) {
			t.Fatalf("%s = %v, want %d", fuzzCounterLoc(l), v, n)
		}
	}
}
