package chaos

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/spec"
	"repro/internal/state"
	"repro/internal/stm"
)

// seedCount is the soak matrix width. The default (20 seeds × ordered/
// unordered = 40 runs) is the CI short job; `make soak`
// raises it for the long-running version.
var seedCount = flag.Int("chaos.seeds", 20, "seeds per chaos soak matrix cell")

// soakCounters are the four counters the soak tasks add to; beside them
// the ordered tasks push onto "log".
var soakCounters = []state.Loc{"c0", "c1", "c2", "c3"}

// soakState binds the shared locations the soak tasks touch.
func soakState() *state.State { return soakStateOn(soakCounters) }

func soakStateOn(ctrs []state.Loc) *state.State {
	st := state.New()
	for _, l := range ctrs {
		st.Set(l, state.Int(0))
	}
	st.Set("log", &state.IntList{})
	return st
}

// soakTasks generates a deterministic task set from the seed: counter
// arithmetic (commutative — every serial order produces the same final
// state, so the sequential oracle is exact even for unordered commits)
// plus, in ordered mode, an order-observable push of the task id. Each
// task yields mid-transaction so concurrent commits land inside its
// window even on a single-CPU host.
func soakTasks(seed int64, n int, ordered bool) []adt.Task {
	return soakTasksOn(soakCounters, seed, n, ordered)
}

func soakTasksOn(ctrs []state.Loc, seed int64, n int, ordered bool) []adt.Task {
	tasks := make([]adt.Task, n)
	for j := 0; j < n; j++ {
		h := mix64(uint64(seed)<<20 ^ uint64(j+1))
		ctr := adt.Counter{L: ctrs[h%uint64(len(ctrs))]}
		delta := int64(h>>8%17) + 1
		identity := h>>32%3 == 0
		id := int64(j + 1)
		tasks[j] = func(ex adt.Executor) error {
			if err := ctr.Add(ex, delta); err != nil {
				return err
			}
			runtime.Gosched()
			if identity {
				if err := ctr.Sub(ex, delta); err != nil {
					return err
				}
			}
			if ordered {
				return adt.Stack{L: "log"}.Push(ex, id)
			}
			return nil
		}
	}
	return tasks
}

// TestChaosSoakSerializability is the core soak: for every seed ×
// {ordered, unordered} cell, a run under forced aborts and stretched
// commit windows — alternating between the plain retry loop and retries
// with backoff — must produce exactly the sequential oracle's final state.
// On the 64-stripe commit table, tasks on different counters replay
// concurrently.
func TestChaosSoakSerializability(t *testing.T) { soakSerializability(t, soakCounters) }

// TestChaosStripeSweepSerializability re-runs the soak with its five
// locations packed onto fewer commit stripes. A location's stripe (and its
// overlap-signature bit) is its FNV-1a hash mod 64, so counter names can be
// picked to collide: on one stripe, with "log", the striped commit
// degenerates to the paper's single lock; on three, distinct locations
// share stripes. Stripe sharing costs throughput, never correctness.
func TestChaosStripeSweepSerializability(t *testing.T) {
	s := stripeOf("log")
	for _, stripes := range [][]uint64{{s}, {s, (s + 1) % 64, (s + 2) % 64}} {
		ctrs := countersOn(stripes)
		t.Run(fmt.Sprintf("stripes=%d", len(stripes)), func(t *testing.T) { soakSerializability(t, ctrs) })
	}
}

// stripeOf is the commit stripe a location locks: stm hashes a location
// with FNV-1a into its 64-stripe table.
func stripeOf(l state.Loc) uint64 {
	h := fnv.New64a()
	h.Write([]byte(l))
	return h.Sum64() % 64
}

// countersOn names four counters, the i-th on stripes[i%len(stripes)].
func countersOn(stripes []uint64) []state.Loc {
	var ctrs []state.Loc
	for k := 0; len(ctrs) < 4; k++ {
		l := state.Loc(fmt.Sprintf("c%d", k))
		if stripeOf(l) == stripes[len(ctrs)%len(stripes)] {
			ctrs = append(ctrs, l)
		}
	}
	return ctrs
}

func soakSerializability(t *testing.T, ctrs []state.Loc) {
	const nTasks = 30
	var total Stats
	for seed := int64(1); seed <= int64(*seedCount); seed++ {
		for _, ordered := range []bool{false, true} {
			tasks := soakTasksOn(ctrs, seed, nTasks, ordered)
			want, err := stm.RunSequential(soakStateOn(ctrs), tasks)
			if err != nil {
				t.Fatal(err)
			}
			inj := New(Config{
				Seed:      seed,
				AbortProb: 0.35, AbortMaxPerTask: 3,
				DelayProb: 0.25, MaxDelay: 200 * time.Microsecond,
			})
			cfg := stm.Config{
				Threads: 4, Ordered: ordered,
				Hooks: inj.Hooks(), MaxRetries: 500,
			}
			if seed%2 == 0 {
				// Half the matrix backs off between retries too.
				cfg.Backoff = stm.Backoff{Base: 20 * time.Microsecond}
			}
			got, stats, err := stm.Run(cfg, soakStateOn(ctrs), tasks)
			if err != nil {
				t.Fatalf("seed=%d ordered=%v: %v", seed, ordered, err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed=%d ordered=%v: chaos state %s != sequential %s (stats %+v)",
					seed, ordered, got, want, stats)
			}
			if stats.Commits != nTasks {
				t.Fatalf("seed=%d ordered=%v: commits = %d, want %d",
					seed, ordered, stats.Commits, nTasks)
			}
			s := inj.Stats()
			total.ForcedAborts += s.ForcedAborts
			total.WindowDelays += s.WindowDelays
			total.CommitDelays += s.CommitDelays
		}
	}
	// The harness must actually have injected faults, or the soak proved
	// nothing.
	if total.ForcedAborts == 0 || total.WindowDelays == 0 || total.CommitDelays == 0 {
		t.Fatalf("injection never fired across the matrix: %+v", total)
	}
}

// TestChaosPoisonedRecycle repeats the soak with recycled artifacts
// poisoned (conflict.PoisonRecycled): a transaction that reads an artifact
// the runtime has taken back panics with the stack instead of, at best,
// missing the oracle's state. maxhist=0 names the unbounded history, the
// one policy the runtime has; the cell kept that name when the history
// bound was removed.
func TestChaosPoisonedRecycle(t *testing.T) {
	defer conflict.PoisonRecycled(true)()
	t.Run("maxhist=0", TestChaosSoakSerializability)
}

// TestChaosSoakForcedCacheMisses drives the trained sequence detector's
// fallback paths: identity tasks that only parallelize because the
// commutativity cache proves them independent keep producing the oracle
// state when lookups are randomly forced to miss (the write-set fallback
// then serializes them — slower, never wrong).
func TestChaosSoakForcedCacheMisses(t *testing.T) {
	const nTasks = 24
	identity := func(n int64) adt.Task {
		return func(ex adt.Executor) error {
			c := adt.Counter{L: "c0"}
			if err := c.Add(ex, n); err != nil {
				return err
			}
			runtime.Gosched()
			return c.Sub(ex, n)
		}
	}
	var tasks []adt.Task
	for i := 1; i <= nTasks; i++ {
		tasks = append(tasks, identity(int64(i)))
	}
	want, err := stm.RunSequential(soakState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	cache, _, err := spec.Train(soakState(), tasks[:3], spec.Abstract)
	if err != nil {
		t.Fatal(err)
	}
	var misses int64
	for seed := int64(1); seed <= int64(*seedCount); seed++ {
		inj := New(Config{Seed: seed, MissProb: 0.5})
		det := conflict.NewSequence(cache, nil)
		det.ForceMiss = inj.ForceMiss
		got, _, err := stm.Run(stm.Config{
			Threads: 4, Detector: det, Hooks: inj.Hooks(), MaxRetries: 500,
		}, soakState(), tasks)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed=%d: forced-miss state %s != sequential %s", seed, got, want)
		}
		misses += inj.Stats().ForcedMisses
	}
	if misses == 0 {
		t.Fatal("no cache misses were forced")
	}
}

// TestChaosPanicInjection arms random tasks to panic and asserts the run
// fails with a *stm.PanicError — never a process crash — in both commit
// modes (ordered peers blocked on their commit turn must be woken).
func TestChaosPanicInjection(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		armedTotal := 0
		for seed := int64(1); seed <= int64(*seedCount); seed++ {
			inj := New(Config{Seed: seed, PanicProb: 0.2})
			tasks, armed := inj.WrapPanics(soakTasks(seed, 20, ordered))
			armedTotal += armed
			_, _, err := stm.Run(stm.Config{Threads: 4, Ordered: ordered}, soakState(), tasks)
			if armed == 0 {
				if err != nil {
					t.Fatalf("seed=%d ordered=%v: unarmed run failed: %v", seed, ordered, err)
				}
				continue
			}
			var pe *stm.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("seed=%d ordered=%v: err = %v, want *stm.PanicError", seed, ordered, err)
			}
		}
		if armedTotal == 0 {
			t.Fatalf("ordered=%v: no panics armed across %d seeds", ordered, *seedCount)
		}
	}
}

// TestChaosTerminationUnderMaxAbortPressure turns forced aborts to
// certainty (probability 1): the per-task injection bound must keep
// Theorem 4.1's termination intact, with every injected abort visible in
// the run's attribution.
func TestChaosTerminationUnderMaxAbortPressure(t *testing.T) {
	const nTasks = 16
	tasks := soakTasks(99, nTasks, false)
	want, err := stm.RunSequential(soakState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	inj := New(Config{Seed: 99, AbortProb: 1, AbortMaxPerTask: 3})
	got, stats, err := stm.Run(stm.Config{Threads: 4, Hooks: inj.Hooks()}, soakState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("state %s != sequential %s", got, want)
	}
	if injected := stats.AbortReasons["injected"]; injected < nTasks*3 {
		t.Fatalf("injected aborts = %d, want >= %d (3 per task)", injected, nTasks*3)
	}
	if stats.Retries < nTasks*3 {
		t.Fatalf("Retries = %d, want >= %d", stats.Retries, nTasks*3)
	}
}

// TestChaosDecisionsDeterministic pins the reproducibility contract:
// equal seeds decide identically at every (site, task, attempt), and
// different seeds eventually diverge.
func TestChaosDecisionsDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, AbortProb: 0.5, MissProb: 0.5, PanicProb: 0.5}
	a, b := New(cfg), New(cfg)
	diverged := false
	other := New(Config{Seed: 43, AbortProb: 0.5, MissProb: 0.5})
	for task := 1; task <= 50; task++ {
		for attempt := 1; attempt <= 3; attempt++ {
			if a.ForceAbort(task, attempt) != b.ForceAbort(task, attempt) {
				t.Fatalf("ForceAbort(%d,%d) nondeterministic", task, attempt)
			}
			if a.ForceMiss(task, attempt) != b.ForceMiss(task, attempt) {
				t.Fatalf("ForceMiss(%d,%d) nondeterministic", task, attempt)
			}
			if a.ForceAbort(task, attempt) != other.ForceAbort(task, attempt) {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 made identical abort decisions everywhere")
	}
	// The same holds for the panic arming pattern.
	tasks := make([]adt.Task, 64)
	for i := range tasks {
		tasks[i] = func(adt.Executor) error { return nil }
	}
	_, armedA := a.WrapPanics(tasks)
	_, armedB := b.WrapPanics(tasks)
	if armedA != armedB {
		t.Fatalf("WrapPanics armed %d vs %d under equal seeds", armedA, armedB)
	}
}

// TestChaosAbortBoundRespected verifies the injector never forces an
// abort past AbortMaxPerTask, the invariant termination rests on.
func TestChaosAbortBoundRespected(t *testing.T) {
	inj := New(Config{Seed: 1, AbortProb: 1, AbortMaxPerTask: 2})
	for task := 1; task <= 20; task++ {
		if !inj.ForceAbort(task, 1) || !inj.ForceAbort(task, 2) {
			t.Fatalf("task %d: certain abort not injected within bound", task)
		}
		if inj.ForceAbort(task, 3) {
			t.Fatalf("task %d: abort injected past AbortMaxPerTask", task)
		}
	}
}
