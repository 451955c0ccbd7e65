package chaos

import (
	"errors"
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/seqabs"
	"repro/internal/state"
	"repro/internal/stm"
	"repro/internal/train"
)

// seedCount is the soak matrix width. The default (20 seeds × ordered/
// unordered × copy/persistent = 80 runs) is the CI short job; `make soak`
// raises it for the long-running version.
var seedCount = flag.Int("chaos.seeds", 20, "seeds per chaos soak matrix cell")

// soakState binds the shared locations the soak tasks touch.
func soakState() *state.State {
	st := state.New()
	for k := 0; k < 4; k++ {
		st.Set(state.Loc(fmt.Sprintf("c%d", k)), state.Int(0))
	}
	st.Set("log", state.IntList{})
	return st
}

// soakTasks generates a deterministic task set from the seed: counter
// arithmetic (commutative — every serial order produces the same final
// state, so the sequential oracle is exact even for unordered commits)
// plus, in ordered mode, an order-observable push of the task id. Each
// task yields mid-transaction so concurrent commits land inside its
// window even on a single-CPU host.
func soakTasks(seed int64, n int, ordered bool) []adt.Task {
	tasks := make([]adt.Task, n)
	for j := 0; j < n; j++ {
		h := mix64(uint64(seed)<<20 ^ uint64(j+1))
		ctr := adt.Counter{L: state.Loc(fmt.Sprintf("c%d", h%4))}
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
// {ordered, unordered} × {copy, persistent} cell, a run under forced
// aborts and stretched commit windows — alternating between the plain
// retry loop and the backoff+escalation contention manager — must
// produce exactly the sequential oracle's final state.
func TestChaosSoakSerializability(t *testing.T) { soakSerializability(t, 0) }

// TestChaosPoisonedRecycle repeats the soak with recycled artifacts
// poisoned (conflict.PoisonRecycled), without a history bound and with
// MaxHistory 1 to 4, where windows outlive their transactions' begins: a
// transaction that reads an artifact the runtime has taken back panics
// with the stack instead of, at best, missing the oracle's state.
func TestChaosPoisonedRecycle(t *testing.T) {
	defer conflict.PoisonRecycled(true)()
	for maxHistory := 0; maxHistory <= 4; maxHistory++ {
		t.Run(fmt.Sprintf("maxhist=%d", maxHistory), func(t *testing.T) { soakSerializability(t, maxHistory) })
	}
}

func soakSerializability(t *testing.T, maxHistory int) {
	const nTasks = 30
	var total Stats
	for seed := int64(1); seed <= int64(*seedCount); seed++ {
		for _, ordered := range []bool{false, true} {
			tasks := soakTasks(seed, nTasks, ordered)
			want, err := stm.RunSequential(soakState(), tasks)
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
				MaxHistory: maxHistory,
			}
			if seed%2 == 0 {
				// Half the matrix runs the contention manager too.
				cfg.Backoff = stm.Backoff{Base: 20 * time.Microsecond}
				cfg.SerializeAfter = 4
			}
			got, stats, err := stm.Run(cfg, soakState(), tasks)
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
	cache, _, err := train.Train(soakState(), tasks[:3], train.Options{Mode: seqabs.Abstract})
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

// TestChaosEscalationUnderMaxAbortPressure combines certain aborts with a
// SerializeAfter below the injection bound: every task escalates to
// irrevocable serial mode (which has no validation pass, so the injector
// cannot touch it) and the run completes with bounded retries.
func TestChaosEscalationUnderMaxAbortPressure(t *testing.T) {
	const nTasks = 16
	tasks := soakTasks(7, nTasks, false)
	want, err := stm.RunSequential(soakState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	inj := New(Config{Seed: 7, AbortProb: 1, AbortMaxPerTask: 1 << 20})
	got, stats, err := stm.Run(stm.Config{
		Threads: 4, Hooks: inj.Hooks(), SerializeAfter: 2,
		Backoff: stm.Backoff{Base: 10 * time.Microsecond},
	}, soakState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("state %s != sequential %s", got, want)
	}
	if stats.Escalations != nTasks {
		t.Fatalf("Escalations = %d, want %d (every task starves)", stats.Escalations, nTasks)
	}
	if ratio := stats.RetryRatio(); ratio > 2 {
		t.Fatalf("retries/txn = %.2f, want <= SerializeAfter = 2", ratio)
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

// TestChaosStripeSweepSerializability re-runs the serializability soak
// across commit-stripe table sizes: 1 degenerates the striped commit to
// the paper's single lock, 3 forces heavy stripe sharing (five locations
// over three stripes guarantees false collisions), and the default table
// gives disjoint counters genuinely concurrent replays. Every cell must
// still produce exactly the sequential oracle's final state under forced
// aborts and stretched commit windows — stripe count is a throughput
// knob, never a correctness one.
func TestChaosStripeSweepSerializability(t *testing.T) {
	const nTasks = 30
	for _, stripes := range []int{1, 3, stm.DefaultCommitStripes} {
		for seed := int64(1); seed <= int64(*seedCount); seed++ {
			for _, ordered := range []bool{false, true} {
				tasks := soakTasks(seed, nTasks, ordered)
				want, err := stm.RunSequential(soakState(), tasks)
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
					CommitStripes: stripes,
				}
				if seed%2 == 0 {
					cfg.Backoff = stm.Backoff{Base: 20 * time.Microsecond}
					cfg.SerializeAfter = 4
				}
				got, stats, err := stm.Run(cfg, soakState(), tasks)
				if err != nil {
					t.Fatalf("stripes=%d seed=%d ordered=%v: %v", stripes, seed, ordered, err)
				}
				if !got.Equal(want) {
					t.Fatalf("stripes=%d seed=%d ordered=%v: chaos state %s != sequential %s (stats %+v)",
						stripes, seed, ordered, got, want, stats)
				}
				if stats.Commits != nTasks {
					t.Fatalf("stripes=%d seed=%d ordered=%v: commits = %d, want %d",
						stripes, seed, ordered, stats.Commits, nTasks)
				}
			}
		}
	}
}
