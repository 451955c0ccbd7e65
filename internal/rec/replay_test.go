package rec

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/chaos"
	"repro/internal/state"
	"repro/internal/stm"
)

// TestReplayDeterminismMatrix is the end-to-end determinism property:
// record a chaos-perturbed parallel run, then require that
//
//	sequential-oracle digest  ==  recorded digest
//	parallel-replay digest    ==  recorded digest
//	RunSequential(tasks)      ==  recorded final state
//
// across {ordered, unordered} × chaos seeds. The chaos injector perturbs
// scheduling and forces aborts during RECORDING, so each cell captures a
// genuinely different interleaving; replay must still land on the same
// state every time. The cells keep the priv=1 segment they were named by
// when format-2 headers carried a privatization byte (1 is what every
// recorder wrote), so each cell's name stays the same across formats.
func TestReplayDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in full mode only")
	}
	seeds := []int64{1, 42, 20240808}
	for _, ordered := range []bool{false, true} {
		for _, seed := range seeds {
			name := fmt.Sprintf("ordered=%v/priv=1/seed=%d", ordered, seed)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				initial := testState()
				tasks := testTasks(30)
				meta := Meta{
					Workload: "matrix", Detector: "write-set",
					Ordered: ordered,
					Threads: 4, Tasks: len(tasks), Seed: seed,
				}
				inj := chaos.New(chaos.Config{
					Seed:      seed,
					AbortProb: 0.3, AbortMaxPerTask: 2,
					DelayProb: 0.2, MaxDelay: 50 * time.Microsecond,
				})
				r := New(meta, initial, Options{ChunkBytes: 1024})
				final, _, err := stm.Run(stm.Config{
					Threads: 4, Ordered: ordered,
					Hooks: inj.Hooks(), Record: r,
				}, initial, tasks)
				if err != nil {
					t.Fatalf("recording run: %v", err)
				}
				r.Close(Digest(final))

				var buf bytes.Buffer
				if _, err := r.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				tr, err := ReadTrace(&buf)
				if err != nil {
					t.Fatal(err)
				}
				// The oracle: run the ORIGINAL task closures one-at-a-time
				// in the recorded commit order (task ids are 1-based,
				// matching the stm's). Serializability of the recorded run
				// is exactly "final states agree with that serial order".
				serial := make([]adt.Task, len(tr.Txns))
				for i, txn := range tr.Txns {
					serial[i] = tasks[txn.Task-1]
				}
				oracle, err := stm.RunSequential(testState(), serial)
				if err != nil {
					t.Fatal(err)
				}
				if !oracle.Equal(final) {
					t.Fatalf("recorded run not serializable:\n par %s\n seq %s", final, oracle)
				}
				want := Digest(final)
				if tr.DigestKind != DigestFinal || tr.Digest != want {
					t.Fatalf("trace digest %016x (%s), want final %016x", tr.Digest, tr.DigestKind, want)
				}
				// Sequential replay, with per-op observed-value checks.
				seqState, _, err := tr.VerifySequential(nil)
				if err != nil {
					t.Fatalf("VerifySequential: %v", err)
				}
				if got := Digest(seqState); got != want {
					t.Errorf("sequential replay digest %016x != recorded %016x", got, want)
				}
				// Parallel replay through the live stm under the recorded
				// mode — a fresh nondeterministic schedule, same outcome.
				parState, stats, err := tr.Replay(0)
				if err != nil {
					t.Fatalf("Replay: %v", err)
				}
				if got := Digest(parState); got != want {
					t.Errorf("parallel replay digest %016x != recorded %016x", got, want)
				}
				if stats.Commits != int64(len(tr.Txns)) {
					t.Errorf("parallel replay committed %d of %d txns", stats.Commits, len(tr.Txns))
				}
			})
		}
	}
}

// TestReplayTasksVerifyOpsCatchesDrift ensures verify-ops replay actually
// fails when the trace's observed values no longer match re-execution —
// the defense against silently replaying over the wrong initial state.
func TestReplayTasksVerifyOpsCatchesDrift(t *testing.T) {
	initial := testState()
	tasks := []adt.Task{func(ex adt.Executor) error {
		c := adt.Counter{L: "counter"}
		if err := c.Add(ex, 1); err != nil {
			return err
		}
		_, err := c.Load(ex)
		return err
	}}
	r := New(testMeta(1), initial, Options{})
	final := recordRun(t, r, initial, tasks, false)
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: against the recorded initial state, verification passes.
	if _, _, err := tr.VerifySequential(nil); err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}
	// Corrupt the replayed-over initial state; the counter load now
	// observes a different value and verify-ops must say so.
	tr.Initial.Set("counter", state.Int(999))
	if _, _, err := tr.VerifySequential(nil); err == nil {
		t.Fatal("verify-ops replay accepted a drifted initial state")
	}
	// Without verification the drift is silent (by design: -verify-ops
	// is the strict mode).
	if _, err := tr.ReplaySequential(); err != nil {
		t.Fatalf("non-verifying replay should still apply: %v", err)
	}
	_ = final
}

// TestReplayThreadOverride checks Replay honors an explicit worker count
// and falls back to the recorded one.
func TestReplayThreadOverride(t *testing.T) {
	initial := testState()
	tasks := testTasks(12)
	r := New(testMeta(len(tasks)), initial, Options{})
	final := recordRun(t, r, initial, tasks, false)
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{0, 1, 2, 8} {
		st, _, err := tr.Replay(threads)
		if err != nil {
			t.Fatalf("Replay(%d): %v", threads, err)
		}
		if !st.Equal(final) {
			t.Errorf("Replay(%d) drifted from recorded final state", threads)
		}
	}
}

// TestReplayOrderedTrace records an ordered run and replays it: ordered
// commit means commit times follow task order, which the decoder's
// commit-time sort must preserve end to end.
func TestReplayOrderedTrace(t *testing.T) {
	initial := testState()
	tasks := testTasks(20)
	meta := testMeta(len(tasks))
	meta.Ordered = true
	r := New(meta, initial, Options{})
	final := recordRun(t, r, initial, tasks, true)
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Meta.Ordered {
		t.Fatal("ordered flag lost in round trip")
	}
	// Ordered mode commits in task order: the 1-based task ids must be
	// 1..n in commit-time order.
	for i, txn := range tr.Txns {
		if txn.Task != i+1 {
			t.Fatalf("ordered trace: commit %d came from task %d", i, txn.Task)
		}
	}
	st, _, err := tr.Replay(0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(final) {
		t.Error("ordered replay drifted from recorded final state")
	}
}
