package chaos

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/fsio"
	"repro/internal/spec"
	"repro/internal/stm"
)

// identityTasks builds n add/undo identity tasks over one counter: they
// only parallelize because the trained cache proves the pairs commute, so
// every forced miss sends a pair query down the write-set fallback.
func identityTasks(n int) []adt.Task {
	var tasks []adt.Task
	for i := 1; i <= n; i++ {
		d := int64(i)
		tasks = append(tasks, func(ex adt.Executor) error {
			c := adt.Counter{L: "c0"}
			if err := c.Add(ex, d); err != nil {
				return err
			}
			runtime.Gosched()
			return c.Sub(ex, d)
		})
	}
	return tasks
}

// trainOn returns a cache trained on a prefix of the tasks.
func trainOn(t *testing.T, tasks []adt.Task) *spec.Cache {
	t.Helper()
	c, _, err := spec.Train(soakState(), tasks[:3], spec.Abstract)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMissStormFallsBackPerPair: a contiguous burst of forced cache misses
// leaves the trained cache answering nothing for a while. Each unanswered
// pair query falls back to the write-set check for that one pair (§5.3),
// so every run must still produce exactly the sequential oracle's state,
// and every storm miss must show up as a fallback.
func TestMissStormFallsBackPerPair(t *testing.T) {
	const nTasks = 48
	tasks := identityTasks(nTasks)
	want, err := stm.RunSequential(soakState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	trained := trainOn(t, tasks)
	var stormMisses int64
	for seed := int64(1); seed <= int64(*seedCount); seed++ {
		inj := New(Config{Seed: seed, StormStart: 1, StormLen: 12})
		det := conflict.NewSequence(trained, nil)
		det.ForceMiss = inj.ForceMiss
		got, stats, err := stm.Run(stm.Config{
			Threads: 4, Detector: det, Hooks: inj.Hooks(), MaxRetries: 500,
		}, soakState(), tasks)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed=%d: state %s != sequential %s", seed, got, want)
		}
		if stats.Commits != nTasks {
			t.Fatalf("seed=%d: commits = %d, want %d", seed, stats.Commits, nTasks)
		}
		storm := inj.Stats().StormMisses
		if fb := det.Stats().Fallbacks; fb < storm {
			t.Fatalf("seed=%d: %d fallbacks for %d storm misses; a miss went unanswered", seed, fb, storm)
		}
		stormMisses += storm
	}
	if stormMisses == 0 {
		t.Fatal("the miss storm never fired; the soak proved nothing")
	}
}

// TestCorruptSpecAlwaysRejected: every seeded corruption of a saved spec
// artifact must be caught by its frame (a typed *fsio.FrameError), and
// the target cache must stay unchanged — the flips land past the header
// by construction, so this is the frame's length and CRC checks' job.
func TestCorruptSpecAlwaysRejected(t *testing.T) {
	trained := trainOn(t, identityTasks(4))
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	// The artifact itself round-trips.
	clean := spec.New(spec.Abstract, false)
	if err := clean.Load(bytes.NewReader(pristine)); err != nil {
		t.Fatalf("pristine spec rejected: %v", err)
	}
	if clean.Len() == 0 {
		t.Fatal("pristine spec loaded no entries")
	}

	for seed := int64(1); seed <= int64(*seedCount); seed++ {
		for _, flips := range []int{1, 2, 8} {
			corrupted := CorruptSpec(pristine, seed, flips)
			if bytes.Equal(corrupted, pristine) {
				t.Fatalf("seed=%d flips=%d: corruption was a no-op", seed, flips)
			}
			target := spec.New(spec.Abstract, false)
			err := target.Load(bytes.NewReader(corrupted))
			var fe *fsio.FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("seed=%d flips=%d: err = %v, want *fsio.FrameError", seed, flips, err)
			}
			if target.Len() != 0 {
				t.Fatalf("seed=%d flips=%d: rejected load still added %d entries",
					seed, flips, target.Len())
			}
		}
	}
}
