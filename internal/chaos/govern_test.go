package chaos

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/adt"
	"repro/internal/cache"
	"repro/internal/conflict"
	"repro/internal/health"
	"repro/internal/seqabs"
	"repro/internal/stm"
	"repro/internal/train"
)

// identityTasks builds n add/undo identity tasks over one counter: they
// only parallelize because the trained cache proves the pairs commute, so
// forced misses directly control the governor's miss-rate signal.
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
func trainOn(t *testing.T, tasks []adt.Task) *cache.Cache {
	t.Helper()
	c, _, err := train.Train(soakState(), tasks[:3], train.Options{Mode: seqabs.Abstract})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGovernorMissStormEqualsOracle is the governed soak for the demote →
// probe → restore cycle: a contiguous burst of forced cache misses must
// push the governor into degraded write-set detection, a probe past the
// storm must restore it, and — the property that actually matters — every
// governed run must still produce exactly the sequential oracle's state.
// Demotions/restores depend on how much concurrency the scheduler
// produces, so they are asserted in aggregate across the seed matrix;
// correctness is asserted per run.
func TestGovernorMissStormEqualsOracle(t *testing.T) {
	const nTasks = 48
	tasks := identityTasks(nTasks)
	want, err := stm.RunSequential(soakState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	trained := trainOn(t, tasks)
	var demotions, restores, stormMisses int64
	for seed := int64(1); seed <= int64(*seedCount); seed++ {
		inj := New(Config{Seed: seed, StormStart: 1, StormLen: 12})
		det := conflict.NewSequence(trained, nil)
		det.ForceMiss = inj.ForceMiss
		gov := health.NewGovernor(det, nil, health.Config{
			Window: 2, DemoteAbortRate: 1.1, TripAbortRate: 1.1,
			ProbeEvery: 2, RestoreProbes: 1,
		})
		got, stats, err := stm.Run(stm.Config{
			Threads: 4, Detector: gov, Governor: gov,
			Hooks: inj.Hooks(), MaxRetries: 500,
		}, soakState(), tasks)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed=%d: governed state %s != sequential %s (health %+v)",
				seed, got, want, gov.Stats())
		}
		if stats.Commits != nTasks {
			t.Fatalf("seed=%d: commits = %d, want %d", seed, stats.Commits, nTasks)
		}
		hs := gov.Stats()
		if hs.Demotions > 0 && hs.Restores == 0 && hs.State != "degraded" {
			t.Fatalf("seed=%d: inconsistent governor stats %+v", seed, hs)
		}
		demotions += hs.Demotions
		restores += hs.Restores
		stormMisses += inj.Stats().StormMisses
	}
	if stormMisses == 0 {
		t.Fatal("the miss storm never fired; the soak proved nothing")
	}
	if demotions == 0 {
		t.Fatalf("no seed demoted under a %d-consultation miss storm", 12)
	}
	if restores == 0 {
		t.Fatal("no seed restored after its storm ended")
	}
}

// TestGovernorTripEqualsOracle drives the full ladder under chaos:
// permanent forced misses plus genuinely conflicting tasks make degraded
// windows abort-heavy enough to trip into serial execution, the serial
// budget recovers back to degraded, and the run must still match the
// oracle.
func TestGovernorTripEqualsOracle(t *testing.T) {
	const nTasks = 40
	tasks := soakTasks(11, nTasks, false)
	want, err := stm.RunSequential(soakState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	trained := trainOn(t, identityTasks(4))
	var trips, escalations int64
	for seed := int64(1); seed <= int64(*seedCount); seed++ {
		inj := New(Config{Seed: seed, MissProb: 1})
		det := conflict.NewSequence(trained, nil)
		det.ForceMiss = inj.ForceMiss
		gov := health.NewGovernor(det, nil, health.Config{
			Window: 2, TripWindows: 1, RecoverCommits: 4, ProbeEvery: 1 << 20,
		})
		got, stats, err := stm.Run(stm.Config{
			Threads: 4, Detector: gov, Governor: gov, MaxRetries: 500,
		}, soakState(), tasks)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed=%d: governed state %s != sequential %s (health %+v)",
				seed, got, want, gov.Stats())
		}
		trips += gov.Stats().Trips
		escalations += stats.Escalations
	}
	if trips == 0 {
		t.Fatal("no seed tripped under permanent misses + conflicting tasks")
	}
	if escalations == 0 {
		t.Fatal("tripped runs never escalated serially")
	}
}

// TestCorruptSpecAlwaysRejected: every seeded corruption of a saved spec
// artifact must be caught by the envelope (typed *cache.SpecError), and
// the target cache must stay unchanged — the flips land inside the
// checksummed payload by construction, so this is the CRC's job, not
// lucky JSON breakage.
func TestCorruptSpecAlwaysRejected(t *testing.T) {
	trained := trainOn(t, identityTasks(4))
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	// The artifact itself round-trips.
	clean := cache.New(seqabs.Abstract)
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
			target := cache.New(seqabs.Abstract)
			err := target.Load(bytes.NewReader(corrupted))
			var se *cache.SpecError
			if !errors.As(err, &se) {
				t.Fatalf("seed=%d flips=%d: err = %v, want *cache.SpecError", seed, flips, err)
			}
			if target.Len() != 0 {
				t.Fatalf("seed=%d flips=%d: rejected load still added %d entries",
					seed, flips, target.Len())
			}
		}
	}
}
