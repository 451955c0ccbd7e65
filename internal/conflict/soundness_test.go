package conflict

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/seqabs"
	"repro/internal/state"
)

// TestNoConflictImpliesSerialEquivalence checks the detectors against
// concrete execution, with no commutativity prover in between: whenever
// a detector admits a transaction against a committed one (both recorded
// from the same snapshot), replaying the transaction after the committed
// log must return every read the value it logged, and the two serial
// orders must end in equal states. Each verdict is taken against the full
// history entry and against its compressed record. Relaxed and InferWAW
// detectors admit non-serializable pairs by definition and are exempt.
func TestNoConflictImpliesSerialEquivalence(t *testing.T) {
	st := baseState()
	learn := NewSequence(cache.New(seqabs.Abstract), nil)
	learn.LearnOnline = true
	dets := []struct {
		name string
		det  Detector
	}{
		{"write-set", NewWriteSet()},
		{"sequence/trained", NewSequence(trainedIdentityCache(), nil)},
		{"sequence/nil-cache", NewSequence(nil, nil)},
		{"sequence/learn-online", learn},
		{"sequence/online", &Sequence{Online: true}},
	}
	admitted := make([]int, len(dets))
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 3000; trial++ {
		txn := richRandLog(t, rng, st, 1, 1)
		com := richRandLog(t, rng, st, 2, 1)
		prep, full := Prepare(txn), Prepare(com)
		entries := []*Prepared{full, full.Compress()}
		serial := -1 // -1 unknown, 0 not equivalent, 1 equivalent
		for i, d := range dets {
			for _, entry := range entries {
				if d.det.DetectPrepared(obs.Ctx{}, st, prep, []*Prepared{entry}).Conflict {
					continue
				}
				admitted[i]++
				if serial < 0 {
					serial = 0
					if seriallyEquivalent(t, st, txn, com) {
						serial = 1
					}
				}
				if serial == 0 {
					t.Fatalf("trial %d: %s (compressed=%v) admitted a pair that is not serially equivalent\n txn: %v\n committed: %v",
						trial, d.name, entry.Compressed(), txn, com)
				}
			}
		}
	}
	for i, d := range dets {
		if admitted[i] == 0 {
			t.Errorf("%s admitted nothing: the implication was never exercised", d.name)
		}
		t.Logf("%s: %d of 6000 verdicts admitted", d.name, admitted[i])
	}
}

// seriallyEquivalent replays txn after committed from a clone of snap,
// comparing each read's result with the value it logged, and compares the
// final state with the txn-then-committed order.
func seriallyEquivalent(t *testing.T, snap *state.State, txn, committed oplog.Log) bool {
	t.Helper()
	after := snap.Clone()
	if err := committed.Replay(after); err != nil {
		t.Fatal(err)
	}
	for _, e := range txn {
		v, err := e.Op.Apply(after)
		if err != nil {
			t.Fatal(err)
		}
		if e.Op.IsRead() && !v.EqualValue(e.Observed) {
			return false
		}
	}
	before := snap.Clone()
	if err := txn.Replay(before); err != nil {
		t.Fatal(err)
	}
	if err := committed.Replay(before); err != nil {
		t.Fatal(err)
	}
	return after.Equal(before)
}
