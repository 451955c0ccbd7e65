package conflict

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/spec"
	"repro/internal/state"
)

// accKind is a test kind with explicit accesses and no effect.
type accKind struct {
	kind string
	acc  []oplog.Access
}

func (k *accKind) Apply(oplog.Op, *state.State) (state.Value, error) { return nil, nil }
func (k *accKind) AppendAccesses(_ oplog.Op, dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, k.acc...)
}
func (k *accKind) Sym(oplog.Op) oplog.Sym { return oplog.Sym{Kind: k.kind} }
func (k *accKind) IsRead(oplog.Op) bool   { return false }
func (k *accKind) String(oplog.Op) string { return k.kind }

// scanAccesses is a read of every key the random relational ops use: a
// static multi-key footprint, so one event sits in several per-key
// subsequences at once.
var scanAccesses = func() []oplog.Access {
	var acc []oplog.Access
	for i := 0; i < 3; i++ {
		acc = adt.RelGetOp{L: "bits", Key: fmt.Sprintf("k%d", i)}.Op().AppendAccesses(acc, nil)
	}
	return acc
}()

// richRandLog is randLog extended with relational per-key ops and
// occasional multi-key scans — covering every pairVerdict path (trained
// hit, fallback, relaxation residual).
func richRandLog(t *testing.T, rng *rand.Rand, st *state.State, task int) oplog.Log {
	t.Helper()
	locs := []state.Loc{"work", "max"}
	var ops []oplog.Op
	for n := 1 + rng.Intn(4); n > 0; n-- {
		switch rng.Intn(6) {
		case 0:
			ops = append(ops, adt.NumLoadOp{L: locs[rng.Intn(2)]}.Op())
		case 1:
			ops = append(ops, adt.NumAddOp{L: locs[rng.Intn(2)], Delta: int64(rng.Intn(5))}.Op())
		case 2:
			d := int64(1 + rng.Intn(5))
			l := locs[rng.Intn(2)]
			ops = append(ops, adt.NumAddOp{L: l, Delta: d}.Op(), adt.NumAddOp{L: l, Delta: -d}.Op())
		case 3:
			ops = append(ops, adt.RelPutOp{L: "bits", Key: fmt.Sprintf("k%d", rng.Intn(3)), Val: "v"}.Op())
		case 4:
			ops = append(ops, adt.RelGetOp{L: "bits", Key: fmt.Sprintf("k%d", rng.Intn(3))}.Op())
		default:
			ops = append(ops, oplog.Op{K: &accKind{kind: "test.scan", acc: scanAccesses}})
		}
	}
	return record(t, st, task, ops...)
}

// TestNoConflictImpliesSerialEquivalence checks the detectors against
// concrete execution, with no commutativity prover in between: whenever
// a detector admits a transaction against a committed one (both recorded
// from the same snapshot), replaying the transaction after the committed
// log must return every read the value it logged, and the two serial
// orders must end in equal states. Every 100 trials the snapshot is
// redrawn as baseState() plus a random committed prefix, so the pairs
// meet non-initial counters and populated relations. Relaxed and InferWAW
// detectors admit non-serializable pairs by definition and are exempt.
func TestNoConflictImpliesSerialEquivalence(t *testing.T) {
	var st *state.State
	learn := NewSequence(spec.New(spec.Abstract, true), nil)
	dets := []struct {
		name string
		det  Detector
	}{
		{"write-set", NewWriteSet()},
		{"sequence/trained", NewSequence(trainedIdentityCache(t), nil)},
		{"sequence/nil-cache", NewSequence(nil, nil)},
		{"sequence/learn-online", learn},
	}
	admitted := make([]int, len(dets))
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 3000; trial++ {
		if trial%100 == 0 {
			st = baseState()
			for n := rng.Intn(8); n > 0; n-- {
				if err := richRandLog(t, rng, st, 0).Replay(st); err != nil {
					t.Fatal(err)
				}
			}
		}
		txn := richRandLog(t, rng, st, 1)
		com := richRandLog(t, rng, st, 2)
		prep, entry := Prepare(txn), []*Prepared{Prepare(com)}
		serial := -1 // -1 unknown, 0 not equivalent, 1 equivalent
		for i, d := range dets {
			if d.det.DetectPrepared(obs.Ctx{}, st, prep, entry).Conflict {
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
				t.Fatalf("trial %d: %s admitted a pair that is not serially equivalent\n snapshot: %v\n txn: %v\n committed: %v",
					trial, d.name, st, txn, com)
			}
		}
	}
	for i, d := range dets {
		if admitted[i] == 0 {
			t.Errorf("%s admitted nothing: the implication was never exercised", d.name)
		}
		t.Logf("%s: %d of 3000 verdicts admitted", d.name, admitted[i])
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
