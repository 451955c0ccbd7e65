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

// richRandLog is randLog extended with relational per-key ops — removes
// of present and of absent keys among them — and occasional multi-key
// scans, covering every pairVerdict path (trained hit, fallback,
// relaxation residual).
func richRandLog(t *testing.T, rng *rand.Rand, st *state.State, task int) oplog.Log {
	t.Helper()
	locs := []state.Loc{"work", "max"}
	var ops []oplog.Op
	for n := 1 + rng.Intn(4); n > 0; n-- {
		switch rng.Intn(7) {
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
		case 5:
			ops = append(ops, adt.RelRemoveOp{L: "bits", Key: fmt.Sprintf("k%d", rng.Intn(3))}.Op())
		default:
			ops = append(ops, oplog.Op{K: &accKind{kind: "test.scan", acc: scanAccesses}})
		}
	}
	return record(t, st, task, ops...)
}

// TestNoConflictImpliesSerialEquivalence checks the detectors against
// concrete execution, with no commutativity prover in between, each
// against its own contract, whenever it admits a transaction against a
// committed one (both recorded from the same snapshot):
//
//   - write-set, and the cache's own answers that a pair is known not to
//     conflict, promise serial equivalence: replaying the transaction
//     after the committed log returns every read the value it logged, and
//     the two serial orders end in equal states;
//   - a sequence detector promises the commit-order serialization:
//     replaying the transaction after the committed log returns every
//     read the value it logged and writes no location its logged
//     footprint only reads.
//
// Every 100 trials the snapshot is redrawn as baseState() plus a random
// committed prefix, so the pairs meet non-initial counters and populated
// relations. Relaxed detectors admit non-serializable pairs by definition
// and are exempt.
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
	admitted, known := make([]int, len(dets)), make([]int, len(dets))
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
		fail := func(name, contract string) {
			t.Fatalf("trial %d: %s admitted a pair that breaks %s\n snapshot: %v\n txn: %v\n committed: %v",
				trial, name, contract, st, txn, com)
		}
		for i, d := range dets {
			if d.det.DetectPrepared(obs.Ctx{}, st, prep, entry).Conflict {
				continue
			}
			admitted[i]++
			seq, ok := d.det.(*Sequence)
			if !ok {
				if !seriallyEquivalent(t, st, txn, com) {
					fail(d.name, "serial equivalence")
				}
				continue
			}
			if !commitOrderHolds(t, st, txn, com) {
				fail(d.name, "the commit order")
			}
			if seq.Cache != nil && cacheKnowsNoConflict(seq.Cache, prep, entry[0]) {
				known[i]++
				if !seriallyEquivalent(t, st, txn, com) {
					fail(d.name+"'s cache", "serial equivalence")
				}
			}
		}
	}
	for i, d := range dets {
		if admitted[i] == 0 {
			t.Errorf("%s admitted nothing: the implication was never exercised", d.name)
		}
		t.Logf("%s: %d of 3000 verdicts admitted, %d known to the cache", d.name, admitted[i], known[i])
	}
	if known[len(dets)-1] == 0 {
		t.Errorf("the learning cache knew no pair: its answers were never checked")
	}
}

// cacheKnowsNoConflict reports whether c answers every location pair txn
// and com share as known not to conflict.
func cacheKnowsNoConflict(c *spec.Cache, txn, com *Prepared) bool {
	m := c.Mode()
	tlocs, clocs := txn.locations(), com.locations()
	for i := range tlocs {
		for j := range clocs {
			lt, lc := &tlocs[i], &clocs[j]
			if lt.p != lc.p {
				continue
			}
			if a := c.Lookup(lt.seqKey(m), lc.seqKey(m), lt.syms, lc.syms); !a.Known || a.Conflict {
				return false
			}
		}
	}
	return true
}

// commitOrderHolds replays txn after committed from a clone of snap: every
// read must return the value it logged, and no operation may write a
// location the log's footprint only reads. The commit publishes, and
// replays after a window entry's write, only the locations the footprint
// writes, so a write that appears on replay elsewhere — a remove that
// found its key absent, put there by the committed log — would be lost.
func commitOrderHolds(t *testing.T, snap *state.State, txn, committed oplog.Log) bool {
	t.Helper()
	after := snap.Clone()
	if err := committed.Replay(after); err != nil {
		t.Fatal(err)
	}
	wrote := make(map[state.Loc]bool)
	for _, e := range txn {
		for _, a := range e.Accesses() {
			wrote[a.P.Loc] = wrote[a.P.Loc] || a.Write
		}
	}
	for _, e := range txn {
		for _, a := range e.Op.AppendAccesses(nil, after) {
			if a.Write && !wrote[a.P.Loc] {
				return false
			}
		}
		v, err := e.Op.Apply(after)
		if err != nil {
			t.Fatal(err)
		}
		if e.Op.IsRead() && !v.EqualValue(e.Observed) {
			return false
		}
	}
	return true
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
