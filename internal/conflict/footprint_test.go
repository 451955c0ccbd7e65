package conflict

import (
	"fmt"
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/state"
)

// footAcc builds a synthetic access for footprint tests (Footprint reads
// only the logged access list, never the ops).
func footAcc(loc state.Loc, key string, read, write bool) oplog.Access {
	return oplog.Access{P: oplog.PLoc{Loc: loc, Key: key}, Read: read, Write: write}
}

func footLog(accs ...[]oplog.Access) oplog.Log {
	l := make(oplog.Log, len(accs))
	for i, a := range accs {
		ev := oplog.NewEvent(oplog.Op{}, 1, i, a, nil)
		l[i] = &ev
	}
	return l
}

func TestFootprintDedupAndWriteAggregation(t *testing.T) {
	p := Prepare(footLog(
		[]oplog.Access{footAcc("work", "", true, false)},
		[]oplog.Access{footAcc("max", "", true, false)},
		[]oplog.Access{footAcc("work", "", false, true)}, // raises work to written
	))
	foot := p.Footprint()
	if len(foot) != 2 {
		t.Fatalf("footprint has %d entries, want 2 (deduplicated): %v", len(foot), foot)
	}
	if foot[0].Loc != "work" || foot[1].Loc != "max" {
		t.Fatalf("footprint order = %v, want first-access order [work max]", foot)
	}
	if !foot[0].Write {
		t.Fatal("work read then written must aggregate to Write=true")
	}
	if foot[1].Write {
		t.Fatal("max was only read; Write must be false")
	}
	for _, f := range foot {
		if f.Hash != fnv64a(string(f.Loc)) {
			t.Fatalf("%s carries hash %#x, want fnv64a = %#x", f.Loc, f.Hash, fnv64a(string(f.Loc)))
		}
	}
}

func TestFootprintCollapsesProjectionsToLocation(t *testing.T) {
	// Accesses to different keys of one relation are the same footprint
	// entry: stripe locking works at state-location granularity.
	p := Prepare(footLog(
		[]oplog.Access{footAcc("bits", "7", true, true)},
		[]oplog.Access{footAcc("bits", "9", true, false)},
	))
	foot := p.Footprint()
	if len(foot) != 1 {
		t.Fatalf("footprint has %d entries, want 1 (all projections of bits): %v", len(foot), foot)
	}
	if foot[0].Loc != "bits" || !foot[0].Write {
		t.Fatalf("footprint = %+v, want bits with Write=true", foot[0])
	}
}

func TestFootprintLargeLogUsesIndex(t *testing.T) {
	// Exceed footprintScanBound so dedup switches to the index map, and
	// revisit every location once more to prove the map still
	// deduplicates and aggregates.
	var accs [][]oplog.Access
	n := footprintScanBound + 8
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			loc := state.Loc(fmt.Sprintf("loc%03d", i))
			accs = append(accs, []oplog.Access{footAcc(loc, "", true, round == 1)})
		}
	}
	foot := Prepare(footLog(accs...)).Footprint()
	if len(foot) != n {
		t.Fatalf("footprint has %d entries, want %d", len(foot), n)
	}
	for i, f := range foot {
		want := state.Loc(fmt.Sprintf("loc%03d", i))
		if f.Loc != want {
			t.Fatalf("foot[%d] = %s, want %s (first-access order)", i, f.Loc, want)
		}
		if !f.Write {
			t.Fatalf("%s written in second round but Write=false", f.Loc)
		}
	}
}

// TestFootprintRecycleReset pins the pooled-artifact reset: a recycled
// Prepared must not replay its previous log's memoized footprint (the
// bug made pooled commits plan stripes and signatures for a different
// transaction's locations — silent lost updates).
func TestFootprintRecycleReset(t *testing.T) {
	p := Prepare(footLog([]oplog.Access{footAcc("old", "", true, true)}))
	if foot := p.Footprint(); len(foot) != 1 || foot[0].Loc != "old" {
		t.Fatalf("first footprint = %v, want [old]", foot)
	}
	p.Recycle()
	// Draw from the pool a few times: on a single goroutine the recycled
	// artifact comes back immediately, so a missed reset would memoize
	// the old log's footprint into the new transaction.
	reused := false
	for i := 0; i < 8; i++ {
		q := Prepare(footLog([]oplog.Access{footAcc("new", "", true, false)}))
		reused = reused || q == p
		foot := q.Footprint()
		if len(foot) != 1 || foot[0].Loc != "new" {
			t.Fatalf("pooled footprint = %v, want [new]", foot)
		}
		if foot[0].Write {
			t.Fatal("pooled footprint kept a previous log's write flag")
		}
		a, w := q.Signatures()
		wantBit := uint64(1) << (fnv64a("new") % 64)
		if a != wantBit || w != 0 {
			t.Fatalf("pooled signatures = (%#x, %#x), want (%#x, 0)", a, w, wantBit)
		}
		q.Recycle()
	}
	if !reused {
		t.Log("pool never returned the recycled artifact; reset not exercised this run")
	}
}

// TestSignaturesNoFalseNegatives is the property the commit-path screen
// and the write-set fast path rely on: two logs sharing a location with
// a write on either side always produce intersecting signatures.
func TestSignaturesNoFalseNegatives(t *testing.T) {
	locs := []state.Loc{"a", "b", "c", "work", "max", "bits"}
	for _, shared := range locs {
		writer := Prepare(footLog([]oplog.Access{footAcc(shared, "", false, true)}))
		reader := Prepare(footLog(
			[]oplog.Access{footAcc(shared, "", true, false)},
			[]oplog.Access{footAcc("other", "", true, false)},
		))
		wa, ww := writer.Signatures()
		ra, rw := reader.Signatures()
		if ww&ra == 0 && wa&rw == 0 {
			t.Fatalf("shared written location %s produced disjoint signatures (%#x/%#x vs %#x/%#x)",
				shared, wa, ww, ra, rw)
		}
	}
	// Read-only logs never set write bits, so two of them always screen
	// out regardless of overlap.
	r1 := Prepare(footLog([]oplog.Access{footAcc("work", "", true, false)}))
	r2 := Prepare(footLog([]oplog.Access{footAcc("work", "", true, false)}))
	a1, w1 := r1.Signatures()
	a2, w2 := r2.Signatures()
	if w1 != 0 || w2 != 0 {
		t.Fatalf("read-only logs carry write signatures %#x/%#x", w1, w2)
	}
	if w1&a2 != 0 || a1&w2 != 0 {
		t.Fatal("read-read overlap must screen out")
	}
}

// opLog logs real ops with the access lists they report.
func opLog(ops ...oplog.Op) oplog.Log {
	l := make(oplog.Log, len(ops))
	for i, op := range ops {
		ev := oplog.NewEvent(op, 1, i, op.AppendAccesses(nil, nil), nil)
		l[i] = &ev
	}
	return l
}

// TestDirtyWrites pins the install commit's join: a footprint location is
// dirty iff the transaction writes it and a window entry writes it too —
// reads on either side, other locations and other keys' hash bits do not
// count, and a relation is one location whatever the keys.
func TestDirtyWrites(t *testing.T) {
	txn := Prepare(opLog(
		adt.NumAddOp{L: "a", Delta: 1}.Op(),            // written; a window entry writes it
		adt.NumAddOp{L: "b", Delta: 1}.Op(),            // written; a window entry only reads it
		adt.NumLoadOp{L: "c"}.Op(),                     // read only; a window entry writes it
		adt.RelPutOp{L: "m", Key: "k1", Val: "v"}.Op(), // written; a window entry writes another key
		adt.NumStoreOp{L: "d", V: 1}.Op(),              // written; nobody else touches it
	))
	writesA := Prepare(opLog(adt.NumAddOp{L: "a", Delta: 2}.Op(), adt.NumLoadOp{L: "b"}.Op(), adt.NumStoreOp{L: "zz", V: 0}.Op()))
	writesCM := Prepare(opLog(adt.NumAddOp{L: "c", Delta: 2}.Op(), adt.RelPutOp{L: "m", Key: "k2", Val: "w"}.Op()))
	disjoint := Prepare(opLog(adt.NumAddOp{L: "q", Delta: 2}.Op()))

	want := map[state.Loc]bool{"a": true, "m": true}
	dirty, n := txn.DirtyWrites([]*Prepared{disjoint, writesA, writesCM, writesA}, nil)
	foot := txn.Footprint()
	if len(dirty) != len(foot) || n != len(want) {
		t.Fatalf("DirtyWrites = %v, %d over footprint %v; want %d dirty", dirty, n, foot, len(want))
	}
	for i, f := range foot {
		if dirty[i] != want[f.Loc] {
			t.Errorf("%s dirty = %v, want %v", f.Loc, dirty[i], want[f.Loc])
		}
	}
	// An empty or disjoint window dirties nothing, and the buffer is
	// reused with stale marks cleared.
	again, n := txn.DirtyWrites([]*Prepared{disjoint}, dirty)
	if n != 0 || &again[0] != &dirty[0] {
		t.Fatalf("disjoint window: %d dirty, buffer reused %v", n, &again[0] == &dirty[0])
	}
	for i := range again {
		if again[i] {
			t.Fatalf("stale dirty mark at %s", foot[i].Loc)
		}
	}
}
