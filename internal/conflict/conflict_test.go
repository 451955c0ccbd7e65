package conflict

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/spec"
	"repro/internal/state"
)

func baseState() *state.State {
	st := state.New()
	st.Set("work", state.Int(0))
	st.Set("max", state.Int(1))
	st.Set("ctx", state.Str(""))
	st.Set("bits", adt.NewRelValue())
	return st
}

// record executes ops on a clone of st and returns the log.
func record(t *testing.T, st *state.State, task int, ops ...oplog.Op) oplog.Log {
	t.Helper()
	work := st.Clone()
	var l oplog.Log
	for i, op := range ops {
		acc := op.AppendAccesses(nil, work)
		v, err := op.Apply(work)
		if err != nil {
			t.Fatalf("apply %v: %v", op, err)
		}
		ev := oplog.NewEvent(op, task, i, acc, v)
		l = append(l, &ev)
	}
	return l
}

// prepareAll prepares each log of a committed window.
func prepareAll(logs []oplog.Log) []*Prepared {
	out := make([]*Prepared, len(logs))
	for i, l := range logs {
		out[i] = Prepare(l)
	}
	return out
}

// detect prepares both sides, as the runtime does once per attempt and
// once per commit, and reports det's verdict.
func detect(det Detector, st *state.State, txn oplog.Log, committed ...oplog.Log) bool {
	return det.DetectPrepared(obs.Ctx{}, st, Prepare(txn), prepareAll(committed)).Conflict
}

func TestWriteSetBasic(t *testing.T) {
	st := baseState()
	w := NewWriteSet()
	add := record(t, st, 1, adt.NumAddOp{L: "work", Delta: 1}.Op())
	add2 := record(t, st, 2, adt.NumAddOp{L: "work", Delta: -1}.Op())
	rd := record(t, st, 2, adt.NumLoadOp{L: "work"}.Op())
	other := record(t, st, 2, adt.NumLoadOp{L: "max"}.Op())

	if !detect(w, st, add, add2) {
		t.Errorf("write-write overlap must conflict under write-set")
	}
	if !detect(w, st, rd, add) {
		t.Errorf("read-write overlap must conflict")
	}
	if detect(w, st, rd, record(t, st, 3, adt.NumLoadOp{L: "work"}.Op())) {
		t.Errorf("read-read must not conflict")
	}
	if detect(w, st, add, other) {
		t.Errorf("disjoint locations must not conflict")
	}
	if detect(w, st, add) {
		t.Errorf("empty history must not conflict (validity)")
	}
	if s := w.Stats(); s.Detections != 5 || s.Conflicts != 2 {
		t.Errorf("stats = %+v", s)
	}
	if w.Name() != "write-set" {
		t.Errorf("Name = %q", w.Name())
	}
}

func TestSequenceHitAvoidsFalseConflict(t *testing.T) {
	st := baseState()
	det := NewSequence(trainedIdentityCache(t), nil)
	id1 := record(t, st, 1, adt.NumAddOp{L: "work", Delta: 5}.Op(), adt.NumAddOp{L: "work", Delta: -5}.Op())
	id2 := record(t, st, 2, adt.NumAddOp{L: "work", Delta: 7}.Op(), adt.NumAddOp{L: "work", Delta: -7}.Op())
	if detect(det, st, id1, id2) {
		t.Fatalf("trained identity pair must not conflict")
	}
	if s := det.Stats(); s.PairQueries != 1 || s.Fallbacks != 0 {
		t.Errorf("stats = %+v", s)
	}
	if det.Name() != "sequence" {
		t.Errorf("Name = %q", det.Name())
	}
}

// TestSequenceMissFallsBackToWriteSet: a miss falls back to the write-set
// rule, whose conflict stands when the running transaction's read is stale
// under the committed effect, and is overturned in commit order when it
// has no read to go stale. Both queries count as a miss and a fallback.
func TestSequenceMissFallsBackToWriteSet(t *testing.T) {
	st := baseState()
	det := NewSequence(spec.New(spec.Abstract, false), nil)
	rd := record(t, st, 1, adt.NumLoadOp{L: "work"}.Op(), adt.NumAddOp{L: "work", Delta: 5}.Op())
	add := record(t, st, 2, adt.NumAddOp{L: "work", Delta: 7}.Op())
	if !detect(det, st, rd, add) {
		t.Fatalf("empty cache must fall back to write-set and conflict on a stale read")
	}
	id1 := record(t, st, 1, adt.NumAddOp{L: "work", Delta: 5}.Op(), adt.NumAddOp{L: "work", Delta: -5}.Op())
	id2 := record(t, st, 2, adt.NumAddOp{L: "work", Delta: 7}.Op(), adt.NumAddOp{L: "work", Delta: -7}.Op())
	if detect(det, st, id1, id2) {
		t.Fatalf("a fallback conflict without a stale read must be admitted in commit order")
	}
	if s := det.Stats(); s.Fallbacks != 2 || s.Conflicts != 1 {
		t.Errorf("stats = %+v", s)
	}
	if det.Cache.Stats().Misses != 2 {
		t.Errorf("cache stats = %+v", det.Cache.Stats())
	}
}

func TestSequenceNilCachePureFallback(t *testing.T) {
	st := baseState()
	det := &Sequence{}
	rd := record(t, st, 1, adt.NumLoadOp{L: "work"}.Op())
	wr := record(t, st, 2, adt.NumStoreOp{L: "work", V: 3}.Op())
	if !detect(det, st, rd, wr) {
		t.Fatalf("nil cache must behave like write-set")
	}
}

func TestRelaxationsRAWSpuriousReads(t *testing.T) {
	// The JGraphT-1 maxColor pattern (Figure 3): one transaction reads,
	// another writes. RAW relaxation suppresses the conflict.
	st := baseState()
	rx := NewRelaxations([]state.Loc{"max"}, nil)
	det := NewSequence(spec.New(spec.Abstract, false), rx)
	rd := record(t, st, 1, adt.NumLoadOp{L: "max"}.Op())
	wr := record(t, st, 2, adt.NumStoreOp{L: "max", V: 5}.Op())
	if detect(det, st, rd, wr) {
		t.Fatalf("RAW-relaxed read/write must not conflict")
	}
	// Stores of different values still fail COMMUTE (no WAW relax); the
	// conflict stands when the running transaction read the old value...
	rw := record(t, st, 1, adt.NumLoadOp{L: "max"}.Op(), adt.NumStoreOp{L: "max", V: 9}.Op())
	if !detect(det, st, rw, wr) {
		t.Fatalf("stores of different values after a stale read must still conflict")
	}
	// ...and is overturned in commit order for a blind store.
	wr2 := record(t, st, 1, adt.NumStoreOp{L: "max", V: 9}.Op())
	if detect(det, st, wr2, wr) {
		t.Fatalf("a blind store must be admitted in commit order")
	}
	if s := det.Stats(); s.RelaxedChecks == 0 {
		t.Errorf("relaxed path not exercised: %+v", s)
	}
}

func TestRelaxationsWAWSharedAsLocal(t *testing.T) {
	// The PMD pattern (Figure 4): both transactions overwrite then read
	// their own value. WAW relaxation drops the final COMMUTE check; the
	// SAMEREAD checks still pass because each read follows its own store.
	st := baseState()
	rx := NewRelaxations(nil, []state.Loc{"ctx"})
	det := NewSequence(spec.New(spec.Abstract, false), rx)
	a := record(t, st, 1, adt.StrStoreOp{L: "ctx", V: state.Str("a.go")}.Op(), adt.StrLoadOp{L: "ctx"}.Op())
	b := record(t, st, 2, adt.StrStoreOp{L: "ctx", V: state.Str("b.go")}.Op(), adt.StrLoadOp{L: "ctx"}.Op())
	if detect(det, st, a, b) {
		t.Fatalf("WAW-relaxed shared-as-local must not conflict")
	}
	if s := det.Stats(); s.RelaxedChecks == 0 {
		t.Errorf("relaxed path not exercised: %+v", s)
	}
	// Without the relaxation the stores fail COMMUTE, and the commit-order
	// rule admits the pair all the same: each read follows its own store.
	strict := NewSequence(spec.New(spec.Abstract, false), nil)
	if detect(strict, st, a, b) {
		t.Fatalf("unrelaxed shared-as-local must be admitted in commit order")
	}
	// A bare read of the entry value still conflicts: SAMEREAD is kept.
	spy := record(t, st, 3, adt.StrLoadOp{L: "ctx"}.Op())
	if !detect(det, st, spy, b) || !detect(strict, st, spy, b) {
		t.Fatalf("neither the WAW relaxation nor the commit-order rule may drop SAMEREAD")
	}
}

func TestRelaxationsBothOnStack(t *testing.T) {
	st := state.New()
	st.Set("stk", &state.IntList{})
	rx := NewRelaxations([]state.Loc{"stk"}, []state.Loc{"stk"})
	det := NewSequence(spec.New(spec.Abstract, false), rx)
	push := record(t, st, 1, adt.ListPushOp{L: "stk", V: 1}.Op())
	push2 := record(t, st, 2, adt.ListPushOp{L: "stk", V: 2}.Op())
	if detect(det, st, push, push2) {
		t.Fatalf("fully relaxed stack ops must not conflict")
	}
}

func TestRelaxationAccessors(t *testing.T) {
	var nilRx *Relaxations
	if nilRx.TolerateRAW("x") || nilRx.TolerateWAW("x") || nilRx.Any("x") {
		t.Errorf("nil relaxations must tolerate nothing")
	}
	rx := NewRelaxations([]state.Loc{"a"}, []state.Loc{"b"})
	if !rx.TolerateRAW("a") || rx.TolerateRAW("b") {
		t.Errorf("RAW accessor wrong")
	}
	if !rx.TolerateWAW("b") || rx.TolerateWAW("a") {
		t.Errorf("WAW accessor wrong")
	}
	if !rx.Any("a") || !rx.Any("b") || rx.Any("c") {
		t.Errorf("Any wrong")
	}
}

// TestLearnOnlineConvergesWithoutTraining: a learning cache proves a
// missed pair's condition and answers from it at once, yet that first
// query still counts and traces as a miss (Figure 11's statistics and the
// trace are those of a cache that missed); the second query is a plain
// hit. No query falls back to the write-set rule.
func TestLearnOnlineConvergesWithoutTraining(t *testing.T) {
	st := baseState()
	det := NewSequence(spec.New(spec.Abstract, true), nil)
	id1 := record(t, st, 1, adt.NumAddOp{L: "work", Delta: 5}.Op(), adt.NumAddOp{L: "work", Delta: -5}.Op())
	id2 := record(t, st, 2, adt.NumAddOp{L: "work", Delta: 7}.Op(), adt.NumAddOp{L: "work", Delta: -7}.Op())
	tr := obs.NewTrace(64)
	ctx := obs.Ctx{T: tr, Task: 1, Attempt: 1}
	query := func() bool {
		return det.DetectPrepared(ctx, st, Prepare(id1), prepareAll([]oplog.Log{id2})).Conflict
	}
	if query() {
		t.Fatalf("online learning must prove the identity pair on first sight")
	}
	if det.Cache.Len() != 1 {
		t.Fatalf("online learning must store the pair: %d entries", det.Cache.Len())
	}
	s := det.Cache.Stats()
	if s.Hits != 0 || s.Misses != 1 || s.UniqueMisses != 1 {
		t.Fatalf("first sight must count as a miss: %+v", s)
	}
	if tr.Count(obs.EvCacheMiss) != 1 || tr.Count(obs.EvCacheHit) != 0 {
		t.Fatalf("first sight must trace a miss: %d misses, %d hits", tr.Count(obs.EvCacheMiss), tr.Count(obs.EvCacheHit))
	}
	if query() {
		t.Fatalf("second query must hit")
	}
	s = det.Cache.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.UniqueMisses != 1 || s.UniqueHits != 0 {
		t.Fatalf("second query must hit, its key still a unique miss: %+v", s)
	}
	if tr.Count(obs.EvCacheHit) != 1 || tr.Count(obs.EvCacheMiss) != 1 {
		t.Fatalf("second query must trace a hit: %d misses, %d hits", tr.Count(obs.EvCacheMiss), tr.Count(obs.EvCacheHit))
	}
	if n := det.Stats().Fallbacks; n != 0 || tr.Count(obs.EvCacheFallback) != 0 {
		t.Fatalf("a learned pair must not fall back: %d fallbacks", n)
	}
}

// TestCommitOrderRuleAdmitsSharedAsLocal: the sequence detector judges
// every conflict in commit order, so a pair is admitted when the running
// transaction's reads are stable under the committed one's effect.
func TestCommitOrderRuleAdmitsSharedAsLocal(t *testing.T) {
	st := baseState()
	det := NewSequence(spec.New(spec.Abstract, false), nil)
	// Store-then-read pairs with different values: reads are stable
	// (each follows its own store); the final-value disagreement is
	// tolerated under commit-order serialization.
	a := record(t, st, 1, adt.StrStoreOp{L: "ctx", V: state.Str("a.go")}.Op(), adt.StrLoadOp{L: "ctx"}.Op())
	b := record(t, st, 2, adt.StrStoreOp{L: "ctx", V: state.Str("b.go")}.Op(), adt.StrLoadOp{L: "ctx"}.Op())
	if detect(det, st, a, b) {
		t.Fatalf("the commit-order rule must admit shared-as-local store/read pairs")
	}
	// A stale read is never admitted: SAMEREAD is kept.
	spy := record(t, st, 3, adt.StrLoadOp{L: "ctx"}.Op())
	if !detect(det, st, spy, b) {
		t.Fatalf("the commit-order rule must keep the read-stability requirement")
	}
	// Stack sequences: a balanced pair passes; a prestate-popping one
	// against a non-identity committed sequence does not.
	st2 := state.New()
	st2.Set("stk", &state.IntList{5})
	bal := record(t, st2, 1, adt.ListPushOp{L: "stk", V: 1}.Op(), adt.ListPopOp{L: "stk"}.Op())
	grow := record(t, st2, 2, adt.ListPushOp{L: "stk", V: 9}.Op())
	if detect(det, st2, bal, grow) {
		t.Fatalf("balanced stack reads are stable under a growing committed txn")
	}
	popper := record(t, st2, 3, adt.ListPopOp{L: "stk"}.Op())
	if !detect(det, st2, popper, grow) {
		t.Fatalf("a prestate pop must conflict with a growing committed txn")
	}
	// A remove that found its key absent read it: it is stale under a
	// committed put of that key, though the register theory reads both as
	// stores. A remove of a present key is a blind store and is admitted.
	put := record(t, st, 4, adt.RelPutOp{L: "bits", Key: "k0", Val: "v"}.Op())
	delAbsent := record(t, st, 5, adt.RelRemoveOp{L: "bits", Key: "k0"}.Op())
	if !detect(det, st, delAbsent, put) {
		t.Fatalf("a remove of an absent key must conflict with a committed put of it")
	}
	st3 := baseState()
	if err := put.Replay(st3); err != nil {
		t.Fatal(err)
	}
	delPresent := record(t, st3, 6, adt.RelRemoveOp{L: "bits", Key: "k0"}.Op())
	if detect(det, st3, delPresent, put) {
		t.Fatalf("a remove of a present key is a blind store: the rule must admit it")
	}
}
