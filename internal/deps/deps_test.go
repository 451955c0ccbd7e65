package deps

import (
	"reflect"
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/state"
)

// trace builds a training-style log by executing ops sequentially,
// recording footprints against the running state.
func trace(st *state.State, steps []struct {
	task int
	op   oplog.Op
}) oplog.Log {
	var l oplog.Log
	for i, s := range steps {
		acc := s.op.AppendAccesses(nil, st)
		v, err := s.op.Apply(st)
		if err != nil {
			panic(err)
		}
		ev := oplog.NewEvent(s.op, s.task, i, acc, v)
		l = append(l, &ev)
	}
	return l
}

func baseState() *state.State {
	st := state.New()
	st.Set("work", state.Int(0))
	st.Set("bits", adt.NewRelValue())
	return st
}

type step = struct {
	task int
	op   oplog.Op
}

func TestBuildClassifiesEdges(t *testing.T) {
	st := baseState()
	l := trace(st, []step{
		{1, adt.NumStoreOp{L: "work", V: 5}},   // 0: write
		{1, adt.NumLoadOp{L: "work"}},          // 1: read → Flow from 0
		{2, adt.NumLoadOp{L: "work"}},          // 2: read → Input from 1
		{2, adt.NumAddOp{L: "work", Delta: 1}}, // 3: rmw → Anti from 2
		{3, adt.NumStoreOp{L: "work", V: 9}},   // 4: write → Output from 3
	})
	g := Build(l)
	want := []Edge{
		{From: 0, To: 1, P: "work", Kind: Flow},
		{From: 1, To: 2, P: "work", Kind: Input},
		{From: 2, To: 3, P: "work", Kind: Anti},
		{From: 3, To: 4, P: "work", Kind: Output},
	}
	if !reflect.DeepEqual(g.Edges, want) {
		t.Fatalf("edges = %v\nwant %v", g.Edges, want)
	}
}

func TestMinePartitionsByTask(t *testing.T) {
	st := baseState()
	l := trace(st, []step{
		{1, adt.NumAddOp{L: "work", Delta: 2}},
		{1, adt.NumAddOp{L: "work", Delta: -2}},
		{2, adt.NumAddOp{L: "work", Delta: 3}},
		{2, adt.NumAddOp{L: "work", Delta: -3}},
		{3, adt.NumLoadOp{L: "work"}},
	})
	mined := Mine(l)
	seqs := mined["work"]
	if len(seqs) != 3 {
		t.Fatalf("sequences = %d, want 3 (one per task)", len(seqs))
	}
	if seqs[0].Task != 1 || len(seqs[0].Events) != 2 {
		t.Errorf("task 1 seq: %v", seqs[0])
	}
	if seqs[1].Task != 2 || len(seqs[1].Events) != 2 {
		t.Errorf("task 2 seq: %v", seqs[1])
	}
	if seqs[2].Task != 3 || len(seqs[2].Events) != 1 {
		t.Errorf("task 3 seq: %v", seqs[2])
	}
	if got := seqs[0].Syms(); got[0].Kind != adt.KindNumAdd || got[0].Arg != "2" {
		t.Errorf("syms = %v", got)
	}
}

func TestMineRelationalPerKey(t *testing.T) {
	st := baseState()
	l := trace(st, []step{
		{1, adt.RelPutOp{L: "bits", Key: "1", Val: "1"}},
		{1, adt.RelPutOp{L: "bits", Key: "2", Val: "1"}},
		{2, adt.RelPutOp{L: "bits", Key: "1", Val: "1"}},
	})
	mined := Mine(l)
	if got := len(mined["bits#k=1"]); got != 2 {
		t.Errorf("k=1 sequences = %d, want 2", got)
	}
	if got := len(mined["bits#k=2"]); got != 1 {
		t.Errorf("k=2 sequences = %d, want 1", got)
	}
	shared := SharedPLocs(mined)
	if !reflect.DeepEqual(shared, []oplog.PLoc{"bits#k=1"}) {
		t.Errorf("shared = %v, want [bits#k=1]", shared)
	}
}

func TestClearFoldsIntoKeyChains(t *testing.T) {
	st := baseState()
	l := trace(st, []step{
		{1, adt.RelPutOp{L: "bits", Key: "3", Val: "1"}},
		{2, adt.RelClearOp{L: "bits"}}, // clears key 3: write access to k=3
		{2, adt.RelPutOp{L: "bits", Key: "3", Val: "1"}},
	})
	mined := Mine(l)
	seqs := mined["bits#k=3"]
	if len(seqs) != 2 {
		t.Fatalf("k=3 sequences = %d, want 2: %v", len(seqs), seqs)
	}
	if len(seqs[1].Events) != 2 {
		t.Errorf("task 2 must contribute clear+put on k=3, got %v", seqs[1])
	}
	if seqs[1].Syms()[0].Kind != adt.KindRelClear {
		t.Errorf("first op of task-2 seq = %v, want rel.clear", seqs[1].Syms()[0])
	}
}

func TestDepKindStrings(t *testing.T) {
	want := map[DepKind]string{Flow: "RAW", Anti: "WAR", Output: "WAW", Input: "RR"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("String(%d) = %q, want %q", k, k.String(), s)
		}
	}
}

func TestEdgeAndTaskSeqStrings(t *testing.T) {
	e := Edge{From: 1, To: 2, P: "work", Kind: Flow}
	if e.String() != "2→1 over work [RAW]" {
		t.Errorf("edge String = %q", e.String())
	}
	st := baseState()
	l := trace(st, []step{{4, adt.NumAddOp{L: "work", Delta: 2}}})
	ts := TaskSeq{Task: 4, Events: l}
	if ts.String() != "task 4: num.add(2)" {
		t.Errorf("TaskSeq String = %q", ts.String())
	}
}

func TestEmptyTrace(t *testing.T) {
	g := Build(nil)
	if len(g.Edges) != 0 {
		t.Errorf("empty trace must have no edges")
	}
	if m := Mine(nil); len(m) != 0 {
		t.Errorf("empty trace must mine nothing")
	}
}
