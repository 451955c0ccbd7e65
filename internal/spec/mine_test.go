package spec_test

import (
	"reflect"
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/spec"
	"repro/internal/state"
)

type step struct {
	task int
	op   oplog.Op
}

// traceOf builds a training-style log by executing ops sequentially,
// recording footprints against the running state.
func traceOf(st *state.State, steps []step) oplog.Log {
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

func mineState() *state.State {
	st := state.New()
	st.Set("work", state.Int(0))
	st.Set("bits", adt.NewRelValue())
	return st
}

func TestMinePartitionsByTask(t *testing.T) {
	l := traceOf(mineState(), []step{
		{1, adt.NumAddOp{L: "work", Delta: 2}.Op()},
		{1, adt.NumAddOp{L: "work", Delta: -2}.Op()},
		{2, adt.NumAddOp{L: "work", Delta: 3}.Op()},
		{2, adt.NumAddOp{L: "work", Delta: -3}.Op()},
		{3, adt.NumLoadOp{L: "work"}.Op()},
	})
	seqs := spec.Mine(l)[oplog.PLoc{Loc: "work"}]
	if len(seqs) != 3 {
		t.Fatalf("sequences = %d, want 3 (one per task)", len(seqs))
	}
	for i, want := range []struct{ task, n int }{{1, 2}, {2, 2}, {3, 1}} {
		if seqs[i][0].Task != want.task || len(seqs[i]) != want.n {
			t.Errorf("sequence %d = %v, want %d ops of task %d", i, seqs[i], want.n, want.task)
		}
	}
	if got := seqs[0].Syms(); got[0].Kind != adt.KindNumAdd || !got[0].Int || got[0].N != 2 {
		t.Errorf("syms = %v", got)
	}
}

func TestMineRelationalPerKey(t *testing.T) {
	l := traceOf(mineState(), []step{
		{1, adt.RelPutOp{L: "bits", Key: "1", Val: "1"}.Op()},
		{1, adt.RelPutOp{L: "bits", Key: "2", Val: "1"}.Op()},
		{2, adt.RelPutOp{L: "bits", Key: "1", Val: "1"}.Op()},
	})
	k1, k2 := oplog.PLoc{Loc: "bits", Key: "1"}, oplog.PLoc{Loc: "bits", Key: "2"}
	mined := spec.Mine(l)
	if got := len(mined[k1]); got != 2 {
		t.Errorf("k=1 sequences = %d, want 2", got)
	}
	if got := len(mined[k2]); got != 1 {
		t.Errorf("k=2 sequences = %d, want 1", got)
	}
	if shared := spec.SharedPLocs(mined); !reflect.DeepEqual(shared, []oplog.PLoc{k1}) {
		t.Errorf("shared = %v, want [bits#1]", shared)
	}
}

func TestClearFoldsIntoKeyChains(t *testing.T) {
	l := traceOf(mineState(), []step{
		{1, adt.RelPutOp{L: "bits", Key: "3", Val: "1"}.Op()},
		{2, adt.RelClearOp{L: "bits"}.Op()}, // clears key 3: write access to k=3
		{2, adt.RelPutOp{L: "bits", Key: "3", Val: "1"}.Op()},
	})
	seqs := spec.Mine(l)[oplog.PLoc{Loc: "bits", Key: "3"}]
	if len(seqs) != 2 {
		t.Fatalf("k=3 sequences = %d, want 2: %v", len(seqs), seqs)
	}
	if len(seqs[1]) != 2 {
		t.Errorf("task 2 must contribute clear+put on k=3, got %v", seqs[1])
	}
	if seqs[1].Syms()[0].Kind != adt.KindRelClear {
		t.Errorf("first op of task-2 seq = %v, want rel.clear", seqs[1].Syms()[0])
	}
}

func TestMineEmptyTrace(t *testing.T) {
	if m := spec.Mine(nil); len(m) != 0 {
		t.Errorf("empty trace must mine nothing")
	}
}
