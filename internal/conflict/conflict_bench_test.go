package conflict

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/state"
)

// benchLog builds a log without a testing.T (bench variant of record).
func benchLog(b *testing.B, st *state.State, task int, ops ...oplog.Op) oplog.Log {
	b.Helper()
	work := st.Clone()
	var l oplog.Log
	for i, op := range ops {
		acc := op.AppendAccesses(nil, work)
		v, err := op.Apply(work)
		if err != nil {
			b.Fatalf("apply %v: %v", op, err)
		}
		ev := oplog.NewEvent(op, task, i, acc, v)
		l = append(l, &ev)
	}
	return l
}

// benchFixture is the shared detection workload: identity-add transactions
// over a pool of counters, validated against a multi-entry committed
// history with every per-location query answered by the trained cache.
type benchFixture struct {
	st        *state.State
	det       *Sequence
	running   []oplog.Log
	committed []oplog.Log
	// committedPrep models the commit-time artifact: each committed log
	// prepared exactly once, shared read-only by every detection below.
	committedPrep []*Prepared
}

// benchSetup builds the fixture. stride controls contention: stride 1
// packs all transactions onto overlapping counters (every pair of
// per-location projections overlaps), while a stride of nLocs/len(txns)
// spreads them so most pairs are disjoint.
func benchSetup(b *testing.B, nLocs, stride int) *benchFixture {
	b.Helper()
	st := state.New()
	for i := 0; i < nLocs; i++ {
		st.Set(state.Loc("ctr"+strconv.Itoa(i)), state.Int(0))
	}
	det := NewSequence(trainedIdentityCache(b), nil)

	// Each transaction touches a few counters with identity add pairs —
	// always admissible, so detection always runs the full pipeline.
	txn := func(task, base int) oplog.Log {
		var ops []oplog.Op
		for j := 0; j < 3; j++ {
			loc := state.Loc("ctr" + strconv.Itoa((base+j)%nLocs))
			d := int64(task + j + 1)
			ops = append(ops, adt.NumAddOp{L: loc, Delta: d}.Op(), adt.NumAddOp{L: loc, Delta: -d}.Op())
		}
		return benchLog(b, st, task, ops...)
	}
	f := &benchFixture{st: st, det: det}
	f.committed = make([]oplog.Log, 4)
	for i := range f.committed {
		f.committed[i] = txn(100+i, i*stride)
	}
	f.running = make([]oplog.Log, 8)
	for i := range f.running {
		f.running[i] = txn(i+1, i*stride)
	}
	f.committedPrep = prepareAll(f.committed)
	return f
}

// detectOnce is one runtime attempt on the prepared path: the running
// transaction's log is prepared once (as after runTaskBody) and validated
// against the shared commit-time projections; an attempt that does not
// publish recycles its artifact.
func (f *benchFixture) detectOnce(b *testing.B, i int) {
	prep := Prepare(f.running[i%len(f.running)])
	v := f.det.DetectPrepared(obs.Ctx{}, f.st, prep, f.committedPrep)
	prep.Recycle()
	if v.Conflict {
		b.Fatal("identity transactions must not conflict")
	}
}

// BenchmarkDetectSequential measures one-goroutine detection on the
// prepared path: per-attempt transaction preparation plus validation
// against already-prepared committed history.
func BenchmarkDetectSequential(b *testing.B) {
	f := benchSetup(b, 16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.detectOnce(b, i)
	}
}

// BenchmarkDetectParallel measures concurrent detection with transactions
// spread across the location pool (most projection pairs disjoint), the
// common low-conflict regime; run with -cpu 1,4,8.
func BenchmarkDetectParallel(b *testing.B) {
	f := benchSetup(b, 16, 4)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			f.detectOnce(b, i)
			i++
		}
	})
}

// BenchmarkDetectHighContention measures the full sequence-detection path
// under concurrency: many workers validating transactions against a
// multi-entry committed history whose projections all overlap, with every
// per-location query answered by the shared trained cache. This is the
// §5.3 hot path the commit-time prepared projections exist for; run with
// -cpu 1,4,8.
func BenchmarkDetectHighContention(b *testing.B) {
	f := benchSetup(b, 16, 1)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			f.detectOnce(b, i)
			i++
		}
	})
}

// BenchmarkDetectLargeTxn measures detection cost and artifact memory for
// a transaction two orders of magnitude larger than the usual workload:
// one identity-add pair on each of 2048 counters (4096 ops, 2048 distinct
// projection locations). live-B reports the heap retained by one prepared
// artifact after a detection pass (GC-fenced delta): the log plus the
// event and descriptor arenas carved for it on first query.
func BenchmarkDetectLargeTxn(b *testing.B) {
	const totalOps = 4096
	f := benchSetup(b, totalOps/2, 1)
	var ops []oplog.Op
	for j := 0; j < totalOps/2; j++ {
		loc := state.Loc("ctr" + strconv.Itoa(j))
		d := int64(j%9 + 1)
		ops = append(ops, adt.NumAddOp{L: loc, Delta: d}.Op(), adt.NumAddOp{L: loc, Delta: -d}.Op())
	}
	l := benchLog(b, f.st, 1, ops...)

	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	held := Prepare(l)
	if v := f.det.DetectPrepared(obs.Ctx{}, f.st, held, f.committedPrep); v.Conflict {
		b.Fatal("identity transactions must not conflict")
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)

	b.ReportAllocs()
	b.ResetTimer() // note: also clears ReportMetric values
	for i := 0; i < b.N; i++ {
		p := Prepare(l)
		v := f.det.DetectPrepared(obs.Ctx{}, f.st, p, f.committedPrep)
		p.Recycle()
		if v.Conflict {
			b.Fatal("identity transactions must not conflict")
		}
	}
	if m1.HeapAlloc > m0.HeapAlloc {
		b.ReportMetric(float64(m1.HeapAlloc-m0.HeapAlloc), "live-B")
	}
	runtime.KeepAlive(held)
}
