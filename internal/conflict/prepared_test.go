package conflict

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/spec"
	"repro/internal/state"
)

// randLog builds a random transaction log over the shared counters:
// loads, bare adds, and identity add pairs (the shape the trained cache
// below can answer). Conflicting and non-conflicting overlaps both occur.
func randLog(t *testing.T, rng *rand.Rand, st *state.State, task int) oplog.Log {
	t.Helper()
	locs := []state.Loc{"work", "max"}
	var ops []oplog.Op
	for n := 1 + rng.Intn(3); n > 0; n-- {
		loc := locs[rng.Intn(len(locs))]
		switch rng.Intn(3) {
		case 0:
			ops = append(ops, adt.NumLoadOp{L: loc}.Op())
		case 1:
			ops = append(ops, adt.NumAddOp{L: loc, Delta: int64(rng.Intn(5))}.Op())
		default:
			d := int64(1 + rng.Intn(5))
			ops = append(ops, adt.NumAddOp{L: loc, Delta: d}.Op(), adt.NumAddOp{L: loc, Delta: -d}.Op())
		}
	}
	return record(t, st, task, ops...)
}

// trainedIdentityCache returns a frozen specification trained on two
// tasks that each add to a counter and take it away again: it answers
// every identity add pair, the shape the workloads above repeat.
func trainedIdentityCache(tb testing.TB) *spec.Cache {
	tb.Helper()
	st := state.New()
	st.Set("ctr", state.Int(0))
	identity := func(d int64) adt.Task {
		return func(ex adt.Executor) error {
			if _, err := ex.Exec(adt.NumAddOp{L: "ctr", Delta: d}.Op()); err != nil {
				return err
			}
			_, err := ex.Exec(adt.NumAddOp{L: "ctr", Delta: -d}.Op())
			return err
		}
	}
	c, _, err := spec.Train(st, []adt.Task{identity(1), identity(2)}, spec.Abstract)
	if err != nil {
		tb.Fatal(err)
	}
	if c.Len() != 1 {
		tb.Fatalf("identity training learned %d entries, want 1:\n%s", c.Len(), c.Dump())
	}
	c.Freeze()
	return c
}

// TestDetectorCompositionality is the property DetectPrepared's
// incremental watermark relies on: a verdict against a committed window
// is the disjunction of the verdicts against each entry alone, so
// per-entry results are final and never need re-checking. Checked for
// both detectors over randomized logs.
func TestDetectorCompositionality(t *testing.T) {
	st := baseState()
	detectors := []Detector{
		NewWriteSet(),
		NewSequence(trainedIdentityCache(t), nil),
		NewSequence(nil, nil), // pure fallback
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		txn := randLog(t, rng, st, 1)
		committed := make([]oplog.Log, rng.Intn(4))
		for i := range committed {
			committed[i] = randLog(t, rng, st, 100+i)
		}
		for _, det := range detectors {
			whole := detect(det, st, txn, committed...)
			any := false
			for _, c := range committed {
				if detect(det, st, txn, c) {
					any = true
				}
			}
			if whole != any {
				t.Fatalf("trial %d, %s: whole-window verdict %v != per-entry disjunction %v",
					trial, det.Name(), whole, any)
			}
		}
	}
}

// TestPreparedSharedConcurrently shares one set of prepared projections
// across many detecting goroutines — the commit-time sharing the runtime
// does — and checks (under -race) that concurrent detection, including
// the lazily memoized index, decomposition and cache keys, never mutates
// the shared artifact or changes a verdict. One detector runs the trained
// hot path (exercising seqKey memoization), the other has every lookup
// forced to miss (exercising the write-set fallback, which reads the
// access modes the decomposition copied from the index).
func TestPreparedSharedConcurrently(t *testing.T) {
	st := baseState()
	rng := rand.New(rand.NewSource(47))
	committed := make([]oplog.Log, 4)
	for i := range committed {
		committed[i] = randLog(t, rng, st, 100+i)
	}
	prepC := prepareAll(committed)
	txns := make([]oplog.Log, 8)
	preps := make([]*Prepared, len(txns))
	for i := range txns {
		txns[i] = randLog(t, rng, st, 1+i)
		preps[i] = Prepare(txns[i])
	}

	hot := NewSequence(trainedIdentityCache(t), nil)
	missing := NewSequence(trainedIdentityCache(t), nil)
	missing.ForceMiss = func(int, int) bool { return true }

	// Reference verdicts, computed single-threaded.
	want := make([][2]bool, len(txns))
	for i := range preps {
		want[i] = [2]bool{
			hot.DetectPrepared(obs.Ctx{}, st, preps[i], prepC).Conflict,
			missing.DetectPrepared(obs.Ctx{}, st, preps[i], prepC).Conflict,
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				i := (g + iter) % len(preps)
				if got := hot.DetectPrepared(obs.Ctx{}, st, preps[i], prepC).Conflict; got != want[i][0] {
					errs <- "hot-path verdict changed under concurrency"
					return
				}
				if got := missing.DetectPrepared(obs.Ctx{}, st, preps[i], prepC).Conflict; got != want[i][1] {
					errs <- "fallback verdict changed under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPreparePooledRecycle: a recycled artifact's buffers must be fully
// rebuilt on reuse — pool reuse yields the same projections and verdicts
// as an artifact that never saw the pool.
func TestPreparePooledRecycle(t *testing.T) {
	st := baseState()
	rng := rand.New(rand.NewSource(53))
	det := NewSequence(trainedIdentityCache(t), nil)
	committed := []oplog.Log{randLog(t, rng, st, 100), randLog(t, rng, st, 101)}
	prepC := prepareAll(committed)
	for trial := 0; trial < 100; trial++ {
		txn := randLog(t, rng, st, 1)
		pooled := Prepare(txn)
		fresh := &Prepared{log: txn}
		if len(pooled.locations()) != len(fresh.locations()) || pooled.Ops() != fresh.Ops() {
			t.Fatalf("trial %d: pooled artifact shape %d/%d != fresh %d/%d",
				trial, len(pooled.locations()), pooled.Ops(), len(fresh.locations()), fresh.Ops())
		}
		for i := range fresh.locs {
			pl, fl := &pooled.locs[i], &fresh.locs[i]
			if pl.p != fl.p || len(pl.seq) != len(fl.seq) || len(pl.syms) != len(fl.syms) {
				t.Fatalf("trial %d: projection %d differs after pool reuse", trial, i)
			}
		}
		got := det.DetectPrepared(obs.Ctx{}, st, pooled, prepC).Conflict
		wanted := det.DetectPrepared(obs.Ctx{}, st, fresh, prepC).Conflict
		if got != wanted {
			t.Fatalf("trial %d: pooled verdict %v != fresh %v", trial, got, wanted)
		}
		pooled.Recycle()
	}
}

// TestWarmDecomposeAllocs pins that indexing a warm artifact, folding its
// footprint, decomposing it into per-location descriptors and rendering
// each location's cache key allocates nothing — for a short log, and for
// a 1023-op one over 65 counters that the decomposer indexes through its
// maps. A delta stays an integer in its descriptor, so none is rendered —
// not a negative one, nor one past the runtime's cache of the strings of
// 0–99.
func TestWarmDecomposeAllocs(t *testing.T) {
	short := make([]oplog.Op, 0, 8)
	for i, d := range []int64{-300, 300, 1000, -1, 12345, -12345, 250, -250} {
		short = append(short, adt.NumAddOp{L: []state.Loc{"a", "b"}[i%2], Delta: d}.Op())
	}
	long := make([]oplog.Op, 0, 1023)
	for i := 0; i < 1023; i++ {
		loc := state.Loc("h" + strconv.Itoa(i*7%65))
		if i%5 == 0 {
			long = append(long, adt.NumLoadOp{L: loc}.Op())
		} else {
			long = append(long, adt.NumAddOp{L: loc, Delta: int64(i%300 - 150)}.Op())
		}
	}
	for _, ops := range [][]oplog.Op{short, long} {
		p := Begin()
		for i, op := range ops {
			p.Append(oplog.NewEvent(op, 1, i, op.AppendAccesses(nil, nil), nil))
		}
		project := func() {
			// Reset the memos, keeping their buffers, as Recycle does.
			p.indexOnce, p.footOnce, p.locsOnce = sync.Once{}, sync.Once{}, sync.Once{}
			p.foot = p.foot[:0]
			p.sigAll, p.sigWrite = 0, 0
			p.Footprint()
			for i := range p.locations() {
				p.locs[i].seqKey(spec.Abstract)
			}
		}
		project() // grow the buffers
		if allocs := testing.AllocsPerRun(100, project); allocs != 0 {
			t.Errorf("indexing, footprinting and decomposing a warm artifact of %d ops allocates %.1f objects, want 0", len(ops), allocs)
		}
		p.Recycle()
	}
}
