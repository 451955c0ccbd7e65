package stm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/spec"
	"repro/internal/state"
)

func initialState() *state.State {
	st := state.New()
	st.Set("work", state.Int(0))
	st.Set("log", &state.IntList{})
	st.Set("canvas", adt.NewRelValue())
	return st
}

func addTask(n int64) adt.Task {
	return func(ex adt.Executor) error {
		return adt.Counter{L: "work"}.Add(ex, n)
	}
}

func identityTask(n int64) adt.Task {
	return func(ex adt.Executor) error {
		c := adt.Counter{L: "work"}
		if err := c.Add(ex, n); err != nil {
			return err
		}
		return c.Sub(ex, n)
	}
}

// appendTask pushes its id: non-commutative, order-observable.
func appendTask(id int64) adt.Task {
	return func(ex adt.Executor) error {
		return adt.Stack{L: "log"}.Push(ex, id)
	}
}

func TestRunSequentialBaseline(t *testing.T) {
	st := initialState()
	final, err := RunSequential(st, []adt.Task{addTask(2), addTask(3), addTask(5)})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := final.Get("work"); !v.EqualValue(state.Int(10)) {
		t.Fatalf("work = %v, want 10", v)
	}
	if v, _ := st.Get("work"); !v.EqualValue(state.Int(0)) {
		t.Fatalf("initial state mutated")
	}
}

func TestParallelMatchesSequentialCommutative(t *testing.T) {
	tasks := []adt.Task{addTask(1), addTask(2), addTask(3), addTask(4), addTask(5)}
	want, err := RunSequential(initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4, 8} {
		got, stats, err := Run(Config{Threads: threads}, initialState(), tasks)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if !got.Equal(want) {
			t.Fatalf("threads=%d: state %s != sequential %s", threads, got, want)
		}
		if stats.Commits != 5 {
			t.Fatalf("commits = %d, want 5", stats.Commits)
		}
	}
}

func TestOrderedMatchesSequentialOrder(t *testing.T) {
	tasks := []adt.Task{appendTask(1), appendTask(2), appendTask(3), appendTask(4)}
	want, err := RunSequential(initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Run(Config{Threads: 4, Ordered: true}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("ordered run %s != sequential %s", got, want)
	}
}

func TestUnorderedIsSomeSerialOrder(t *testing.T) {
	tasks := []adt.Task{appendTask(1), appendTask(2), appendTask(3)}
	perms := [][]int64{
		{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1},
	}
	for trial := 0; trial < 10; trial++ {
		got, _, err := Run(Config{Threads: 3}, initialState(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := got.Get("log")
		lst := *v.(*state.IntList)
		matched := false
		for _, p := range perms {
			if len(lst) == 3 && lst[0] == p[0] && lst[1] == p[1] && lst[2] == p[2] {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("final log %v is not a permutation-serial outcome", lst)
		}
	}
}

func TestSingleThreadNoRetries(t *testing.T) {
	tasks := []adt.Task{addTask(1), addTask(2), addTask(3)}
	_, stats, err := Run(Config{Threads: 1}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries != 0 {
		t.Fatalf("single-threaded run retried %d times", stats.Retries)
	}
	if stats.RetryRatio() != 0 {
		t.Fatalf("retry ratio = %v", stats.RetryRatio())
	}
}

func TestTaskErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	bad := func(adt.Executor) error { return boom }
	_, _, err := Run(Config{Threads: 2}, initialState(), []adt.Task{addTask(1), bad})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestOrderedErrorDoesNotDeadlock(t *testing.T) {
	boom := errors.New("boom")
	// Task 1 fails: tasks 2..4 wait for clock==tid and must be released.
	bad := func(adt.Executor) error { return boom }
	_, _, err := Run(Config{Threads: 4, Ordered: true}, initialState(),
		[]adt.Task{bad, addTask(1), addTask(2), addTask(3)})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestSequenceDetectorEnablesIdentityParallelism(t *testing.T) {
	var tasks []adt.Task
	for i := 1; i <= 12; i++ {
		tasks = append(tasks, identityTask(int64(i)))
	}
	c, _, err := spec.Train(initialState(), tasks[:3], spec.Abstract)
	if err != nil {
		t.Fatal(err)
	}
	det := conflict.NewSequence(c, nil)
	final, stats, err := Run(Config{Threads: 4, Detector: det}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := final.Get("work"); !v.EqualValue(state.Int(0)) {
		t.Fatalf("work = %v, want 0", v)
	}
	if stats.Retries != 0 {
		t.Fatalf("identity tasks under sequence detection must not retry, got %d", stats.Retries)
	}
	if s := det.Stats(); s.Detections == 0 {
		t.Fatalf("detector never consulted")
	}
}

func TestWriteSetSerializesConflictingCommits(t *testing.T) {
	// Equal-writes canvas tasks: write-set detection flags them, sequence
	// detection (trained) does not.
	draw := func(color string) adt.Task {
		return func(ex adt.Executor) error {
			return adt.Canvas{L: "canvas"}.DrawPixel(ex, 0, 0, color)
		}
	}
	var tasks []adt.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, draw("white"))
	}
	c, _, err := spec.Train(initialState(), tasks[:2], spec.Abstract)
	if err != nil {
		t.Fatal(err)
	}
	seqFinal, seqStats, err := Run(Config{Threads: 4, Detector: conflict.NewSequence(c, nil)}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.Retries != 0 {
		t.Fatalf("equal writes must not retry under sequence detection, got %d", seqStats.Retries)
	}
	wsFinal, _, err := Run(Config{Threads: 4, Detector: conflict.NewWriteSet()}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !seqFinal.Equal(wsFinal) {
		t.Fatalf("final states differ: %s vs %s", seqFinal, wsFinal)
	}
}

func TestMaxRetriesGuard(t *testing.T) {
	// A detector that always reports conflicts forces retries; with
	// a concurrent committer the victim aborts until the guard fires.
	always := &alwaysConflict{}
	_, _, err := Run(Config{Threads: 2, Detector: always, MaxRetries: 3}, initialState(),
		[]adt.Task{addTask(1), addTask(2)})
	if err == nil || !strings.Contains(err.Error(), "retries") {
		t.Fatalf("err = %v, want retry-guard failure", err)
	}
}

// alwaysConflict violates the validity requirement of Theorem 4.1 by
// conflicting unconditionally; the MaxRetries guard must catch the
// resulting livelock.
type alwaysConflict struct{}

func (a *alwaysConflict) DetectPrepared(_ obs.Ctx, _ *state.State, _ *conflict.Prepared, _ []*conflict.Prepared) conflict.Verdict {
	return conflict.Verdict{Conflict: true, Reason: conflict.ReasonWriteSet}
}

func (a *alwaysConflict) Name() string { return "always-conflict" }

// TestHistoryFollowsConcurrencyNotRunLength: every commit takes back the
// entries no active transaction can still need, so the history is as long
// as the windows of the transactions in flight, never as long as the run.
// On two threads a window is as long as the other worker gets ahead while
// one transaction holds its begin, which the scheduler decides; here no
// body starts while a task eight or more before it still holds one, so the
// bound is the test's.
//
// In ordered mode the bound is the protocol's: Threads+1, however slow a
// straggler is. Task j publishes with commit time j+1 once published == j,
// and a begin b means tasks below b have published. Tasks are dealt in order
// and a worker takes its next one only after its last has published, so
// the predecessors of j still unpublished at its begin, b..j-1, are held by
// the other Threads-1 workers: b ≥ j-Threads+1. Task k appends its entry
// after task k-1's publication reclaimed every entry at or below the lowest
// registered begin. Every earlier task dropped its begin as it published;
// task k-1's own, at least k-Threads, is registered through its pass, and
// later tasks' are higher. What survives is commit times k-Threads+1..k,
// Threads entries, and task k's makes Threads+1. The stragglers here hold
// their bodies until the next Threads-1 tasks have begun, so task
// s+Threads-1 begins at exactly s and the bound is reached at task
// s+Threads: MaxHist is exactly Threads+1.
func TestHistoryFollowsConcurrencyNotRunLength(t *testing.T) {
	const n, lead = 1000, 8
	var r *Runtime
	activeRange := func() (oldest, newest int) {
		r.histMu.Lock()
		defer r.histMu.Unlock()
		oldest = n + 1
		for tid := range r.begins {
			oldest, newest = min(oldest, tid), max(newest, tid)
		}
		return oldest, newest
	}
	oldestActive := func() int {
		oldest, _ := activeRange()
		return oldest
	}
	tasks := make([]adt.Task, n)
	for i := range tasks {
		add := addTask(int64(i%7 + 1))
		tasks[i] = func(ex adt.Executor) error {
			for oldestActive() <= i+1-lead {
				runtime.Gosched()
			}
			return add(ex)
		}
	}
	run := func(cfg Config, tasks []adt.Task) Stats {
		r = New(cfg, initialState())
		stats, err := r.Run(context.Background(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		if held := stats.Commits - stats.Reclaimed; held < 1 || held > stats.MaxHist {
			t.Fatalf("Reclaimed = %d of %d commits with MaxHist %d: the run must end holding its last entries and no more",
				stats.Reclaimed, stats.Commits, stats.MaxHist)
		}
		return stats
	}
	// One thread: a commit finds its predecessor's entry and nothing else.
	if one := run(Config{Threads: 1}, tasks[:30]); one.MaxHist > 2 || one.Reclaimed < 28 {
		t.Fatalf("1 thread, 30 tasks: MaxHist = %d (want <= 2), Reclaimed = %d (want >= 28)", one.MaxHist, one.Reclaimed)
	}
	if two := run(Config{Threads: 2}, tasks); two.MaxHist > 2*lead {
		t.Fatalf("2 threads, %d tasks at most %d apart: MaxHist = %d", n, lead, two.MaxHist)
	}

	// Ordered, a straggler every 100 tasks. Each task stores to one of eight
	// counters, so no window of at most threads-1 predecessors conflicts and
	// every begin is the one the derivation counts.
	const threads = 4
	straggled := make([]adt.Task, n)
	for i := range straggled {
		tid, loc := i+1, state.Loc(fmt.Sprintf("c%d", i%8))
		straggled[i] = func(ex adt.Executor) error {
			for i%100 == 0 {
				if _, newest := activeRange(); newest >= tid+threads-1 {
					break
				}
				runtime.Gosched()
			}
			return adt.Counter{L: loc}.Store(ex, int64(tid))
		}
	}
	if ord := run(Config{Threads: threads, Ordered: true}, straggled); ord.MaxHist != threads+1 {
		t.Fatalf("ordered, %d threads, %d tasks with stragglers: MaxHist = %d, want exactly %d",
			threads, n, ord.MaxHist, threads+1)
	}
}

// pinnedKind is an operation kind allocated on its own, so a test can
// tell when no logged operation refers to it any more.
type pinnedKind struct {
	adt.OpKind
	_ [8]byte // not zero-size, so each allocation is its own object
}

// TestReclaimReleasesLogReferences checks that reclamation frees what a log
// referred to, now that the log's own storage is recycled instead: the
// dropped slots of the history's backing array are zeroed, and the pooled
// artifact keeps no event of its old log — slab, log and arenas are
// cleared before it is pooled — so what an operation only that log held
// refers to becomes collectable while the artifact sits in the pool.
func TestReclaimReleasesLogReferences(t *testing.T) {
	r := New(Config{}, initialState())
	collected := make(chan struct{}, 1)
	for ct := int64(2); ct <= 6; ct++ {
		kind := &pinnedKind{OpKind: adt.NumAdd}
		if ct == 2 {
			runtime.SetFinalizer(kind, func(*pinnedKind) { collected <- struct{}{} })
		}
		op := oplog.Op{K: kind, L: "work", N: ct}
		prep := conflict.Begin()
		prep.Append(oplog.NewEvent(op, int(ct), 0, op.AppendAccesses(nil, nil), nil))
		r.history = append(r.history, histEntry{commitTime: ct, task: int(ct), prep: prep})
	}
	r.clock.Store(7)
	r.published.Store(7) // all six commits fully published
	r.begins[1] = 4      // active transaction began at 4: entries ≤ 4 reclaimable
	backing := r.history

	r.histMu.Lock()
	recycle := r.reclaimLocked(nil)
	r.histMu.Unlock()

	if len(r.history) != 2 {
		t.Fatalf("kept %d entries, want 2 (commit times 5, 6)", len(r.history))
	}
	if got := atomic.LoadInt64(&r.stats.Reclaimed); got != 3 || len(recycle) != 3 {
		t.Fatalf("Reclaimed = %d, %d artifacts to recycle, want 3 and 3", got, len(recycle))
	}
	for i := len(r.history); i < len(backing); i++ {
		if backing[i].prep != nil {
			t.Errorf("dropped slot %d still references its prepared log", i)
		}
	}
	for _, p := range recycle {
		p.Recycle()
	}
	// The artifacts are in the pool, reachable; the first one's operation
	// kind must not be.
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
	}
	t.Fatalf("a reclaimed log's operation kind was never garbage-collected: the pooled artifact pins it")
}

func TestStatsRetryRatio(t *testing.T) {
	s := Stats{Tasks: 4, Retries: 6}
	if s.RetryRatio() != 1.5 {
		t.Errorf("RetryRatio = %v", s.RetryRatio())
	}
	if (Stats{}).RetryRatio() != 0 {
		t.Errorf("empty ratio must be 0")
	}
}

func TestManyTasksStress(t *testing.T) {
	var tasks []adt.Task
	var wantSum int64
	for i := 1; i <= 200; i++ {
		tasks = append(tasks, addTask(int64(i%7)))
		wantSum += int64(i % 7)
	}
	final, stats, err := Run(Config{Threads: 8}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := final.Get("work"); !v.EqualValue(state.Int(wantSum)) {
		t.Fatalf("work = %v, want %d (commits=%d retries=%d)", v, wantSum, stats.Commits, stats.Retries)
	}
	if stats.Commits != 200 {
		t.Fatalf("commits = %d", stats.Commits)
	}
	_ = fmt.Sprintf("%v", stats)
}

// explodingKind succeeds against the private state but fails when
// replayed onto the global state (its Apply errors on the second
// application).
type explodingKind struct{ fired *int32 }

func (e explodingKind) Apply(_ oplog.Op, st *state.State) (state.Value, error) {
	if atomic.AddInt32(e.fired, 1) > 1 {
		return nil, errors.New("replay exploded")
	}
	st.Set("boom", state.Int(1))
	return nil, nil
}

func (e explodingKind) AppendAccesses(_ oplog.Op, dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: oplog.PLoc{Loc: "boom"}, Write: true})
}
func (e explodingKind) Sym(oplog.Op) oplog.Sym {
	return oplog.Sym{Kind: "num.store", N: 1, Int: true}
}
func (e explodingKind) IsRead(oplog.Op) bool   { return false }
func (e explodingKind) String(oplog.Op) string { return "exploding" }

// TestReplayFailureSurfaces injects an op that fails during commit replay
// (its location is dirtied by a commit inside its window, see
// runExploding); the runtime must surface the error instead of wedging.
func TestReplayFailureSurfaces(t *testing.T) {
	_, _, _, err := runExploding(true)
	if err == nil || !strings.Contains(err.Error(), "replay exploded") {
		t.Fatalf("err = %v, want replay failure", err)
	}
}

// TestDisabledTracingAddsNoAllocs pins the observability contract from
// the runtime's side: the full instrumentation sequence attempt() wraps
// around Exec/validate/commit costs zero extra allocations when no
// tracer is configured (the zero obs.Ctx, exactly what runTask builds
// for a nil Config.Tracer).
func TestDisabledTracingAddsNoAllocs(t *testing.T) {
	st := state.New()
	st.Set("work", state.Int(0))
	op := adt.NumAddOp{L: "work", Delta: 1}.Op()
	newTx := func() *Tx {
		return &Tx{priv: st.Clone(), prep: conflict.Begin()}
	}

	txBase := newTx()
	base := testing.AllocsPerRun(500, func() {
		if _, err := txBase.Exec(op); err != nil {
			t.Fatal(err)
		}
	})

	txObs := newTx()
	var ctx obs.Ctx
	instrumented := testing.AllocsPerRun(500, func() {
		start := ctx.Now()
		ctx.Instant(obs.EvTxBegin)
		if _, err := txObs.Exec(op); err != nil {
			t.Fatal(err)
		}
		ctx.End(obs.EvTxRun, start)
		ctx.End(obs.EvTxValidate, start)
		ctx.Abort("write-set", "work", "")
		ctx.End(obs.EvTxCommit, start)
	})

	if instrumented != base {
		t.Fatalf("disabled tracing changed hot-path allocations: base=%.1f, instrumented=%.1f",
			base, instrumented)
	}
}

// TestPreparedSharingMatrix runs a contended mixed workload in both commit
// orders. Retries, lost commit races, and the incremental re-validation
// watermark all make concurrent validators read the same published
// projections; under -race this checks that sharing is sound and the
// outcome still matches the sequential oracle.
func TestPreparedSharingMatrix(t *testing.T) {
	var tasks []adt.Task
	for i := 1; i <= 12; i++ {
		switch i % 3 {
		case 0:
			tasks = append(tasks, addTask(int64(i)))
		case 1:
			tasks = append(tasks, identityTask(int64(i)))
		default:
			tasks = append(tasks, appendTask(int64(i)))
		}
	}
	want, err := RunSequential(initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	wantWork, _ := want.Get("work")
	wantLog, _ := want.Get("log")
	for _, ordered := range []bool{false, true} {
		cfg := Config{Threads: 4, Ordered: ordered}
		got, _, err := Run(cfg, initialState(), tasks)
		if err != nil {
			t.Fatalf("ordered=%v: %v", ordered, err)
		}
		if ordered {
			if !got.Equal(want) {
				t.Fatalf("ordered: %s != sequential %s", got, want)
			}
			continue
		}
		// Unordered: the append log is some serialization, but the
		// commutative counter and the log length are invariant.
		if v, _ := got.Get("work"); !v.EqualValue(wantWork) {
			t.Fatalf("unordered: work = %v, want %v", v, wantWork)
		}
		if v, _ := got.Get("log"); len(*v.(*state.IntList)) != len(*wantLog.(*state.IntList)) {
			t.Fatalf("unordered: log length %d, want %d",
				len(*v.(*state.IntList)), len(*wantLog.(*state.IntList)))
		}
	}
}

// commitCollector is a CommitSink that snapshots every delivery: task id,
// commit time, and a copy of the log's events (the contract forbids
// retaining the live slice or the events it points to: the runtime logs a
// later transaction into the same storage).
type commitCollector struct {
	mu      sync.Mutex
	commits []collectedCommit
}

type collectedCommit struct {
	task  int
	ctime int64
	log   oplog.Log
}

func (c *commitCollector) ObserveCommitted(task int, commitTime int64, log oplog.Log) {
	cp := make(oplog.Log, len(log))
	for i, e := range log {
		ev := *e
		cp[i] = &ev
	}
	c.mu.Lock()
	c.commits = append(c.commits, collectedCommit{task: task, ctime: commitTime, log: cp})
	c.mu.Unlock()
}

// TestCommitSinkReceivesCommits pins the CommitSink contract: one
// delivery per commit, unique commit times, and the delivered logs —
// replayed in commit-time order over the initial state — reconstruct the
// run's final state exactly.
func TestCommitSinkReceivesCommits(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		name := "unordered"
		if ordered {
			name = "ordered"
		}
		t.Run(name, func(t *testing.T) {
			var tasks []adt.Task
			for i := int64(1); i <= 16; i++ {
				tasks = append(tasks, addTask(i), appendTask(i))
			}
			sink := &commitCollector{}
			final, stats, err := Run(Config{
				Threads: 4, Ordered: ordered, Record: sink,
			}, initialState(), tasks)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(sink.commits)) != stats.Commits {
				t.Fatalf("sink saw %d commits, stats say %d", len(sink.commits), stats.Commits)
			}
			sort.Slice(sink.commits, func(i, j int) bool {
				return sink.commits[i].ctime < sink.commits[j].ctime
			})
			replayed := initialState()
			for i, c := range sink.commits {
				if i > 0 && c.ctime == sink.commits[i-1].ctime {
					t.Fatalf("duplicate commit time %d", c.ctime)
				}
				if c.task < 1 || c.task > len(tasks) {
					t.Fatalf("commit %d carries task id %d (want 1..%d)", i, c.task, len(tasks))
				}
				if ordered && c.task != i+1 {
					t.Fatalf("ordered run: commit %d from task %d", i, c.task)
				}
				if err := c.log.Replay(replayed); err != nil {
					t.Fatal(err)
				}
			}
			if !replayed.Equal(final) {
				t.Fatalf("sink logs replayed in commit order drifted:\n got %s\nwant %s",
					replayed, final)
			}
		})
	}
}

// TestDisabledRecordingAddsNoAllocs pins the record-capture contract from
// the runtime's side, mirroring TestDisabledTracingAddsNoAllocs: the
// nil-sink guard attempt() runs at every commit costs zero extra
// allocations when no CommitSink is configured.
func TestDisabledRecordingAddsNoAllocs(t *testing.T) {
	st := state.New()
	st.Set("work", state.Int(0))
	op := adt.NumAddOp{L: "work", Delta: 1}.Op()
	newTx := func() *Tx {
		return &Tx{priv: st.Clone(), prep: conflict.Begin()}
	}

	txBase := newTx()
	base := testing.AllocsPerRun(500, func() {
		if _, err := txBase.Exec(op); err != nil {
			t.Fatal(err)
		}
	})

	var cfg Config // Record is nil — the disabled configuration
	txRec := newTx()
	guarded := testing.AllocsPerRun(500, func() {
		if _, err := txRec.Exec(op); err != nil {
			t.Fatal(err)
		}
		if sink := cfg.Record; sink != nil {
			sink.ObserveCommitted(1, 1, txRec.prep.Log())
		}
	})

	if guarded != base {
		t.Fatalf("disabled recording changed hot-path allocations: base=%.1f, guarded=%.1f",
			base, guarded)
	}
}
