package stm

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/state"
)

// neverConflict clears every window. Valid only for task sets whose
// transactions all commute (equal stores, counter adds).
type neverConflict struct{}

func (neverConflict) DetectPrepared(obs.Ctx, *state.State, *conflict.Prepared, []*conflict.Prepared) conflict.Verdict {
	return conflict.Verdict{}
}
func (neverConflict) Name() string { return "never" }

// committedSignal is a CommitSink that closes ch when the given task
// commits.
type committedSignal struct {
	task int
	ch   chan struct{}
}

func (c committedSignal) ObserveCommitted(task int, _ int64, _ oplog.Log) {
	if task == c.task {
		close(c.ch)
	}
}

// runExploding runs a transaction whose one op fails on its second Apply
// (task 1) beside a transaction that stores the same value to the same
// location (task 2; equal stores commute). With overlap (runOverlapped),
// task 2's entry lands in task 1's window, "boom" is dirty, and the commit
// must re-apply the exploding op. Without, the tasks run one after the
// other and nothing is dirty.
func runExploding(overlap bool) (fired int32, final *state.State, stats Stats, err error) {
	st := state.New()
	st.Set("boom", state.Int(0))
	exploder := func(ex adt.Executor) error {
		_, err := ex.Exec(oplog.Op{K: explodingKind{fired: &fired}})
		return err
	}
	storer := func(ex adt.Executor) error { return adt.Counter{L: "boom"}.Store(ex, 1) }
	if overlap {
		final, stats, err = runOverlapped(st, exploder, storer)
	} else {
		final, stats, err = Run(Config{Threads: 1}, st, []adt.Task{exploder, storer})
	}
	return atomic.LoadInt32(&fired), final, stats, err
}

// TestReplayErrorDoesNotRetry pins the doomed-retry fix: a replay
// failure is terminal for the run, so the failing attempt must return
// through commitFailed without ever re-entering the retry loop. Before
// the fix the error was mapped to a lost commit race, so the attempt
// burned a full retry (re-execution, re-validation, backoff) before the
// worker noticed the run was dead. A commit replays only what a window
// entry wrote, so the exploding op's location is made dirty by a second
// transaction committing inside its window.
func TestReplayErrorDoesNotRetry(t *testing.T) {
	fired, _, stats, err := runExploding(true)
	if err == nil {
		t.Fatal("run succeeded, want replay failure")
	}
	if got := stats.Retries; got != 0 {
		t.Fatalf("Retries = %d after terminal replay error, want 0", got)
	}
	// One Apply in the task body, one in the replay that failed; a
	// doomed retry would have re-executed the body for a third.
	if fired != 2 {
		t.Fatalf("op applied %d times, want 2 (exec + failed replay)", fired)
	}
}

// TestCleanCommitAppliesOnce is the converse: when no commit overlapped
// the transaction's window its private values are installed as they are,
// so an op that would fail on a second Apply commits.
func TestCleanCommitAppliesOnce(t *testing.T) {
	fired, final, stats, err := runExploding(false)
	if err != nil {
		t.Fatalf("clean-window commit failed: %v", err)
	}
	if fired != 1 {
		t.Fatalf("op applied %d times, want 1 (exec only: nothing was dirty)", fired)
	}
	if v, _ := final.Get("boom"); !v.EqualValue(state.Int(1)) {
		t.Fatalf("boom = %v, want 1", v)
	}
	if stats.LocsReplayed != 0 || stats.LocsInstalled != 2 {
		t.Fatalf("installed/replayed = %d/%d, want 2/0", stats.LocsInstalled, stats.LocsReplayed)
	}
}

// TestMaxHistNeverExceedsBound: in ordered mode the history never holds
// more than Threads+1 entries (the derivation is at
// TestHistoryFollowsConcurrencyNotRunLength), with commits publishing
// concurrently and, here, windows that conflict: eight threads on four
// counters abort and retry, and a retry begins later, never earlier.
func TestMaxHistNeverExceedsBound(t *testing.T) {
	const threads, n, counters = 8, 64, 4
	st := state.New()
	for i := 0; i < counters; i++ {
		st.Set(state.Loc(string(rune('a'+i))), state.Int(0))
	}
	tasks := make([]adt.Task, n)
	for i := range tasks {
		loc := state.Loc(string(rune('a' + i%counters)))
		tasks[i] = func(ex adt.Executor) error {
			return adt.Counter{L: loc}.Add(ex, 1)
		}
	}
	final, stats, err := Run(Config{Threads: threads, Ordered: true}, st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxHist > threads+1 {
		t.Fatalf("MaxHist = %d exceeds Threads+1 = %d", stats.MaxHist, threads+1)
	}
	for i := 0; i < counters; i++ {
		loc := state.Loc(string(rune('a' + i)))
		if v, _ := final.Get(loc); !v.EqualValue(state.Int(n / counters)) {
			t.Fatalf("%s = %v, want %d", loc, v, n/counters)
		}
	}
}

// commitGauge observes replay concurrency through the CommitDelay hook,
// which runs with the committer's footprint stripes held: the peak
// number of transactions inside the hook at once is the peak number of
// commits whose replays could overlap.
type commitGauge struct {
	mu      sync.Mutex
	cur     int
	peak    int
	entered chan struct{} // closed once two commits are inside at once
}

func newCommitGauge() *commitGauge {
	return &commitGauge{entered: make(chan struct{})}
}

func (g *commitGauge) hook(int) {
	g.mu.Lock()
	g.cur++
	if g.cur > g.peak {
		g.peak = g.cur
	}
	if g.cur >= 2 {
		select {
		case <-g.entered:
		default:
			close(g.entered)
		}
	}
	g.mu.Unlock()
	time.Sleep(2 * time.Millisecond) // hold the stripes long enough to overlap
	g.mu.Lock()
	g.cur--
	g.mu.Unlock()
}

func (g *commitGauge) max() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// TestOverlappingCommitsNeverConcurrent drives many transactions that
// all write one location and asserts no two of them were ever inside the
// commit critical section together: same location means same stripe,
// and the stripe's write side is exclusive. This is the serializability
// half of the striped-commit contract.
func TestOverlappingCommitsNeverConcurrent(t *testing.T) {
	st := state.New()
	st.Set("hot", state.Int(0))
	g := newCommitGauge()
	tasks := make([]adt.Task, 24)
	for i := range tasks {
		tasks[i] = func(ex adt.Executor) error {
			return adt.Counter{L: "hot"}.Add(ex, 1)
		}
	}
	final, stats, err := Run(Config{
		Threads: 8,
		Hooks:   &Hooks{CommitDelay: g.hook},
	}, st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.max(); got != 1 {
		t.Fatalf("peak commit concurrency = %d for same-location commits, want 1", got)
	}
	if v, _ := final.Get("hot"); !v.EqualValue(state.Int(24)) {
		t.Fatalf("hot = %v, want 24", v)
	}
	if stats.Commits != 24 {
		t.Fatalf("Commits = %d, want 24", stats.Commits)
	}
}

// TestDisjointCommitsOverlap is the throughput half of the contract:
// transactions with disjoint footprints must be able to occupy the
// commit critical section concurrently. The hook parks each committer
// for 2ms with its stripes held, so with 8 workers over 16 disjoint
// locations two commits overlapping is guaranteed unless the path
// serializes them.
func TestDisjointCommitsOverlap(t *testing.T) {
	st := state.New()
	locs := make([]state.Loc, 16)
	for i := range locs {
		locs[i] = state.Loc(string(rune('a' + i)))
		st.Set(locs[i], state.Int(0))
	}
	g := newCommitGauge()
	tasks := make([]adt.Task, 64)
	for i := range tasks {
		loc := locs[i%len(locs)]
		tasks[i] = func(ex adt.Executor) error {
			return adt.Counter{L: loc}.Add(ex, 1)
		}
	}
	_, stats, err := Run(Config{
		Threads: 8,
		Hooks:   &Hooks{CommitDelay: g.hook},
	}, st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.entered:
	default:
		t.Fatalf("no two disjoint-footprint commits ever overlapped (peak = %d)", g.max())
	}
	if stats.Commits != 64 {
		t.Fatalf("Commits = %d, want 64", stats.Commits)
	}
}

// TestWaitPublishedFailureWakes checks the sequencer's waiters observe a
// run failure instead of parking forever on a watermark that will never
// be reached.
func TestWaitPublishedFailureWakes(t *testing.T) {
	r := New(Config{}, state.New())
	done := make(chan bool, 1)
	go func() { done <- r.waitPublished(99, make(chan struct{}, 1)) }()
	time.Sleep(5 * time.Millisecond)
	r.fail(errors.New("boom"))
	select {
	case ok := <-done:
		if ok {
			t.Fatal("waitPublished reported success after run failure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waitPublished did not wake on run failure")
	}
}

// TestParkedWaitAllocatesNothing: a wait the sequencer has to park —
// registered on the waiter list, then woken by the publication of its
// watermark — allocates nothing once the list has grown: the waiter
// brings its own wake channel and the list keeps its storage.
func TestParkedWaitAllocatesNothing(t *testing.T) {
	r := New(Config{}, state.New())
	wake := make(chan struct{}, 1)
	publish := make(chan int64)
	defer close(publish)
	go func() {
		for c := range publish {
			for parked := false; !parked; {
				r.seqMu.Lock()
				parked = len(r.seqWaiters) > 0
				r.seqMu.Unlock()
				runtime.Gosched()
			}
			r.advancePublished(c)
		}
	}()
	next := r.published.Load()
	allocs := testing.AllocsPerRun(100, func() {
		next++
		publish <- next
		if !r.waitPublished(next, wake) {
			t.Fatalf("the wait for %d failed", next)
		}
	})
	if allocs != 0 {
		t.Fatalf("a parked wait allocates %.0f objects, want none", allocs)
	}
}
