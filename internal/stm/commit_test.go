package stm

import (
	"context"
	"errors"
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
		_, err := ex.Exec(explodingOp{fired: &fired})
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

// TestCommitStallCountsOnlyRealWaits pins the stall-accounting fix:
// Stats.CommitStalls counts commits that actually parked on the history
// bound, not ones whose entry reclamation pass freed room immediately.
func TestCommitStallCountsOnlyRealWaits(t *testing.T) {
	t.Run("ImmediateReclaimIsNotAStall", func(t *testing.T) {
		r := New(Config{MaxHistory: 1}, state.New())
		r.clock.Store(5)
		r.published.Store(5)
		// One stale entry, no active transaction pinning it: the entry
		// reclamation pass frees the slot and the commit never waits.
		r.history = []histEntry{{commitTime: 3}}
		done := make(chan struct{})
		go func() { r.stallForHistory(0, 0, nil); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("stallForHistory blocked with reclaimable history")
		}
		if got := atomic.LoadInt64(&r.stats.CommitStalls); got != 0 {
			t.Fatalf("CommitStalls = %d for a stall that resolved without waiting, want 0", got)
		}
	})
	t.Run("RealWaitCountsOnce", func(t *testing.T) {
		r := New(Config{MaxHistory: 1}, state.New())
		r.clock.Store(5)
		r.published.Store(5)
		r.history = []histEntry{{commitTime: 3}}
		// An active transaction with begin 2 pins the entry; the stalling
		// commit must park until the pin is dropped.
		r.begins[9] = 2
		released := make(chan struct{})
		go func() {
			time.Sleep(20 * time.Millisecond)
			close(released)
			r.dropBegin(9)
		}()
		r.stallForHistory(0, 0, nil)
		select {
		case <-released:
		default:
			t.Fatal("stallForHistory returned before the pinning transaction departed")
		}
		// Parked (possibly through several spurious wakeups), but one
		// stalled commit is one stall.
		if got := atomic.LoadInt64(&r.stats.CommitStalls); got != 1 {
			t.Fatalf("CommitStalls = %d for one parked commit, want 1", got)
		}
	})
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

// TestSerialEscalationExcludesStripedCommits checks the demoted global
// lock still does its one remaining job: a serial escalation (write
// side) must not run while any striped commit holds the read side, so
// the gauge never sees a serial commit overlap an optimistic one.
func TestSerialEscalationExcludesStripedCommits(t *testing.T) {
	st := state.New()
	st.Set("hot", state.Int(0))
	g := newCommitGauge()
	var forced int32
	tasks := make([]adt.Task, 16)
	for i := range tasks {
		tasks[i] = func(ex adt.Executor) error {
			return adt.Counter{L: "hot"}.Add(ex, 1)
		}
	}
	_, _, err := Run(Config{
		Threads:        8,
		SerializeAfter: 2,
		Hooks: &Hooks{
			CommitDelay: g.hook,
			ForceAbort: func(task, attempt int) bool {
				// Starve a few tasks into escalation.
				return task <= 4 && attempt <= 2 && atomic.AddInt32(&forced, 1) > 0
			},
		},
	}, st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.max(); got != 1 {
		t.Fatalf("peak commit concurrency = %d with serial escalations in flight, want 1", got)
	}
}

// TestCommitStripesOne degenerates the stripe table to the paper's
// single commit lock and checks the protocol still serializes and
// completes — the configuration CI uses as the contention worst case.
func TestCommitStripesOne(t *testing.T) {
	st := state.New()
	for i := 0; i < 8; i++ {
		st.Set(state.Loc(string(rune('a'+i))), state.Int(0))
	}
	tasks := make([]adt.Task, 32)
	for i := range tasks {
		loc := state.Loc(string(rune('a' + i%8)))
		tasks[i] = func(ex adt.Executor) error {
			return adt.Counter{L: loc}.Add(ex, 1)
		}
	}
	final, stats, err := Run(Config{Threads: 4, CommitStripes: 1}, st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		loc := state.Loc(string(rune('a' + i)))
		if v, _ := final.Get(loc); !v.EqualValue(state.Int(4)) {
			t.Fatalf("%s = %v, want 4", loc, v)
		}
	}
	if stats.Commits != 32 {
		t.Fatalf("Commits = %d, want 32", stats.Commits)
	}
}

// TestMaxHistNeverExceedsBound pins the reservation accounting: with
// commits publishing concurrently, the recorded peak history length must
// still respect Config.MaxHistory exactly (reserved slots count toward
// the bound between ticket and append).
func TestMaxHistNeverExceedsBound(t *testing.T) {
	st := state.New()
	for i := 0; i < 8; i++ {
		st.Set(state.Loc(string(rune('a'+i))), state.Int(0))
	}
	tasks := make([]adt.Task, 64)
	for i := range tasks {
		loc := state.Loc(string(rune('a' + i%8)))
		tasks[i] = func(ex adt.Executor) error {
			return adt.Counter{L: loc}.Add(ex, 1)
		}
	}
	const bound = 3
	_, stats, err := Run(Config{Threads: 8, MaxHistory: bound}, st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxHist > bound {
		t.Fatalf("MaxHist = %d exceeds MaxHistory = %d", stats.MaxHist, bound)
	}
}

// TestMaxHistoryAllStalledMakesProgress is the regression for the
// all-stall deadlock: a transaction stalled on the history bound used to
// keep its begin watermark where it was, so when every active transaction
// was a staller each pinned the reclamation floor below the entries that
// filled the history and nobody was left to broadcast.
//
// The schedule is forced, not timed: WindowDelay holds every transaction
// between its (clean, empty-window) validation and its first commit
// attempt until all of them are there, so all n hold the initial begin.
// Their footprints are disjoint, so none aborts. The first `bound` commits
// fill the history with entries newer than every remaining begin; from
// then on every live transaction is parked at the bound. Before the fix
// that is a certain deadlock (the deadline turns it into a failure); with
// stallers draining it must finish.
func TestMaxHistoryAllStalledMakesProgress(t *testing.T) {
	const n = 4
	for _, bound := range []int{1, 2} { // at least two transactions left over to stall each other
		st := state.New()
		tasks := make([]adt.Task, n)
		for i := range tasks {
			loc := state.Loc(string(rune('a' + i)))
			st.Set(loc, state.Int(0))
			tasks[i] = func(ex adt.Executor) error {
				return adt.Counter{L: loc}.Add(ex, 1)
			}
		}
		var first [n + 1]sync.Once
		var validated sync.WaitGroup
		validated.Add(n)
		hooks := &Hooks{WindowDelay: func(task int) {
			first[task].Do(func() {
				validated.Done()
				validated.Wait()
			})
		}}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		final, stats, err := RunCtx(ctx, Config{Threads: n, MaxHistory: bound, Hooks: hooks}, st, tasks)
		cancel()
		if err != nil {
			t.Fatalf("MaxHistory=%d: every transaction parked at the bound and none woke: %v", bound, err)
		}
		if stats.Commits != n || stats.MaxHist > int64(bound) {
			t.Fatalf("MaxHistory=%d: commits = %d, MaxHist = %d", bound, stats.Commits, stats.MaxHist)
		}
		if stats.CommitStalls == 0 {
			t.Fatalf("MaxHistory=%d: no commit parked at the bound; the schedule is not the one under test", bound)
		}
		for _, l := range final.Locs() {
			if v, _ := final.Get(l); !v.EqualValue(state.Int(1)) {
				t.Fatalf("MaxHistory=%d: %s = %v, want 1", bound, l, v)
			}
		}
	}
}

// TestWaitPublishedFailureWakes checks the sequencer's waiters observe a
// run failure instead of parking forever on a watermark that will never
// be reached.
func TestWaitPublishedFailureWakes(t *testing.T) {
	r := New(Config{}, state.New())
	done := make(chan bool, 1)
	go func() { done <- r.waitPublished(99) }()
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
