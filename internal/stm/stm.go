// Package stm implements the JANUS parallelization protocol of Figure 7:
// optimistic transactions over privatized shared state, a global version
// clock, conflict detection against the committed history, log replay at
// commit, and ordered or unordered commit modes. Theorem 4.1's
// termination and serializability guarantees hold for any sound and
// valid detector.
//
// Privatization (§4.1 "Versioning") is copy-on-access: a transaction's
// private view faults each location in from the committed store on first
// touch, and relational values clone in O(1) because their versions share
// structure (internal/relation) — the improvement the paper proposes over
// its prototype's deep copy of the whole state at every begin. A begin
// therefore costs nothing up front and a transaction pays only for its
// footprint; it never blocks on the commit path.
//
// Commits are striped, not globally locked (see commit.go): a committer
// locks only the stripes covering its footprint, installs the values it
// already computed for the locations no concurrent commit wrote, replays
// into a private overlay only the rest, and publishes in commit-time
// order through a sequencer.
// Footprint-disjoint transactions commit concurrently; there is no global
// lock.
//
// A Runtime is the committed store together with that protocol, and it
// outlives its task sets: New opens it once over an initial state, and
// Runtime.Run runs one task set after another on what the last one
// committed, with one clock and one published watermark for its whole
// life. Until the next Run starts, Undo takes back everything a Run
// published; State reads the committed state out. The one-shot Run and
// Simulate are New, one run and State.
package stm

import (
	"context"
	"fmt"
	"hash/maphash"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/state"
)

// Backoff configures contention management between retry attempts: after
// an abort the task sleeps before re-executing, with an exponentially
// growing, jittered, bounded wait, instead of immediately re-running
// speculation that is statistically likely to abort again. The jitter is
// a pure function of (task, attempt) — not a shared PRNG — so two runs
// back off identically and tests are reproducible, while distinct tasks
// still decorrelate.
type Backoff struct {
	// Base is the wait ceiling after the first abort; 0 disables backoff
	// (the attempt retries immediately, the pre-contention-management
	// behavior).
	Base time.Duration
	// Max bounds the exponential growth; 0 means 64×Base.
	Max time.Duration
}

// wait returns the jittered sleep before retry number attempt (1-based),
// drawn from [ceil/2, ceil) where ceil = min(Base<<(attempt-1), Max).
func (b Backoff) wait(task, attempt int) time.Duration {
	if b.Base <= 0 || attempt <= 0 {
		return 0
	}
	max := b.Max
	if max <= 0 {
		max = 64 * b.Base
	}
	ceil := b.Base
	for i := 1; i < attempt && ceil < max; i++ {
		ceil *= 2
	}
	if ceil > max {
		ceil = max
	}
	half := ceil / 2
	if span := ceil - half; span > 0 {
		half += time.Duration(mix64(uint64(task)<<32^uint64(attempt)) % uint64(span))
	}
	return half
}

// mix64 is the splitmix64 finalizer: a full-avalanche hash used for
// deterministic backoff jitter.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hooks are optional fault-injection points for robustness testing (see
// internal/chaos). Production runs leave them nil; every call site costs
// one nil check. The runtime's guarantees (serializability, termination)
// must hold under any combination of injected faults — that invariant is
// what the chaos soak tests assert.
type Hooks struct {
	// ForceAbort is consulted once per validation pass with the
	// transaction's (task, attempt); returning true aborts the attempt as
	// if the detector had found a conflict (abort reason "injected").
	ForceAbort func(task, attempt int) bool
	// WindowDelay runs after a successful validation and before the
	// commit attempt, with no locks held — it widens the detect-to-commit
	// race window that the commit-time clock re-check guards.
	WindowDelay func(task int)
	// CommitDelay runs inside the commit critical section (footprint
	// stripes held, race screen passed), before anything replays — it
	// stretches the commit window every overlapping transaction races
	// against, and lets tests observe which commits replay concurrently.
	CommitDelay func(task int)
}

// Governor observes ordered mode's commit-turn waits, the one protocol
// signal a caller can time from outside the trace. Implementations must be
// safe for concurrent use; a nil Governor costs one branch per wait.
type Governor interface {
	// ObserveCommitWait records time spent waiting for a commit turn
	// (ordered mode).
	ObserveCommitWait(d time.Duration)
}

// CommitSink receives every committed transaction's operation log — the
// record half of record/replay (see internal/rec). ObserveCommitted runs
// inside the commit's publication turn, so calls arrive in strictly
// increasing commitTime order across all workers — the serialization
// order — and the logs replayed in that order over the initial state
// reconstruct the final state. The flip side of the ordering guarantee: a slow sink
// stalls every later commit, so implementations must return promptly.
// The log is the transaction's live storage, which the runtime reuses for
// a later transaction once the commit's history entry is reclaimed:
// implementations must retain neither the slice nor the *oplog.Event
// pointers in it past the call. A copy of the Event structs is theirs,
// operation and footprint included (both a one-location footprint and
// the operation are stored in the struct, so the copy's Accesses reads
// the copy), and what an event refers to — the operation's strings,
// Observed, a multi-location footprint's slice — is allocated per
// operation and may be kept. A nil sink costs one branch per commit.
type CommitSink interface {
	ObserveCommitted(task int, commitTime int64, log oplog.Log)
}

// Config parameterizes a Runtime.
type Config struct {
	// Threads is the worker count; 0 means GOMAXPROCS.
	Threads int
	// Ordered makes commits follow task order (runInOrder vs
	// runOutOfOrder in the prototype's API).
	Ordered bool
	// Detector is the conflict-detection algorithm; nil means write-set.
	Detector conflict.Detector
	// MaxRetries aborts the run when one task retries this many times
	// (a liveness guard for tests; 0 means unlimited, per Theorem 4.1
	// termination is guaranteed anyway).
	MaxRetries int
	// Tracer receives protocol events (task/transaction spans, abort
	// reasons, commit waits) when non-nil; see internal/obs. A nil
	// tracer costs a single branch per event site — the hot path does
	// not allocate.
	Tracer obs.Tracer
	// Backoff configures bounded exponential retry backoff with jitter
	// after aborts; the zero value retries immediately.
	Backoff Backoff
	// Hooks are fault-injection points (tests only); nil in production.
	Hooks *Hooks
	// Governor, when non-nil, receives every commit-turn wait; see the
	// Governor interface.
	Governor Governor
	// Record receives each committed transaction's op log (see
	// CommitSink); nil disables recording at the cost of one branch.
	Record CommitSink
}

// Stats reports a run's behavior. The JSON tags are the RunReport schema
// (internal/bench); every field must carry one so new counters cannot
// silently drop out of `-json` output (asserted by a schema test).
type Stats struct {
	Tasks     int   `json:"tasks"`
	Commits   int64 `json:"commits"`
	Retries   int64 `json:"retries"`   // aborted execution attempts
	Conflicts int64 `json:"conflicts"` // conflict detections that failed
	// Reclaimed counts history entries dropped while the run was going,
	// because every active transaction had begun after them. (What is left
	// when the run ends is returned to the pool too, uncounted.)
	Reclaimed int64 `json:"reclaimed"`
	// MaxHist is the peak committed-history length: the longest window any
	// transaction of the run could have had to validate against, plus the
	// entry being published. It follows concurrency, not run length.
	MaxHist int64 `json:"max_hist"`
	// BackoffWaits counts backoff sleeps taken between retry attempts.
	BackoffWaits int64 `json:"backoff_waits"`
	// Escalations is always 0: the runtime has one commit path and no
	// serial mode (a task's retries are bounded by the other tasks'
	// commits, Theorem 4.1). The field stays for the benchmark's
	// stm.escalations column until that column goes (ROADMAP 8(a)).
	Escalations int64 `json:"escalations"`
	// ValidationsSkipped counts committed-history entries the incremental
	// detect/commit loop did NOT re-validate because a previous pass of
	// the same attempt had already cleared them (committed logs are
	// immutable, so per-entry verdicts are final): the rework the
	// pre-watermark loop would have paid after every lost commit race.
	ValidationsSkipped int64 `json:"validations_skipped"`
	// LocsInstalled counts written locations published straight from the
	// transaction's private state: no entry of its validated window wrote
	// them, so the private value already was the committed one. A
	// footprint-disjoint run installs everything.
	LocsInstalled int64 `json:"locs_installed"`
	// LocsReplayed counts written locations whose published value came
	// from re-applying the log at commit because a window entry had
	// written them (or because the log forced Figure 7's full replay).
	LocsReplayed int64 `json:"locs_replayed"`
	// AbortReasons breaks Conflicts down by the detector check that
	// failed (reason name → count); nil when no conflicts occurred.
	AbortReasons map[string]int64 `json:"abort_reasons,omitempty"`
}

// RetryRatio returns the Figure 10 metric: retries per transaction.
func (s Stats) RetryRatio() float64 {
	if s.Tasks == 0 {
		return 0
	}
	return float64(s.Retries) / float64(s.Tasks)
}

// histEntry is one committed transaction's contribution to the history:
// the artifact the transaction logged into and validated with, on loan to
// every concurrent detector (read-only) until reclamation takes it back.
type histEntry struct {
	commitTime int64 // the commit's sequencer ticket
	task       int
	prep       *conflict.Prepared
}

// Runtime is one committed store and the protocol that runs task sets on
// it. It is opened once over an initial state (New) and runs any number of
// task sets, one at a time (Run): Runs of one Runtime must not overlap, and
// Undo and State are called between them.
type Runtime struct {
	cfg      Config
	detector conflict.Detector

	// clock is the commit-time ticket counter. It starts at 1 and runs on
	// across Runs, so the commit times of a Runtime's whole life are one
	// serialization order (a recorder sorts by them).
	clock atomic.Int64

	// published is the commit sequencer's watermark: the highest commit
	// time whose publication (version merge + history append) has
	// completed. Begin snapshots, fetch watermarks, ordered commit
	// turns, and the reclamation floor all read published, never clock —
	// tickets run ahead of visible history.
	published atomic.Int64
	seqMu     sync.Mutex
	// seqWaiters lists the goroutines parked on an awaited watermark
	// value (waitPublished); published advances by exactly one per
	// publication, so each advance wakes precisely the waiters
	// registered for the new value.
	seqWaiters []seqWaiter

	// stripes is the commit-path location lock table (commit.go).
	stripes [commitStripes]sync.RWMutex

	// base and over form the committed shared state (see store.go): a
	// frozen table of per-location atomic value boxes for the initial
	// locations, plus an insert-only sharded table for locations created
	// mid-run. Transactions fault from it without blocking on a commit;
	// publication merges written locations into it in commit order, one
	// atomic store each.
	base map[state.Loc]*locBox
	over overflow

	histMu  sync.Mutex
	history []histEntry
	// begins tracks active transactions' begin times for reclamation.
	begins map[int]int64

	tracer obs.Tracer

	stats        Stats
	abortReasons [conflict.NumReasons]int64

	// installCheck, when set (tests only), sees every commit's install
	// plan at the point it is final: stripes held, replay done, nothing
	// published yet.
	installCheck func(tx *Tx, foot []conflict.FootprintLoc)

	// turn0 is the published watermark when the current Run started:
	// ordered task tid's commit turn comes when published reaches
	// turn0+tid-1 (turn).
	turn0 int64

	// The current Run's failure: the first error, and done, closed with it
	// (it wakes ordered waiters and backoff sleeps). runID numbers the Runs;
	// errMu orders a failure against the start of the next Run, so that a
	// context watcher which fires after its Run has ended cannot fail the
	// next one (failRun).
	errMu sync.Mutex
	runID uint64
	err   error
	done  chan struct{}

	// epoch numbers the Runs from 2 (New's 1 is no Run's, and boxes start
	// at 0): the boxes the current Run published to carry it, with the
	// value each held before (storeSet, Undo).
	epoch uint64

	// The current Run's task set and the cursor its workers take task
	// indices from.
	tasks []adt.Task
	next  atomic.Int64
	wg    sync.WaitGroup
}

// New opens a runtime over a deep copy of the initial state.
func New(cfg Config, initial *state.State) *Runtime {
	if cfg.Detector == nil {
		cfg.Detector = conflict.NewWriteSet()
	}
	if cfg.Threads <= 0 {
		cfg.Threads = runtime.GOMAXPROCS(0)
	}
	r := &Runtime{
		cfg:      cfg,
		detector: cfg.Detector,
		tracer:   cfg.Tracer,
		begins:   make(map[int]int64),
		done:     make(chan struct{}),
	}
	r.clock.Store(1)
	r.published.Store(1)
	r.turn0, r.epoch = 1, 1
	r.base = make(map[state.Loc]*locBox, initial.Len())
	boxes := make([]locBox, initial.Len())
	vals := make([]state.Value, initial.Len())
	i := 0
	initial.Range(func(loc state.Loc, v state.Value) bool {
		vals[i] = state.Copy(v)
		boxes[i].v.Store(&vals[i])
		r.base[loc] = &boxes[i]
		i++
		return true
	})
	r.over.seed = maphash.MakeSeed()
	return r
}

// Run executes the tasks to completion and returns the final shared state
// and run statistics. It is DOPARALLEL of Figure 7.
func Run(cfg Config, initial *state.State, tasks []adt.Task) (*state.State, Stats, error) {
	return RunCtx(context.Background(), cfg, initial, tasks)
}

// RunCtx is Run with cancellation (see Runtime.Run): New, one Run, and
// the committed state.
func RunCtx(ctx context.Context, cfg Config, initial *state.State, tasks []adt.Task) (*state.State, Stats, error) {
	r := New(cfg, initial)
	stats, err := r.Run(ctx, tasks)
	if err != nil {
		return nil, stats, err
	}
	return r.State(), stats, nil
}

// Run executes the tasks to completion on the committed store, starting
// from what the last Run left, and returns the run statistics. When ctx is
// canceled or its deadline passes, in-flight transactions abort at their
// next protocol step (attempt boundary, validation loop, backoff sleep),
// ordered-mode waiters are woken, the workers drain cleanly, and the
// context's cause is returned (errors.Is against
// context.Canceled/DeadlineExceeded works). A task body that never returns
// cannot be preempted — Go offers no goroutine kill — so cancellation
// latency is bounded by the longest single task execution.
//
// A failed Run leaves whatever its commits published in the store; Undo
// takes it back.
func (r *Runtime) Run(ctx context.Context, tasks []adt.Task) (Stats, error) {
	id := r.start(len(tasks))
	if ctx.Done() != nil {
		// An already-expired context fails synchronously: AfterFunc runs
		// its callback on a fresh goroutine, which a fast run could
		// otherwise race past.
		if ctx.Err() != nil {
			return r.statsSnapshot(), fmt.Errorf("stm: run canceled: %w", context.Cause(ctx))
		}
		stop := context.AfterFunc(ctx, func() {
			r.failRun(id, fmt.Errorf("stm: run canceled: %w", context.Cause(ctx)))
		})
		defer stop()
	}
	r.tasks = tasks
	for w := 0; w < min(r.cfg.Threads, len(tasks)); w++ {
		r.wg.Add(1)
		go r.worker(w)
	}
	r.wg.Wait()
	r.tasks = nil
	r.end()
	return r.statsSnapshot(), r.runErr()
}

// start begins a Run of n tasks and returns its id: it drops what the last
// Run left (its failure, what Undo would take back, tickets it took but
// never published, waiters it never woke, begins it never dropped) and
// counts the new Run's turns from the published watermark.
func (r *Runtime) start(n int) uint64 {
	r.errMu.Lock()
	r.runID++
	if r.err != nil {
		r.err = nil
		r.done = make(chan struct{})
	}
	id := r.runID
	r.errMu.Unlock()

	r.epoch++
	r.turn0 = r.published.Load()
	r.clock.Store(r.turn0)
	clear(r.seqWaiters)
	r.seqWaiters = r.seqWaiters[:0]
	clear(r.begins)
	r.next.Store(0)
	r.stats = Stats{Tasks: n}
	r.abortReasons = [conflict.NumReasons]int64{}
	return id
}

// end closes a Run: no transaction is left, so what remains of the history
// goes back to the pool. A Run is often shorter than a reclamation window
// (a server batch), so this is where most of its artifacts return.
func (r *Runtime) end() {
	for _, h := range r.history {
		h.prep.Recycle()
	}
	clear(r.history)
	r.history = r.history[:0]
}

// worker runs tasks off the Run's cursor until none is left or the Run
// fails.
func (r *Runtime) worker(worker int) {
	defer r.wg.Done()
	// Backstop: task-body panics are recovered in runTaskBody with the
	// task's identity; this catches panics in the protocol code itself so
	// a bug here fails the run (waking ordered-mode waiters via the done
	// channel) rather than killing the process with peers blocked in
	// waitPublished.
	current := 0
	defer func() {
		if p := recover(); p != nil {
			r.fail(fmt.Errorf("stm: worker %d: %w",
				worker, &PanicError{Task: current, Value: p, Stack: debug.Stack()}))
		}
	}()
	for {
		idx := int(r.next.Add(1)) - 1
		if idx >= len(r.tasks) || r.failed() {
			return
		}
		current = idx + 1
		r.runTask(r.tasks[idx], idx+1, worker)
	}
}

// Undo takes back every publication of the last Run: each location it
// wrote gets back the value it held before the Run, and a location it
// created is unbound again. It is valid until the next Run starts; a
// second Undo is a no-op. The clock and the watermark are not rewound.
// It visits every location of the store, which only a failed Run pays;
// publication pays no more than a compare per written location.
func (r *Runtime) Undo() {
	r.eachBox(func(_ state.Loc, b *locBox) bool {
		if b.epoch == r.epoch {
			b.v.Store(b.prev)
		}
		return true
	})
}

// State returns the committed state. A mutable value belongs to the
// state it is bound in (state.Value), and the result's operations mutate
// its relations and lists in place, so every one of them is copied
// (state.Copy: a relation's header in O(1), a list's elements); the
// immutable scalars are shared. Nothing the result holds is anything the
// runtime can still change, nor the other way round. Call it between Runs.
// The result is sized for every box of the store, bound or not, so it is
// built without growing.
func (r *Runtime) State() *state.State {
	n := len(r.base)
	for i := range r.over.shards {
		n += len(r.over.shards[i].m)
	}
	out := state.NewSized(n)
	r.Range(func(l state.Loc, v state.Value) bool {
		out.Set(l, state.Copy(v))
		return true
	})
	return out
}

// RetryLimitError is what a run fails with when one transaction exhausts
// Config.MaxRetries: the task id and the retry count it hit. It is
// distinct from a task-body error — the task itself never failed, the
// liveness guard cut off its speculation — so callers (status mapping in
// a serving layer, retry policies) can treat it as retryable congestion
// rather than a permanent workload fault. Unwrap it with errors.As.
type RetryLimitError struct {
	Task    int // transaction id
	Retries int // aborted attempts when the guard fired (== Config.MaxRetries)
}

// Error implements error, preserving the historical message shape.
func (e *RetryLimitError) Error() string {
	return fmt.Sprintf("task %d exceeded %d retries", e.Task, e.Retries)
}

// PanicError is what a recovered task panic converts to: the task id, the
// panic value, and the goroutine stack captured at the panic site. One
// panicking task fails the run with this error instead of tearing down
// the whole process.
type PanicError struct {
	Task  int
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("task %d panicked: %v", e.Task, e.Value)
}

// runTaskBody executes one task body, converting a panic into a
// *PanicError. The recover runs on the worker's goroutine at panic time,
// so the captured stack names the panic site inside the task.
func runTaskBody(task adt.Task, ex adt.Executor, tid int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Task: tid, Value: p, Stack: debug.Stack()}
		}
	}()
	return task(ex)
}

// RunSequential executes the tasks one at a time without synchronization,
// the paper's sequential baseline. The initial state is not mutated. Task
// panics are recovered and returned as *PanicError, matching Run.
func RunSequential(initial *state.State, tasks []adt.Task) (*state.State, error) {
	st := initial.Clone()
	if err := ApplySequential(st, tasks); err != nil {
		return nil, err
	}
	return st, nil
}

// ApplySequential is RunSequential on st itself, for a caller that owns
// st and wants no copy of it: the tasks mutate st in place, and a failed
// task leaves it with the operations that ran before.
func ApplySequential(st *state.State, tasks []adt.Task) error {
	ex := &directExec{st: st}
	for i, t := range tasks {
		if err := runTaskBody(t, ex, i+1); err != nil {
			return fmt.Errorf("stm: sequential task %d: %w", i+1, err)
		}
	}
	return nil
}

// directExec applies ops with no logging or synchronization.
type directExec struct{ st *state.State }

// Exec implements adt.Executor.
func (d *directExec) Exec(op oplog.Op) (state.Value, error) { return op.Apply(d.st) }

// fail fails the current Run with err, unless it already failed.
func (r *Runtime) fail(err error) {
	r.errMu.Lock()
	r.failLocked(err)
	r.errMu.Unlock()
}

// failRun fails Run id with err, if it is still the current one.
func (r *Runtime) failRun(id uint64, err error) {
	r.errMu.Lock()
	if id == r.runID {
		r.failLocked(err)
	}
	r.errMu.Unlock()
}

func (r *Runtime) failLocked(err error) {
	if r.err == nil {
		r.err = err
		close(r.done) // wakes ordered waiters and backoff sleeps
	}
}

func (r *Runtime) failed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// runErr returns the failure, if any. The read of r.err is ordered by the
// done-channel close (fail writes err, then closes), which matters now
// that fail can be called from a context watcher goroutine the WaitGroup
// never joins.
func (r *Runtime) runErr() error {
	select {
	case <-r.done:
		return r.err
	default:
		return nil
	}
}

func (r *Runtime) statsSnapshot() Stats {
	s := Stats{
		Tasks:        r.stats.Tasks,
		Commits:      atomic.LoadInt64(&r.stats.Commits),
		Retries:      atomic.LoadInt64(&r.stats.Retries),
		Conflicts:    atomic.LoadInt64(&r.stats.Conflicts),
		Reclaimed:    atomic.LoadInt64(&r.stats.Reclaimed),
		MaxHist:      atomic.LoadInt64(&r.stats.MaxHist),
		BackoffWaits: atomic.LoadInt64(&r.stats.BackoffWaits),

		ValidationsSkipped: atomic.LoadInt64(&r.stats.ValidationsSkipped),
		LocsInstalled:      atomic.LoadInt64(&r.stats.LocsInstalled),
		LocsReplayed:       atomic.LoadInt64(&r.stats.LocsReplayed),
	}
	for reason := conflict.Reason(1); reason < conflict.NumReasons; reason++ {
		if n := atomic.LoadInt64(&r.abortReasons[reason]); n > 0 {
			if s.AbortReasons == nil {
				s.AbortReasons = make(map[string]int64)
			}
			s.AbortReasons[reason.String()] = n
		}
	}
	return s
}

// runTask is RUNTASK of Figure 7: retry until commit. The whole service
// time (all attempts through the successful commit) is traced as one
// EvTask span on the worker's lane. Aborted attempts back off with
// bounded exponential jitter (Config.Backoff). There is no serial mode:
// an attempt aborts only on a window entry that committed after its
// begin, and the retry begins after that entry, so each retry is charged
// to a distinct commit by another task and a task retries at most
// tasks−1 times (Theorem 4.1) under a sound detector.
func (r *Runtime) runTask(task adt.Task, tid, worker int) {
	ctx := obs.Ctx{T: r.tracer, Worker: int32(worker), Task: int32(tid)}
	start := ctx.Now()
	retries := 0
	for {
		if r.failed() {
			return
		}
		ctx.Attempt = int32(retries + 1)
		committed, err := r.attempt(ctx, task, tid)
		if err != nil {
			r.fail(fmt.Errorf("stm: task %d: %w", tid, err))
			return
		}
		if committed {
			r.noteCommit()
			ctx.End(obs.EvTask, start)
			return
		}
		if r.failed() {
			return
		}
		retries++
		if !r.noteRetry(tid, retries) {
			return
		}
		if wait := r.cfg.Backoff.wait(tid, retries); wait > 0 {
			atomic.AddInt64(&r.stats.BackoffWaits, 1)
			waitStart := ctx.Now()
			if !r.sleep(wait) {
				return // run failed or canceled mid-backoff
			}
			ctx.End(obs.EvTxBackoff, waitStart)
		}
	}
}

// sleep blocks for d or until the run fails/cancels, reporting whether
// the full wait elapsed.
func (r *Runtime) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.done:
		return false
	}
}

// noteCommit counts one committed transaction.
func (r *Runtime) noteCommit() { atomic.AddInt64(&r.stats.Commits, 1) }

// noteRetry counts one aborted attempt, the task's retries-th. When that
// exhausts Config.MaxRetries it fails the run and reports false.
func (r *Runtime) noteRetry(tid, retries int) bool {
	atomic.AddInt64(&r.stats.Retries, 1)
	if r.cfg.MaxRetries > 0 && retries >= r.cfg.MaxRetries {
		r.fail(fmt.Errorf("stm: %w", &RetryLimitError{Task: tid, Retries: retries}))
		return false
	}
	return true
}

// Tx is a running transaction; it implements adt.Executor by applying ops
// to the privatized state and logging them. A Tx is a shell a transaction
// moves into (newTx) and out of (release): the views with their maps and
// fault closures, the window and the commit scratch stay with the shell
// for the next transaction, on this runtime or a later one.
type Tx struct {
	r     *Runtime // whose store the views fault from; nil while pooled
	tid   int
	begin int64
	priv  *state.State // the privatized shared state of Figure 7

	// prep is the artifact the transaction logs into (conflict.Begin): the
	// log's storage belongs to it, not to the shell, because a committed
	// log outlives its transaction in the history.
	prep *conflict.Prepared

	// acc is the footprint buffer Exec hands each op: an op's footprint is
	// computed into it, and the event keeps a copy (oplog.NewEvent).
	acc []oplog.Access

	// window is the committed history this attempt has fetched, (begin,
	// seen] in commit order: what finish detects against and what commit
	// joins the footprint with.
	window []*conflict.Prepared

	// Commit-path scratch (commit.go): the sorted stripe set of the
	// attempt's footprint, planned per commit attempt.
	stripes    []stripeRef
	stripesBuf [8]stripeRef

	// The commit's install plan (commit.go), aligned with the footprint:
	// dirty[i] marks location i as written by an entry of the validated
	// window, and overlay holds the dirty locations' replayed values (nil
	// when nothing was dirty; otherwise replay, the shell's own overlay
	// state).
	dirty       []bool
	dirtyBuf    [8]bool
	overlay     *state.State
	replay      *state.State
	dirtyLocBuf []state.Loc

	// wake is the channel the sequencer wakes this shell's waits on
	// (waitPublished), made once per shell.
	wake chan struct{}
}

// txPool holds transaction shells between transactions. Like the artifact
// pool it is package-wide: a shell outlives the runtime it last served.
var txPool = sync.Pool{New: func() any {
	t := new(Tx)
	// One fault closure per view and shell, not per transaction: they read
	// the store of whichever runtime the shell currently serves.
	fault := func(l state.Loc) (state.Value, bool) { return t.r.storeGet(l) }
	t.priv = state.NewFaulting(fault)
	t.replay = state.NewFaulting(fault)
	t.stripes = t.stripesBuf[:0]
	t.dirty = t.dirtyBuf[:0]
	t.wake = make(chan struct{}, 1)
	return t
}}

// maxShellLocs bounds the locations a pooled shell's views may have held,
// and its footprint buffer: clearing a map costs in proportion to its
// largest size ever, so one outlier transaction's shell is left to the
// collector instead of taxing every transaction after it.
const maxShellLocs = 1 << 14

// release ends the transaction's use of its shell and pools it. Callers
// are the places a transaction ends for good — attempt after finish and
// execute's body-error path — never the halves themselves: the drivers
// that call execute and finish directly (sim.go, the schedule explorer)
// read the window, the stripes and the install plan afterwards.
// The artifact is not the shell's to return: finish recycles or publishes
// it. Resetting the views unbinds the values a commit moved into the
// store (mergeVersion), so the shell's next transaction faults copies; a
// shell too large to pool is dropped, and nothing runs in it again.
func (t *Tx) release() {
	if t.priv.Len() > maxShellLocs || t.replay.Len() > maxShellLocs || cap(t.acc) > maxShellLocs {
		return
	}
	t.priv.Reset()
	t.replay.Reset()
	clear(t.window)
	t.window = t.window[:0]
	t.r, t.prep, t.overlay = nil, nil, nil
	txPool.Put(t)
}

// Exec implements adt.Executor.
func (t *Tx) Exec(op oplog.Op) (state.Value, error) {
	t.acc = op.AppendAccesses(t.acc[:0], t.priv)
	v, err := op.Apply(t.priv)
	if err != nil {
		return nil, err
	}
	t.prep.Append(oplog.NewEvent(op, t.tid, t.prep.Ops(), t.acc, v))
	return v, nil
}

// attempt executes one transaction attempt: its two halves back to back.
// The split is the seam the discrete-event driver (sim.go) and the
// schedule explorer schedule around; neither half knows who calls it.
func (r *Runtime) attempt(ctx obs.Ctx, task adt.Task, tid int) (committed bool, err error) {
	tx, err := r.execute(ctx, task, tid)
	if err != nil {
		return false, err
	}
	committed = r.finish(ctx, tx)
	tx.release()
	return committed, nil
}

// execute is an attempt's first half: CREATETRANSACTION (the begin
// watermark), RUNSEQUENTIAL (the task body against the private view), and
// the preparation of the resulting log. A body error ends the attempt
// here; otherwise the caller owes the transaction a finish.
func (r *Runtime) execute(ctx obs.Ctx, task adt.Task, tid int) (*Tx, error) {
	tx := r.createTransaction(tid)
	ctx.Instant(obs.EvTxBegin)

	runStart := ctx.Now()
	if err := runTaskBody(task, tx, tid); err != nil {
		r.dropBegin(tid)
		tx.prep.Recycle()
		tx.release()
		return nil, err
	}
	ctx.End(obs.EvTxRun, runStart)

	// The artifact the transaction logged into (tx.prep) is prepared once
	// per attempt — not once per detection call — so every pass of the
	// detect/commit loop in finish reuses the same decomposition and
	// memoized shapes. If the commit succeeds, the same artifact becomes the
	// history entry, making the commit-time preparation free; otherwise the
	// attempt is the artifact's only owner and it goes back to the pool.
	return tx, nil
}

// finish is an attempt's second half: the ordered wait, then the
// fetch-window/detect/commit loop, until the transaction commits (true)
// or aborts (false: a conflict, or the run failed). Either way the
// transaction's begin watermark is dropped — by its publication, or on the
// way out — and an unpublished artifact recycled, log included, so after an
// abort the transaction has no log.
func (r *Runtime) finish(ctx obs.Ctx, tx *Tx) (committed bool) {
	tid, prep := tx.tid, tx.prep
	published := false
	defer func() {
		if !published {
			r.dropBegin(tid)
			prep.Recycle()
		}
	}()

	// The conflict history grows monotonically while the transaction
	// retries the detect/commit loop (reclamation never touches entries
	// newer than an active transaction's begin — which is also why nothing
	// in the window can be recycled under it), so each iteration fetches
	// into tx.window only the entries that committed since the previous
	// pass's snapshot instead of recopying the whole (begin, now] window.
	seen := tx.begin

	// validated is the incremental watermark: tx.window[:validated] passed
	// a clean detection earlier in this attempt. Committed logs are
	// immutable and per-entry verdicts compose (see conflict.Detector),
	// so those verdicts are final — after a lost commit race only the
	// entries that committed since the last clean pass are checked.
	validated := 0

	if r.cfg.Ordered {
		r.waitTurn(ctx, tx)
		if r.failed() {
			return false
		}
	}

	for {
		if r.failed() {
			return false
		}
		now := r.published.Load()
		if now > seen {
			tx.window = r.committedHistory(tx.window, seen, now)
			seen = now
		}
		if h := r.cfg.Hooks; h != nil && h.ForceAbort != nil && h.ForceAbort(tid, int(ctx.Attempt)) {
			atomic.AddInt64(&r.abortReasons[conflict.ReasonInjected], 1)
			ctx.Abort(conflict.ReasonInjected.String(), "", "")
			return false
		}
		valStart := ctx.Now()
		if validated > 0 {
			atomic.AddInt64(&r.stats.ValidationsSkipped, int64(validated))
		}
		verdict := r.detector.DetectPrepared(ctx, nil, prep, tx.window[validated:])
		ctx.End(obs.EvTxValidate, valStart)
		if !verdict.Conflict {
			validated = len(tx.window)
		}
		if verdict.Conflict {
			atomic.AddInt64(&r.stats.Conflicts, 1)
			atomic.AddInt64(&r.abortReasons[verdict.Reason], 1)
			if ctx.Enabled() {
				detail := ""
				if verdict.ShapeT != "" || verdict.ShapeC != "" {
					detail = "[" + verdict.ShapeT + "] vs [" + verdict.ShapeC + "]"
				}
				ctx.Abort(verdict.Reason.String(), verdict.P.String(), detail)
			}
			return false // abort; RUNTASK retries from scratch
		}
		if h := r.cfg.Hooks; h != nil && h.WindowDelay != nil {
			h.WindowDelay(tid)
		}
		commitStart := ctx.Now()
		res := r.commit(ctx, tx, seen)
		switch res {
		case commitOK:
			published = true
			ctx.End(obs.EvTxCommit, commitStart)
			return true
		case commitFailed:
			// The run is dead (replay error or external failure): the
			// attempt is doomed, so return without re-entering the retry
			// loop — a doomed retry would burn a backoff sleep and a
			// validation pass before noticing.
			return false
		default: // commitRace
			// History evolved between detection and commit: re-detect.
			// The lost race is commit-queue contention, not a conflict.
			ctx.End(obs.EvCommitWait, commitStart)
		}
	}
}

// createTransaction is CREATETRANSACTION of Figure 7, without the
// paper's read lock and without its copy: the private view starts empty
// and faults locations from the committed store lock-free, so begin never
// blocks on the commit path and costs the same whatever the state's size.
func (r *Runtime) createTransaction(tid int) *Tx {
	// Read the begin watermark and register it under histMu in one step:
	// once begins[tid] is visible, reclamation cannot drop entries newer
	// than begin, so the fetch loop is guaranteed to see everything the
	// snapshot missed. Reading published before registering would let a
	// concurrent publish-and-reclaim drop an entry this transaction
	// still needs to validate against.
	r.histMu.Lock()
	begin := r.published.Load()
	r.begins[tid] = begin
	r.histMu.Unlock()
	return r.newTx(tid, begin)
}

// newTx builds a transaction whose private view privatizes the committed
// store. Faults read the store live (per-location, after begin was
// fixed), so every observed value reflects a commit at some published
// time ≥ what begin guarantees; values from commits past the
// validated fetch watermark are screened or re-detected at commit (see
// store.go), never silently trusted.
//
// The transaction moves into a pooled shell and takes a pooled artifact to
// log into; in the steady state neither allocates, and the log's capacity
// is whatever the artifact's last transaction needed.
func (r *Runtime) newTx(tid int, begin int64) *Tx {
	tx := txPool.Get().(*Tx)
	tx.r, tx.tid, tx.begin = r, tid, begin
	tx.prep = conflict.Begin()
	return tx
}

func (r *Runtime) dropBegin(tid int) {
	r.histMu.Lock()
	delete(r.begins, tid)
	r.histMu.Unlock()
}

// waitTurn is ordered mode's commit turn: it blocks until every preceding
// task has published (published == turn(tid)) or the run fails, reporting the
// wait to the tracer and the governor. The waiter registers on the commit
// sequencer's waiter list and is woken by its predecessor's publication
// alone — no broadcast storm across all waiting tasks.
func (r *Runtime) waitTurn(ctx obs.Ctx, tx *Tx) {
	waitStart := ctx.Now()
	var govStart time.Time
	if r.cfg.Governor != nil {
		govStart = time.Now()
	}
	r.waitPublished(r.turn(tx.tid), tx.wake)
	if gov := r.cfg.Governor; gov != nil {
		gov.ObserveCommitWait(time.Since(govStart))
	}
	ctx.End(obs.EvCommitWait, waitStart)
}

// turn is the published watermark at which ordered task tid of the
// current Run may commit: when every task before it has published.
func (r *Runtime) turn(tid int) int64 { return r.turn0 + int64(tid) - 1 }

// committedHistory appends to dst the prepared artifacts of transactions
// that committed in (begin, now], one per transaction in commit order —
// GETCOMMITTEDHISTORY of Figure 7, appending into the caller's window
// buffer instead of allocating a fresh slice per fetch. now must be a
// published watermark (every entry at or below it has been appended).
// Commit times are strictly increasing in history order (publication
// runs in ticket order, and reclamation only drops a prefix), so the
// window is found by binary search instead of scanning the whole
// history.
func (r *Runtime) committedHistory(dst []*conflict.Prepared, begin, now int64) []*conflict.Prepared {
	r.histMu.Lock()
	defer r.histMu.Unlock()
	lo := searchHist(r.history, begin)
	hi := searchHist(r.history, now)
	for _, h := range r.history[lo:hi] {
		dst = append(dst, h.prep)
	}
	return dst
}

// commitResult is commit's outcome: committed, lost the footprint race
// (an overlapping entry published since detection), or terminal (the run
// failed — the attempt must not retry).
type commitResult int

const (
	commitOK commitResult = iota
	commitRace
	commitFailed
)

// reclaimLocked drops history entries every active transaction has already
// seen (commitTime ≤ min active begin) and appends their artifacts to
// recycle, for the caller to Recycle once it has released histMu. Caller
// holds histMu. The floor is the published watermark, not the raw clock: an
// entry appended by a commit whose publication turn has not finished must
// never be dropped before any transaction could have fetched it.
//
// Why a dropped artifact may be reused at once (DESIGN.md §19): a window
// holds only entries newer than its transaction's begin, begins are
// registered under histMu at a value no lower than the floor of any
// earlier pass, and they stay registered until finish has read the window
// for the last time — so an entry at or below every registered begin is in
// no window, in no overlapsPublished range and in no later fetch.
func (r *Runtime) reclaimLocked(recycle []*conflict.Prepared) []*conflict.Prepared {
	minBegin := r.published.Load()
	for _, b := range r.begins {
		if b < minBegin {
			minBegin = b
		}
	}
	// Commit times increase along the history, so what goes is a prefix.
	cut := searchHist(r.history, minBegin)
	if cut == 0 {
		return recycle
	}
	for _, h := range r.history[:cut] {
		recycle = append(recycle, h.prep)
	}
	atomic.AddInt64(&r.stats.Reclaimed, int64(cut))
	kept := copy(r.history, r.history[cut:])
	// Zero the vacated tail of the backing array: compaction alone would
	// keep the dropped artifacts reachable from it.
	clear(r.history[kept:])
	r.history = r.history[:kept]
	return recycle
}
