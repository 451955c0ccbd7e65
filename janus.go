// Package janus is a from-scratch Go reproduction of JANUS, the
// speculative parallelization system of Tripp, Manevich, Field, and Sagiv,
// "JANUS: Exploiting Parallelism via Hindsight" (PLDI 2012).
//
// JANUS runs client-provided tasks optimistically in parallel and detects
// conflicts between concurrent transactions by reasoning about entire
// sequences of operations and their composite effect — so a transaction
// that increments and later decrements a shared counter (net identity)
// does not conflict with another doing the same, where classical
// write-set detection would abort one of them. The expensive sequence
// judgments are made cheap by hindsight: commutativity conditions are
// learned offline from single-threaded training runs, generalized into
// regular forms via the Kleene-cross abstraction, and cached for O(1)
// lookup during parallel execution.
//
// # Quick start
//
//	st := janus.NewState()
//	workCtr := janus.InitCounter(st, "work", 0)
//
//	mkTask := func(w int64) janus.Task {
//		return func(ex janus.Executor) error {
//			if err := workCtr.Add(ex, w); err != nil {
//				return err
//			}
//			// ... process the item ...
//			return workCtr.Sub(ex, w) // processed: restore pending work
//		}
//	}
//
//	r := janus.New(janus.Config{Detection: janus.DetectSequence})
//	if err := r.Train(st, trainingTasks); err != nil { ... }
//	final, stats, err := r.Run(st, productionTasks)
//
// See the examples directory for complete programs, and DESIGN.md for the
// mapping from the paper's sections to packages.
package janus

import (
	"context"
	"errors"
	"io"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/spec"
	"repro/internal/state"
	"repro/internal/stm"
)

// Re-exported core types: tasks access shared state through typed handles
// bound to named locations, and every access is logged by the runtime for
// conflict detection and commit-time replay.
type (
	// Task is one unit of parallelizable work (a loop iteration).
	Task = adt.Task
	// Executor applies shared-state operations for a task.
	Executor = adt.Executor
	// State is the shared store.
	State = state.State
	// Loc names a shared location.
	Loc = state.Loc
	// Value is a shared location's value.
	Value = state.Value
	// Str is a string value. StrVar.Store takes it boxed: box what a task
	// stores with the task, Value(Str(s)), as its location names are.
	Str = state.Str

	// Counter is a shared integer (identity/reduction patterns).
	Counter = adt.Counter
	// StrVar is a shared string (shared-as-local pattern).
	StrVar = adt.StrVar
	// BoolVar is a shared boolean.
	BoolVar = adt.BoolVar
	// Stack is a shared integer stack (balanced push/pop identity).
	Stack = adt.Stack
	// BitSet is a shared bit set with relational abstraction.
	BitSet = adt.BitSet
	// KVMap is a shared string map with relational abstraction.
	KVMap = adt.KVMap
	// IntArray is a shared integer array with relational abstraction.
	IntArray = adt.IntArray
	// Canvas is a shared pixel raster (equal-writes pattern).
	Canvas = adt.Canvas

	// Relaxations declares tolerable RAW/WAW conflicts per location (§5.3).
	Relaxations = conflict.Relaxations

	// Trace is a per-worker ring-buffer event recorder; pass one in
	// Config.Trace to capture a run's timeline, then export it with
	// WriteChromeJSON (opens in Perfetto / chrome://tracing).
	Trace = obs.Trace
	// TraceEvent is one recorded timeline entry.
	TraceEvent = obs.Event
	// TraceCursor is a read position for Trace.Since; the zero value is
	// the start of the trace.
	TraceCursor = obs.Cursor
	// AbortReason classifies why a detector rejected a transaction.
	AbortReason = conflict.Reason

	// Backoff configures bounded exponential retry backoff with jitter
	// between a transaction's abort and its next attempt; the zero value
	// retries immediately. See Config.Backoff.
	Backoff = stm.Backoff
	// PanicError is the error a recovered task panic converts to,
	// carrying the task id, panic value, and the stack captured at the
	// panic site. A panicking task fails the run with this error instead
	// of crashing the process; unwrap it with errors.As.
	PanicError = stm.PanicError
	// RetryLimitError is what a run fails with when one transaction
	// exhausts Config.MaxRetries. It marks retryable congestion — the
	// task body never failed, the liveness guard cut off its
	// speculation — so serving layers map it to "try again later"
	// rather than a permanent workload fault; unwrap it with errors.As.
	RetryLimitError = stm.RetryLimitError
	// CommitSink receives every committed transaction's operation log in
	// commit order (see Config.Record and internal/rec for the standard
	// implementation).
	CommitSink = stm.CommitSink
	// FrameError reports a rejected artifact: LoadSpec returns one,
	// errors.As-matchable, for every fault of a trained-spec file (foreign,
	// cut, corrupted, unknown entries, the other abstraction mode), with a
	// Reason saying which.
	FrameError = fsio.FrameError

	// CustomSpec declares a user-defined ADT's relational representation
	// (§6.1): arbitrary columns with an optional functional dependency
	// whose domain names the key columns.
	CustomSpec = adt.CustomSpec
	// CustomObject is the handle to a shared instance of a CustomSpec.
	CustomObject = adt.CustomObject
	// Tuple is a relational tuple (column → value).
	Tuple = relation.Tuple
)

// NewState returns an empty shared store.
func NewState() *State { return state.New() }

// NewTrace returns an event recorder whose per-worker ring buffers hold
// laneCap events each (a generous default when laneCap <= 0).
func NewTrace(laneCap int) *Trace { return obs.NewTrace(laneCap) }

// NewRelaxations builds a consistency-relaxation specification from the
// locations whose read-after-write (raw) and write-after-write (waw)
// conflicts are tolerable.
func NewRelaxations(raw, waw []Loc) *Relaxations {
	return conflict.NewRelaxations(raw, waw)
}

// InitCounter binds loc to the initial value and returns its handle.
func InitCounter(st *State, loc Loc, v int64) Counter {
	st.Set(loc, state.Int(v))
	return Counter{L: loc}
}

// InitStrVar binds loc to the initial value and returns its handle.
func InitStrVar(st *State, loc Loc, v string) StrVar {
	st.Set(loc, state.Str(v))
	return StrVar{L: loc}
}

// InitBoolVar binds loc to the initial value and returns its handle.
func InitBoolVar(st *State, loc Loc, v bool) BoolVar {
	st.Set(loc, state.Bool(v))
	return BoolVar{L: loc}
}

// InitStack binds loc to an empty stack and returns its handle.
func InitStack(st *State, loc Loc) Stack {
	st.Set(loc, &state.IntList{})
	return Stack{L: loc}
}

// InitBitSet binds loc to an empty relational bit set and returns its
// handle.
func InitBitSet(st *State, loc Loc) BitSet {
	st.Set(loc, adt.NewRelValue())
	return BitSet{L: loc}
}

// InitKVMap binds loc to an empty relational map and returns its handle.
func InitKVMap(st *State, loc Loc) KVMap {
	st.Set(loc, adt.NewRelValue())
	return KVMap{L: loc}
}

// InitIntArray binds loc to an empty relational array and returns its
// handle (unset indices read as zero).
func InitIntArray(st *State, loc Loc) IntArray {
	st.Set(loc, adt.NewRelValue())
	return IntArray{L: loc}
}

// InitCanvas binds loc to an empty relational raster and returns its
// handle.
func InitCanvas(st *State, loc Loc) Canvas {
	st.Set(loc, adt.NewRelValue())
	return Canvas{L: loc}
}

// InitCustom binds loc to an empty instance of a user-defined relational
// ADT (§6.1) and returns its handle. The spec's columns and functional
// dependency define the structure's semantic state; its operations
// (Put/Get/Has/Delete/Clear) participate in sequence-based conflict
// detection exactly like the built-in ADTs.
func InitCustom(st *State, loc Loc, spec CustomSpec) (CustomObject, error) {
	return adt.NewCustom(st, loc, spec)
}

// Detection selects the conflict-detection algorithm.
type Detection int

// Detection algorithms.
const (
	// DetectSequence is JANUS's sequence-based detection (§5).
	DetectSequence Detection = iota
	// DetectWriteSet is the traditional baseline.
	DetectWriteSet
)

// String renders the algorithm name.
func (d Detection) String() string {
	if d == DetectWriteSet {
		return "write-set"
	}
	return "sequence"
}

// Config parameterizes a Runner.
type Config struct {
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// Detection selects the conflict detector.
	Detection Detection
	// DisableAbstraction turns off the §5.2 Kleene-cross sequence
	// abstraction (the Figure 11 ablation); cache keys then require an
	// exact shape match.
	DisableAbstraction bool
	// LearnOnline proves and caches commutativity conditions for missed
	// shape pairs at runtime — "online training" via memoization (§5.3) —
	// so an untrained Runner converges to trained behavior after one miss
	// per shape pair.
	LearnOnline bool
	// Relax is the consistency-relaxation specification; may be nil.
	Relax *Relaxations
	// MaxRetries guards against livelock in tests (0 = unlimited).
	MaxRetries int
	// Backoff enables contention management: after an abort, the task
	// waits a bounded, jittered, exponentially growing interval before
	// retrying instead of immediately re-running speculation that is
	// likely to abort again. Zero retries immediately.
	Backoff Backoff
	// Record, when non-nil, receives each committed transaction's
	// operation log inside the commit's publication turn — commit order,
	// exactly once per accepted transaction (see internal/rec for the
	// chunked trace recorder / flight recorder built on this). The sink
	// may keep neither the log slice nor the events it points to — the
	// runtime reuses both for later transactions — but copies of the
	// events are its own, footprint included, and their Op and Observed
	// may be kept. Nil disables recording at the cost of one branch per
	// commit.
	Record CommitSink
	// Trace, when non-nil, records every run's protocol events (task
	// spans, validations, commits, aborts with reasons, cache queries)
	// into per-worker ring buffers. The caller owns the trace and reads
	// it when it wants to — Trace.Events, Trace.Since for a tail,
	// Trace.WriteChromeJSON — so a run costs only the events it emits.
	// Its counters and latency histograms are published to expvar as
	// "janus.obs". Nil disables tracing at no cost.
	Trace *Trace
}

// Runner is a configured JANUS instance: train it once, then run task
// sets in parallel. The zero Config gives sequence-based detection with
// abstraction on.
type Runner struct {
	cfg    Config
	engine *core.Engine
	// specRejected records a lenient LoadSpecPolicy rejection: the runner
	// permanently degrades to write-set detection (the cache cannot be
	// trusted to have been trained as intended).
	specRejected bool
}

// New builds a Runner and publishes its trace, if any, to expvar.
func New(cfg Config) *Runner {
	r := &Runner{cfg: cfg, engine: core.NewEngine(core.Options{
		DisableAbstraction: cfg.DisableAbstraction,
		LearnOnline:        cfg.LearnOnline,
		Relax:              cfg.Relax,
	})}
	if cfg.Trace != nil {
		obs.PublishVars("janus.obs", func() any { return cfg.Trace.Vars() })
	}
	return r
}

// Train profiles the payload sequentially (no synchronization) from the
// given initial state and folds the learned commutativity conditions into
// the runner's cache. Call it once per training payload (the paper uses
// five runs).
func (r *Runner) Train(initial *State, tasks []Task) error {
	return r.engine.Train(initial, tasks)
}

// Freeze marks training complete: the commutativity cache becomes
// read-only and production lookups stop taking locks entirely. Further
// Train/LoadSpec calls are rejected or ignored, so call it only after the
// last training payload. A no-op under Config.LearnOnline, which must
// keep writing during parallel runs.
func (r *Runner) Freeze() { r.engine.Freeze() }

// TrainingReports returns the per-payload training summaries.
func (r *Runner) TrainingReports() []*spec.Report { return r.engine.Reports() }

// CacheStats returns the commutativity cache's query accounting (the
// Figure 11 metrics).
func (r *Runner) CacheStats() spec.Stats { return r.engine.Cache().Stats() }

// ResetCacheStats clears query accounting (e.g. after a cold run).
func (r *Runner) ResetCacheStats() { r.engine.Cache().ResetStats() }

// SaveSpec writes the trained commutativity specification, the deployment
// artifact of the Figure 6 flow: train once on representative inputs, ship
// the spec, load it in production with LoadSpec.
func (r *Runner) SaveSpec(w io.Writer) error { return r.engine.SaveSpec(w) }

// ErrSpecFrozen is returned by LoadSpec after Freeze: spec loading is part
// of the training phase and must complete before the cache goes read-only.
var ErrSpecFrozen = spec.ErrFrozen

// FrameReason says why an artifact was rejected: a *FrameError carries
// one in its Reason field, so a caller tells a cut file from a foreign
// one with errors.As and a comparison.
type FrameReason = fsio.Reason

// Rejection reasons of a *FrameError.
const (
	// FrameBadMagic: the file is not this kind of artifact, or was
	// written by a build whose format had another magic.
	FrameBadMagic = fsio.BadMagic
	// FrameBadFormat: the format byte names a version this build does
	// not read, or the spec was trained under the other abstraction mode.
	FrameBadFormat = fsio.BadFormat
	// FrameBadChecksum: a frame's bytes are all present but its CRC32
	// does not match them.
	FrameBadChecksum = fsio.BadChecksum
	// FrameTorn: the bytes end inside the header or a frame (a cut or
	// half-written file).
	FrameTorn = fsio.Torn
	// FrameBadRecord: a checksummed payload the format cannot parse.
	FrameBadRecord = fsio.BadRecord
	// FrameSeqGap: a journal is missing records it should hold.
	FrameSeqGap = fsio.SeqGap
	// FrameLossy: a trace omits transactions it could not encode.
	FrameLossy = fsio.Lossy
)

// SpecPolicy selects how LoadSpecPolicy treats a faulty artifact.
type SpecPolicy int

// Spec-loading policies.
const (
	// SpecStrict fails the load with the *FrameError (the LoadSpec
	// behavior): a bad artifact is a deployment error.
	SpecStrict SpecPolicy = iota
	// SpecLenient rejects the artifact but not the run: the runner
	// records the rejection, emits a spec.rejected trace event, and all
	// subsequent runs degrade to write-set detection.
	SpecLenient
)

// LoadSpec merges a saved commutativity specification into the runner —
// the production side of the Figure 6 deployment flow. The artifact is an
// fsio file (magic, format byte, one CRC32-checked frame) whose
// abstraction mode must match the runner's; any artifact fault is
// reported as a *FrameError and leaves the cache unchanged. A read error
// is returned as it is.
//
// LoadSpec is only legal before Freeze: the spec is training input, and a
// frozen cache is read-only. Calling it after Freeze returns
// ErrSpecFrozen (a contract violation, deliberately not a *FrameError).
func (r *Runner) LoadSpec(rd io.Reader) error { return r.engine.LoadSpec(rd) }

// LoadSpecPolicy is LoadSpec with a fault policy. Under SpecLenient an
// artifact fault (*FrameError) does not fail the call: the rejection is
// recorded (SpecRejected), a spec.rejected event is emitted on
// Config.Trace, and the runner degrades to write-set detection for all
// subsequent runs — the run proceeds correct-but-slower instead of dying
// on a corrupt deployment artifact. Non-artifact errors (I/O failures,
// ErrSpecFrozen) fail the call under either policy.
func (r *Runner) LoadSpecPolicy(rd io.Reader, policy SpecPolicy) error {
	err := r.engine.LoadSpec(rd)
	if err == nil || policy != SpecLenient {
		return err
	}
	var fe *FrameError
	if !errors.As(err, &fe) {
		return err
	}
	r.specRejected = true
	if t := r.cfg.Trace; t != nil {
		t.Emit(obs.Event{Type: obs.EvSpecRejected, When: t.Now(), Worker: -1, Detail: err.Error()})
	}
	return nil
}

// SpecRejected reports whether a lenient LoadSpecPolicy rejected an
// artifact, permanently degrading the runner to write-set detection.
func (r *Runner) SpecRejected() bool { return r.specRejected }

// RunStats aggregates one run's statistics.
type RunStats struct {
	// Run is the protocol-level accounting (commits, retries, and the
	// abort-reason breakdown — the Figure 10 metrics).
	Run stm.Stats
	// Detector is the conflict-detector accounting.
	Detector conflict.Stats
}

// detector builds the configured detector instance for one store. A
// runner whose spec artifact was rejected leniently always detects by
// write set.
func (r *Runner) detector() conflict.Detector {
	if r.cfg.Detection == DetectWriteSet || r.specRejected {
		return conflict.NewWriteSet()
	}
	return r.engine.Detector()
}

// Store is a committed shared state that runs task sets one after
// another, each from what the last one committed (Runner.Open). It keeps
// its runtime — store, clock, detector and scratch — for its whole life,
// so a run pays for the tasks it runs, not for the state it runs on. Runs
// of one Store must not overlap; Undo, State and Range are called between
// them.
type Store struct {
	rt  *stm.Runtime
	det conflict.Detector
}

// Open opens a store over a copy of initial whose runs commit in task
// order (RunInOrderCtx).
func (r *Runner) Open(initial *State) *Store { return r.open(initial, true) }

func (r *Runner) open(initial *State, ordered bool) *Store {
	det := r.detector()
	var tracer obs.Tracer
	if r.cfg.Trace != nil {
		tracer = r.cfg.Trace
	}
	return &Store{det: det, rt: stm.New(stm.Config{
		Threads:    r.cfg.Threads,
		Ordered:    ordered,
		Detector:   det,
		MaxRetries: r.cfg.MaxRetries,
		Tracer:     tracer,
		Backoff:    r.cfg.Backoff,
		Record:     r.cfg.Record,
	}, initial)}
}

// RunInOrderCtx runs the tasks in parallel on the store's committed state,
// with commits following task order and cancellation as in
// Runner.RunInOrderCtx. The store's commit times run on from its last
// run, so a recorder (Config.Record) sees one serialization order across
// runs. A failed run leaves what its commits published: Undo takes it
// back. RunStats.Detector is left zero, because the store's detector
// outlives the run.
func (s *Store) RunInOrderCtx(ctx context.Context, tasks []Task) (RunStats, error) {
	stats, err := s.rt.Run(ctx, tasks)
	return RunStats{Run: stats}, err
}

// Undo takes back everything the last run published: until the next run
// starts, the store can return to the state that run started from.
func (s *Store) Undo() { s.rt.Undo() }

// State returns a copy of the committed state that the caller owns: it
// shares the store's scalars, which are immutable, and copies its
// relations and stacks, which operations mutate in place.
func (s *Store) State() *State { return s.rt.State() }

// Range visits every committed location and its value, until f returns
// false. The values are the store's own: f must not mutate them.
func (s *Store) Range(f func(Loc, Value) bool) { s.rt.Range(f) }

// run is the one-shot run behind every Runner.Run*: a store opened for
// these tasks alone, one run, and its committed state.
func (r *Runner) run(ctx context.Context, initial *State, tasks []Task, ordered bool) (*State, RunStats, error) {
	s := r.open(initial, ordered)
	stats, err := s.rt.Run(ctx, tasks)
	rs := RunStats{Run: stats}
	switch d := s.det.(type) {
	case *conflict.WriteSet:
		rs.Detector = d.Stats()
	case *conflict.Sequence:
		rs.Detector = d.Stats()
	}
	if err != nil {
		return nil, rs, err
	}
	return s.State(), rs, nil
}

// Run executes the tasks in parallel with unordered commits (the
// prototype's runOutOfOrder).
func (r *Runner) Run(initial *State, tasks []Task) (*State, RunStats, error) {
	return r.run(context.Background(), initial, tasks, false)
}

// RunCtx is Run with cancellation: when ctx is canceled or its deadline
// passes, in-flight transactions abort at their next protocol step,
// workers drain cleanly, and the context's error is returned (errors.Is
// against context.Canceled / context.DeadlineExceeded works). A task body
// that never returns cannot be preempted, so cancellation latency is
// bounded by the longest single task execution.
func (r *Runner) RunCtx(ctx context.Context, initial *State, tasks []Task) (*State, RunStats, error) {
	return r.run(ctx, initial, tasks, false)
}

// RunInOrder executes the tasks in parallel with commits following task
// order (the prototype's runInOrder).
func (r *Runner) RunInOrder(initial *State, tasks []Task) (*State, RunStats, error) {
	return r.run(context.Background(), initial, tasks, true)
}

// RunInOrderCtx is RunInOrder with cancellation; see RunCtx.
func (r *Runner) RunInOrderCtx(ctx context.Context, initial *State, tasks []Task) (*State, RunStats, error) {
	return r.run(ctx, initial, tasks, true)
}

// Sequential executes the tasks one at a time with no synchronization —
// the paper's sequential baseline. The initial state is not mutated.
func Sequential(initial *State, tasks []Task) (*State, error) {
	return stm.RunSequential(initial, tasks)
}
