// Package obs is the runtime observability layer: low-overhead event
// tracing and latency metrics for the JANUS protocol. The paper's entire
// evaluation (§7, Figures 10–11) is built on runtime accounting — commits
// versus retries, cache hits versus fallbacks — and this package turns
// those end-of-run aggregates into a timeline: every transaction attempt,
// validation, commit, abort (with the *reason* the detector rejected it:
// which check failed, on which location pair), and commutativity-cache
// query is a typed Event on a per-worker ring buffer.
//
// The design rule is that a disabled tracer costs nothing: all emission
// goes through a value-type Ctx whose methods are no-ops (and allocation
// free) when its Tracer is nil, so the Exec/validate/commit hot paths pay
// a single predictable branch. When enabled, events land in per-worker
// rings (one uncontended mutex each) that grow with what is emitted up to
// a fixed capacity, latency samples feed lock-free power-of-two
// histograms, and a reader pays for the events it has not seen yet
// (Trace.Since), never for the ring.
//
// Captured traces export to the Chrome trace-event format
// (Trace.WriteChromeJSON) and open directly in Perfetto or
// chrome://tracing with one lane per worker; aggregate counters and
// histograms export via expvar (Publish) and an optional debug HTTP
// endpoint with pprof (Serve).
package obs

import "time"

// EventType identifies what happened.
type EventType uint8

// Event types. Spans (Dur > 0) describe an interval; the rest are
// instants. The Tx* events follow the protocol steps of Figure 7: a
// transaction attempt begins (snapshot/privatization), runs the task
// body, optionally waits for its commit turn (ordered mode), validates
// against the committed history, and either commits or aborts.
const (
	EvNone EventType = iota
	// EvTask spans a task's whole service time on a worker: first
	// attempt through successful commit, retries included.
	EvTask
	// EvTxBegin marks CREATETRANSACTION: snapshot taken, clock read.
	EvTxBegin
	// EvTxRun spans one attempt's task-body execution.
	EvTxRun
	// EvTxValidate spans one conflict-detection pass over the committed
	// history (DETECTCONFLICTS of Figure 8).
	EvTxValidate
	// EvTxCommit spans the commit critical section: write lock, history
	// re-check, log replay, clock advance.
	EvTxCommit
	// EvTxAbort marks a failed validation. Reason carries which check
	// failed (same-read, commute, write-set, relaxation…), Loc the
	// conflicting projection location, Detail the symbolic shape pair.
	EvTxAbort
	// EvCommitWait spans time spent waiting for the commit turn
	// (ordered mode) or re-detecting after a lost commit race.
	EvCommitWait
	// EvTxBackoff spans a contention-management backoff sleep between
	// retry attempts (Config.Backoff in internal/stm).
	EvTxBackoff
	// EvCacheHit / EvCacheMiss mark commutativity-cache lookups during
	// validation; EvCacheFallback marks a query answered by the
	// write-set fallback instead of a proved condition.
	EvCacheHit
	EvCacheMiss
	EvCacheFallback
	// EvSpecRejected marks a lenient LoadSpec rejecting a corrupt or
	// incompatible trained-spec artifact; the run degrades to write-set
	// detection instead of failing. Detail carries the rejection error.
	EvSpecRejected
	// EvCommitStripe spans a commit's footprint-stripe acquisition: the
	// wait to lock the sorted stripe set covering the transaction's
	// locations. Only overlapping-footprint commits contend here.
	EvCommitStripe
	// EvCommitPipeline spans a ticketed commit's publication-turn wait:
	// replay is done, the commit time is assigned, and the committer
	// waits for every earlier commit time to finish publishing.
	EvCommitPipeline

	numEventTypes
)

// String renders the event type as it appears in exported traces.
func (t EventType) String() string {
	switch t {
	case EvTask:
		return "task"
	case EvTxBegin:
		return "tx.begin"
	case EvTxRun:
		return "tx.run"
	case EvTxValidate:
		return "tx.validate"
	case EvTxCommit:
		return "tx.commit"
	case EvTxAbort:
		return "tx.abort"
	case EvCommitWait:
		return "commit.wait"
	case EvTxBackoff:
		return "tx.backoff"
	case EvCacheHit:
		return "cache.hit"
	case EvCacheMiss:
		return "cache.miss"
	case EvCacheFallback:
		return "cache.fallback"
	case EvSpecRejected:
		return "spec.rejected"
	case EvCommitStripe:
		return "commit.stripe"
	case EvCommitPipeline:
		return "commit.pipeline"
	default:
		return "none"
	}
}

// Event is one timeline entry. The struct is a plain value — emitting one
// never allocates — and all attribution fields are optional.
type Event struct {
	Type EventType
	// When is nanoseconds since the trace epoch (Tracer.Now).
	When int64
	// Dur is the span length in nanoseconds; 0 for instant events.
	Dur int64
	// Worker is the emitting worker's lane (0-based); -1 when unknown.
	Worker int32
	// Task is the transaction/task identifier (1-based).
	Task int32
	// Attempt numbers the task's execution attempts from 1.
	Attempt int32
	// Reason names the failed check for EvTxAbort events.
	Reason string
	// Loc is the conflicting projection location (aborts) or queried
	// location (cache events).
	Loc string
	// Detail carries free-form attribution, e.g. the symbolic shape pair
	// of the sequences whose commutativity check failed.
	Detail string
}

// Tracer receives events. Implementations must be safe for concurrent
// use. A nil Tracer disables tracing; all emission helpers (Ctx) treat
// nil as "off" and compile to cheap branches.
type Tracer interface {
	// Emit records one event. The event's When field must already be
	// stamped (see Now).
	Emit(e Event)
	// Now returns nanoseconds since the tracer's epoch, from a
	// monotonic clock.
	Now() int64
}

// Ctx binds a Tracer to one transaction attempt's identity (worker,
// task, attempt). It is a value type passed down the hot path; the zero
// Ctx is valid and disabled. Callers must guard any work that builds
// attribution strings behind Enabled.
type Ctx struct {
	T       Tracer
	Worker  int32
	Task    int32
	Attempt int32
}

// Enabled reports whether events will be recorded.
func (c Ctx) Enabled() bool { return c.T != nil }

// Now returns the tracer clock, or 0 when disabled. Disabled spans then
// carry start=0 into End, which discards them without reading the clock.
func (c Ctx) Now() int64 {
	if c.T == nil {
		return 0
	}
	return c.T.Now()
}

// Instant emits a zero-duration event.
func (c Ctx) Instant(t EventType) {
	if c.T == nil {
		return
	}
	c.T.Emit(Event{Type: t, When: c.T.Now(), Worker: c.Worker, Task: c.Task, Attempt: c.Attempt})
}

// Abort emits an EvTxAbort instant with reason attribution. reason and
// loc are expected to be constants or re-sliced strings; callers should
// build detail only when Enabled.
func (c Ctx) Abort(reason, loc, detail string) {
	if c.T == nil {
		return
	}
	c.T.Emit(Event{
		Type: EvTxAbort, When: c.T.Now(),
		Worker: c.Worker, Task: c.Task, Attempt: c.Attempt,
		Reason: reason, Loc: loc, Detail: detail,
	})
}

// Cache emits a cache-query instant (EvCacheHit/Miss/Fallback).
func (c Ctx) Cache(t EventType, loc, detail string) {
	if c.T == nil {
		return
	}
	c.T.Emit(Event{
		Type: t, When: c.T.Now(),
		Worker: c.Worker, Task: c.Task, Attempt: c.Attempt,
		Loc: loc, Detail: detail,
	})
}

// End emits a span event covering [start, now]. start comes from an
// earlier Now; when the Ctx is disabled both calls are no-ops.
func (c Ctx) End(t EventType, start int64) {
	if c.T == nil {
		return
	}
	now := c.T.Now()
	c.T.Emit(Event{
		Type: t, When: start, Dur: now - start,
		Worker: c.Worker, Task: c.Task, Attempt: c.Attempt,
	})
}

// epochNow is the shared monotonic clock helper for Tracer
// implementations.
func epochNow(epoch time.Time) int64 { return int64(time.Since(epoch)) }
