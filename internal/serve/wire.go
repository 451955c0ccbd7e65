// Package serve is the JANUS serving layer: a long-running multi-tenant
// HTTP front end over janus.Runner. Clients submit batches of
// transactional tasks as JSON; the server compiles each batch into
// janus tasks over the tenant's shared state, runs it speculatively in
// parallel with ordered commits (so the committed result is exactly the
// batch's sequential order — digest-checkable against the sequential
// oracle), and applies the final state atomically: a batch either
// commits whole or leaves the tenant state untouched.
//
// The robustness surface is the point (see DESIGN.md §12): intake is
// bounded per tenant by one in-flight cap (excess load is shed with
// typed, retryable 429/503 replies carrying Retry-After — never queued
// without bound), every request carries a deadline into RunInOrderCtx, a
// batch's work is bounded before it is admitted, and shutdown drains
// in-flight batches under a deadline with per-tenant flight recorders
// dumped on abnormal exit.
package serve

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	janus "repro"
	"repro/internal/adt"
	"repro/internal/state"
)

// Schema declares the shared locations a server exposes to its tenants.
// Every tenant starts from the same initial state: each counter at 0,
// each stack empty, each map empty. Ops referencing locations outside
// the schema are rejected at decode time with a 400, before any
// execution.
type Schema struct {
	Counters []string `json:"counters"`
	Stacks   []string `json:"stacks"`
	KVMaps   []string `json:"kvmaps"`
}

// DefaultSchema is the schema a zero Config serves: a few counters for
// reduction/identity patterns, a stack, and a map.
func DefaultSchema() Schema {
	return Schema{
		Counters: []string{"c0", "c1", "c2", "c3", "work"},
		Stacks:   []string{"stk"},
		KVMaps:   []string{"kv"},
	}
}

// locKind classifies a schema location for op validation.
type locKind uint8

const (
	kindNone locKind = iota
	kindCounter
	kindStack
	kindKVMap
)

// schemaLoc is one declared location: its name, which every op parsed
// against the schema shares, and its kind.
type schemaLoc struct {
	name string
	kind locKind
}

// index maps each declared location to its entry.
func (s Schema) index() map[string]schemaLoc {
	m := make(map[string]schemaLoc, len(s.Counters)+len(s.Stacks)+len(s.KVMaps))
	for _, c := range s.Counters {
		m[c] = schemaLoc{c, kindCounter}
	}
	for _, st := range s.Stacks {
		m[st] = schemaLoc{st, kindStack}
	}
	for _, kv := range s.KVMaps {
		m[kv] = schemaLoc{kv, kindKVMap}
	}
	return m
}

// InitialState builds the schema's initial tenant state: counters zero,
// stacks and maps empty. Oracle clients (the loadgen digest check)
// rebuild the same state to replay accepted batches sequentially.
func InitialState(s Schema) *janus.State {
	st := janus.NewState()
	for _, c := range s.Counters {
		janus.InitCounter(st, janus.Loc(c), 0)
	}
	for _, k := range s.Stacks {
		janus.InitStack(st, janus.Loc(k))
	}
	for _, m := range s.KVMaps {
		janus.InitKVMap(st, janus.Loc(m))
	}
	return st
}

// OpSpec is one shared-state operation inside a task. Op selects the
// operation; which other fields matter depends on it:
//
//	counter: add/sub/store (Delta), load
//	stack:   push (Delta), pop, size
//	kvmap:   put (Key, Val), get/del/has (Key)
//	work:    local spin of Delta units (no location) — models task body
//	         compute between shared accesses
type OpSpec struct {
	Op    string `json:"op"`
	Loc   string `json:"loc,omitempty"`
	Delta int64  `json:"delta,omitempty"`
	Key   string `json:"key,omitempty"`
	Val   string `json:"val,omitempty"`
}

// TaskSpec is one transactional task: its ops run atomically and in
// order inside a single transaction.
type TaskSpec struct {
	Ops []OpSpec `json:"ops"`
}

// Batch is one submit request: a client-chosen idempotency ID, the
// tasks to run as one ordered parallel batch, and an optional deadline.
type Batch struct {
	// ID names the batch for exactly-once accounting: the tenant journal
	// records applied IDs in commit order, and resubmitting an applied ID
	// is refused with 409 — an accepted batch is applied exactly once.
	ID string `json:"id"`
	// Tasks are the batch's transactions; commits follow task order.
	Tasks []TaskSpec `json:"tasks"`
	// DeadlineMS bounds the batch's total service time (queue wait +
	// run) in milliseconds; 0 uses the server default. The deadline
	// propagates into RunInOrderCtx: when it expires the run drains and
	// the reply is a retryable 504 with the tenant state unchanged.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// BatchResult is the success reply.
type BatchResult struct {
	ID      string `json:"id"`
	Tenant  string `json:"tenant"`
	Tasks   int    `json:"tasks"`
	Commits int64  `json:"commits"`
	Retries int64  `json:"retries"`
	// Digest is the FNV-64a digest of the tenant state after this batch
	// (rec.FormatDigest) — the value the sequential oracle must match.
	Digest string `json:"digest"`
	// Applied is the tenant's total applied-batch count including this
	// one; it equals this batch's position in the journal.
	Applied   int64 `json:"applied"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// Error codes carried in ErrorReply.Code. Retryable codes ship a
// Retry-After; the rest are permanent for the same request.
const (
	CodeBadRequest     = "bad_request"        // 400: malformed batch
	CodeTenantLimit    = "tenant_limit"       // 429: MaxTenants reached
	CodeOverloaded     = "overloaded"         // 429: per-tenant in-flight cap hit
	CodeDraining       = "draining"           // 503: shutdown in progress
	CodeRetryExhausted = "retry_exhausted"    // 503: speculation starved (congestion)
	CodeDeadline       = "deadline"           // 504: batch deadline expired
	CodeCanceled       = "canceled"           // 499: client went away mid-request
	CodeDuplicate      = "duplicate"          // 409: batch ID already applied
	CodeBatchFailed    = "batch_failed"       // 422: a task body failed
	CodeUnknownTenant  = "unknown_tenant"     // 404: introspection on absent tenant
	CodeMethod         = "method_not_allowed" // 405
	CodeJournal        = "journal_error"      // 503: batch ran but could not be journaled; not applied
	CodeRecovery       = "recovery_failed"    // 500: tenant journal unrecoverable; operator required
)

// ErrorReply is every non-2xx body: a typed, machine-readable failure.
// RetryAfterMS is set on retryable codes (overloaded, draining,
// retry_exhausted, deadline) and mirrors the Retry-After header.
type ErrorReply struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// Applied and Digest carry the original verdict on a 409 duplicate:
	// the journal position the batch committed at and the state digest
	// its commit produced. A client whose ack was lost to a crash
	// resubmits and reads its original result here.
	Applied int64  `json:"applied,omitempty"`
	Digest  string `json:"digest,omitempty"`
}

// StatusCanceled is the non-standard 499 (client closed request) used
// when the client disconnects mid-batch; nobody reads it, but access
// logs and tests distinguish it from server-caused failures.
const StatusCanceled = 499

// maxBatchTasks bounds one batch; a request above it is a 400, not a
// resource commitment.
const maxBatchTasks = 4096

// maxTaskOps bounds one task's declared ops the same way.
const maxTaskOps = 4096

// maxBatchWork bounds the units a batch's "work" ops declare, summed over
// all its tasks. A task body cannot be preempted, so an unbounded spin
// would hold the tenant's gate past every deadline and past a drain.
// adt.LocalWork spins about 0.4 units/ns on a 2.1 GHz Xeon, so the bound
// is roughly 10 s of compute.
const maxBatchWork = 1 << 32

// frame is one batch's scratch from bytes to tasks: the submit body, the
// parser's slabs and the Batch cut from them, a task slot per task of the
// batch last compiled on it, and the reply. handleSubmit takes one per
// request and recoverTenant one per journal suffix; whoever took it
// releases it once nothing reads its batch or runs its tasks any more
// (DESIGN.md §12).
type frame struct {
	idx map[string]schemaLoc
	p   batchParser
	b   Batch
	// tasks[i] is runs[i].run, bound once: compiling a batch only
	// re-points each slot at its task's ops.
	runs  []*taskRun
	tasks []janus.Task
	body  bytes.Buffer
	limit io.LimitedReader
	reply []byte
}

var frames = sync.Pool{New: func() any { return new(frame) }}

// frameKeep bounds the bytes a released frame keeps in its body, escape
// buffer and slabs: a frame a huge batch grew past it is let go.
const frameKeep = 64 << 10

// takeFrame takes a frame that parses and compiles against idx.
func takeFrame(idx map[string]schemaLoc) *frame {
	f := frames.Get().(*frame)
	f.idx = idx
	return f
}

// release returns f to the pool, dropping what its last caller owned: the
// parsed input (a journal payload is the caller's) and each slot's ops.
func (f *frame) release() {
	f.p.data = nil
	for _, r := range f.runs {
		r.ops = nil
	}
	if f.body.Cap() <= frameKeep && cap(f.p.esc) <= frameKeep &&
		cap(f.p.ops) <= frameKeep/bodyBytesPerOp && cap(f.p.tasks) <= frameKeep/bodyBytesPerTask {
		frames.Put(f)
	}
}

// taskRun is one task slot of a frame.
type taskRun struct{ ops []OpSpec }

func (r *taskRun) run(ex janus.Executor) error {
	for i := range r.ops {
		if err := applyOp(ex, &r.ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// compile validates a batch against the schema and compiles each task
// into one of the frame's tasks, valid until the next compile on the
// frame. All validation happens here, before admission commits any
// resources: an invalid op anywhere rejects the whole batch.
func (f *frame) compile(b *Batch) ([]janus.Task, error) {
	if b.ID == "" {
		return nil, fmt.Errorf("batch id required")
	}
	if len(b.Tasks) == 0 {
		return nil, fmt.Errorf("batch has no tasks")
	}
	if len(b.Tasks) > maxBatchTasks {
		return nil, fmt.Errorf("batch has %d tasks, limit %d", len(b.Tasks), maxBatchTasks)
	}
	var work int64 // never above maxBatchWork, so the sum cannot overflow
	for ti, ts := range b.Tasks {
		if len(ts.Ops) == 0 {
			return nil, fmt.Errorf("task %d has no ops", ti)
		}
		if len(ts.Ops) > maxTaskOps {
			return nil, fmt.Errorf("task %d has %d ops, limit %d", ti, len(ts.Ops), maxTaskOps)
		}
		for oi := range ts.Ops {
			op := &ts.Ops[oi]
			if err := checkOp(f.idx, op); err != nil {
				return nil, fmt.Errorf("task %d op %d: %w", ti, oi, err)
			}
			if op.Op == "work" {
				if op.Delta > maxBatchWork-work {
					return nil, fmt.Errorf("task %d op %d: batch work exceeds %d units", ti, oi, maxBatchWork)
				}
				work += op.Delta
			}
		}
		if ti == len(f.runs) {
			r := new(taskRun)
			f.runs = append(f.runs, r)
			f.tasks = append(f.tasks, r.run)
		}
		f.runs[ti].ops = ts.Ops
	}
	return f.tasks[:len(b.Tasks):len(b.Tasks)], nil
}

// checkOp validates one op against the schema without executing it.
func checkOp(sch map[string]schemaLoc, op *OpSpec) error {
	if op.Op == "work" {
		if op.Delta < 0 {
			return fmt.Errorf("work units negative")
		}
		return nil
	}
	kind := sch[op.Loc].kind
	switch op.Op {
	case "add", "sub", "store", "load":
		if kind != kindCounter {
			return fmt.Errorf("op %q needs a counter, %q is not one", op.Op, op.Loc)
		}
	case "push", "pop", "size":
		if kind != kindStack {
			return fmt.Errorf("op %q needs a stack, %q is not one", op.Op, op.Loc)
		}
	case "put", "get", "del", "has":
		if kind != kindKVMap {
			return fmt.Errorf("op %q needs a kvmap, %q is not one", op.Op, op.Loc)
		}
		if op.Key == "" {
			return fmt.Errorf("op %q needs a key", op.Op)
		}
		if op.Op == "put" && op.Val == adt.AbsentVal {
			return fmt.Errorf("op put: value %q is reserved for an absent key", op.Val)
		}
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
	return nil
}

// applyOp executes one validated op through the transaction's executor.
// Read results are discarded — the reads still enter the op log and
// participate in conflict detection, which is what batch authors use
// them for.
func applyOp(ex janus.Executor, op *OpSpec) error {
	switch op.Op {
	case "add":
		return janus.Counter{L: janus.Loc(op.Loc)}.Add(ex, op.Delta)
	case "sub":
		return janus.Counter{L: janus.Loc(op.Loc)}.Sub(ex, op.Delta)
	case "store":
		return janus.Counter{L: janus.Loc(op.Loc)}.Store(ex, op.Delta)
	case "load":
		_, err := janus.Counter{L: janus.Loc(op.Loc)}.Load(ex)
		return err
	case "push":
		return janus.Stack{L: janus.Loc(op.Loc)}.Push(ex, op.Delta)
	case "pop":
		_, err := janus.Stack{L: janus.Loc(op.Loc)}.Pop(ex)
		return err
	case "size":
		_, err := janus.Stack{L: janus.Loc(op.Loc)}.Size(ex)
		return err
	case "put":
		return janus.KVMap{L: janus.Loc(op.Loc)}.Put(ex, op.Key, op.Val)
	case "get":
		_, _, err := janus.KVMap{L: janus.Loc(op.Loc)}.Get(ex, op.Key)
		return err
	case "del":
		return janus.KVMap{L: janus.Loc(op.Loc)}.Remove(ex, op.Key)
	case "has":
		_, err := janus.KVMap{L: janus.Loc(op.Loc)}.Has(ex, op.Key)
		return err
	case "work":
		adt.LocalWork(ex, op.Delta)
		return nil
	}
	return fmt.Errorf("unknown op %q", op.Op)
}

// ApplySequential replays a batch's tasks in order on st with no
// parallelism — the oracle side of the digest check. It returns the new
// state; st is not mutated. Callers replay accepted batches in journal
// order and compare rec.Digest against /statez.
func ApplySequential(st *janus.State, sch Schema, b *Batch) (*janus.State, error) {
	f := takeFrame(sch.index())
	defer f.release()
	tasks, err := f.compile(b)
	if err != nil {
		return nil, err
	}
	return janus.Sequential(st, tasks)
}

// read reads a submit body of at most maxBody bytes into the frame and
// parses it.
func (f *frame) read(body io.Reader, maxBody int64) (*Batch, error) {
	f.body.Reset()
	f.limit = io.LimitedReader{R: body, N: maxBody + 1}
	_, err := f.body.ReadFrom(&f.limit)
	f.limit.R = nil
	if err != nil {
		return nil, fmt.Errorf("reading batch: %w", err)
	}
	if int64(f.body.Len()) > maxBody {
		return nil, fmt.Errorf("request body exceeds the %d-byte limit", maxBody)
	}
	b, err := f.parse(f.body.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decoding batch: %w", err)
	}
	return b, nil
}

// stateVal is a tiny helper for tests/introspection: the string form of
// one location's committed value.
func stateVal(st *janus.State, loc string) string {
	v, ok := st.Get(state.Loc(loc))
	if !ok {
		return ""
	}
	return v.String()
}
