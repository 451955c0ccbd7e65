package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	janus "repro"
	"repro/internal/fsio"
	"repro/internal/rec"
	"repro/internal/wal"
)

// Config parameterizes a Server. The zero value serves DefaultSchema
// with sane production-shaped defaults.
type Config struct {
	// Schema declares the shared locations every tenant starts with;
	// zero means DefaultSchema.
	Schema Schema
	// Runner is the per-tenant runner template. Trace and Record are
	// replaced with per-tenant instances.
	Runner janus.Config
	// MaxTenants bounds the tenant namespace; a new tenant past the
	// bound is refused with 429 tenant_limit. 0 means 64.
	MaxTenants int
	// MaxInflight is the per-tenant admitted-but-unfinished cap. This is
	// the bounded intake queue: request N+1 is shed with 429, never
	// buffered. 0 means 32.
	MaxInflight int
	// RetryBudget is the per-tenant speculation retry budget (the
	// runner's MaxRetries) when the template leaves it unset: a batch
	// whose transactions thrash past it fails fast with a retryable 503
	// instead of burning the tenant's deadline on doomed speculation.
	// 0 means 512 per task.
	RetryBudget int
	// DefaultDeadline bounds a batch that declares none; 0 means 10s.
	// MaxDeadline caps client-declared deadlines; 0 means 60s.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxBody caps a submit body in bytes; 0 means 8 MiB.
	MaxBody int64
	// FlightChunks bounds each tenant's flight-recorder ring (sealed
	// chunks); 0 means 8.
	FlightChunks int
	// TraceLane sizes each tenant trace's per-worker ring; 0 uses the
	// obs default.
	TraceLane int

	// DataDir turns on durability: each tenant journals its applied
	// batches under DataDir/<tenant>/ before acknowledging them, and is
	// recovered crash-consistently from that journal on first use (or
	// eagerly via RecoverTenants). Empty serves in-memory only.
	DataDir string
	// Fsync is the journal's fsync policy (default wal.FsyncAlways:
	// ack ⇒ durable against machine crashes, not just process death).
	Fsync wal.Policy
	// FsyncInterval is the group-commit cadence under wal.FsyncGroup;
	// 0 uses the wal default.
	FsyncInterval time.Duration
	// SegmentBytes bounds journal segment size; 0 uses the wal default.
	SegmentBytes int64
	// SnapshotEvery publishes a state snapshot (and truncates covered
	// journal segments) after this many applied batches per tenant,
	// bounding recovery replay. 0 means 1024; negative disables.
	SnapshotEvery int
	// DedupWindow bounds each tenant's exactly-once seen index to the
	// most recently applied batch IDs: a duplicate of a batch older
	// than the window is no longer refused with its original verdict —
	// it re-applies as new. The bound is what keeps snapshot size,
	// snapshot write amplification, and boot-recovery memory finite in
	// a tenant's lifetime batch count; the window is the documented
	// idempotency retention. 0 means 1<<20 (a million IDs); negative
	// disables the bound (the pre-window unbounded behavior).
	DedupWindow int

	// fs is the file system journals live on; nil means fsio.OS. Tests
	// substitute a recording one to enumerate crash states.
	fs fsio.FS
}

func (c Config) withDefaults() Config {
	if len(c.Schema.Counters)+len(c.Schema.Stacks)+len(c.Schema.KVMaps) == 0 {
		c.Schema = DefaultSchema()
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 32
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 512
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	if c.FlightChunks <= 0 {
		c.FlightChunks = 8
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 1024
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = 1 << 20
	}
	if c.fs == nil {
		c.fs = fsio.OS
	}
	return c
}

// Server is the multi-tenant serving core: tenant registry, admission
// control, request execution, and drain. It carries no listener — wrap
// Handler in an http.Server (`janus serve`) or httptest (the soak).
type Server struct {
	cfg    Config
	schIdx map[string]schemaLoc

	mu      sync.Mutex
	tenants map[string]*tenant
	// pending holds tenants being created (journal recovery in flight)
	// or whose recovery failed — both outside mu, so one tenant
	// replaying a long journal never stalls another tenant's requests.
	// A failed slot stays here as a cached verdict: repeated submits to
	// a broken tenant return the recovery error without re-replaying
	// the journal (permanent until an operator intervenes and restarts).
	pending map[string]*tenantSlot
	// draining refuses new intake; guarded by mu together with wg.Add so
	// Drain cannot race an admission past the flag.
	draining bool
	wg       sync.WaitGroup

	// process-wide counters
	submits    expvar.Int
	sheds      expvar.Int
	duplicates expvar.Int
	rejected   expvar.Int
}

// NewServer builds a serving core.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		schIdx:  cfg.Schema.index(),
		tenants: make(map[string]*tenant),
		pending: make(map[string]*tenantSlot),
	}
}

// tenantSlot is a tenant creation in flight (or failed): ready closes
// once t/err are final. Concurrent first requests for the same tenant
// share one recovery; a failed recovery is cached so later requests
// answer immediately instead of re-replaying a journal that cannot
// recover.
type tenantSlot struct {
	ready chan struct{}
	t     *tenant
	err   error
}

// tenantFor returns the named tenant, creating (and, with a data dir,
// recovering) it on first use. nil with no error means the tenant table
// is full; an error means recovery of the tenant's journal failed.
//
// Creation — which may replay an arbitrarily long journal suffix —
// runs OUTSIDE the server-wide lock: requests for other tenants
// proceed while one tenant recovers, and concurrent requests for the
// recovering tenant wait on its slot rather than redoing the work. A
// tenant whose recovery failed keeps its slot (and its place in the
// tenant table count) with the error cached.
func (s *Server) tenantFor(name string) (*tenant, error) {
	s.mu.Lock()
	if t, ok := s.tenants[name]; ok {
		s.mu.Unlock()
		return t, nil
	}
	if slot, ok := s.pending[name]; ok {
		s.mu.Unlock()
		<-slot.ready
		return slot.t, slot.err
	}
	if len(s.tenants)+len(s.pending) >= s.cfg.MaxTenants {
		s.mu.Unlock()
		return nil, nil
	}
	slot := &tenantSlot{ready: make(chan struct{})}
	s.pending[name] = slot
	s.mu.Unlock()

	t, err := s.newTenant(name)
	slot.t, slot.err = t, err
	s.mu.Lock()
	if err == nil {
		s.tenants[name] = t
		delete(s.pending, name)
	}
	s.mu.Unlock()
	close(slot.ready)
	return t, err
}

// lookup returns an existing tenant or nil (introspection endpoints do
// not create tenants).
func (s *Server) lookup(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[name]
}

// admit claims one of the tenant's MaxInflight in-flight slots, reporting
// false when all are taken.
func (s *Server) admit(t *tenant) bool {
	for {
		n := t.inflight.Load()
		if n >= int64(s.cfg.MaxInflight) {
			return false
		}
		if t.inflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// retryAfter derives the shed backoff hint from the runner template's
// backoff configuration, doubling with the tenant's consecutive-shed
// streak so sustained overload pushes clients out further (bounded by
// the backoff ceiling).
func (s *Server) retryAfter(t *tenant) time.Duration {
	base := s.cfg.Runner.Backoff.Base
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	ceil := s.cfg.Runner.Backoff.Max
	if ceil <= 0 {
		ceil = 2 * time.Second
	}
	streak := t.shedStreak.Load()
	if streak > 16 {
		streak = 16
	}
	d := base << streak
	if d > ceil || d <= 0 {
		d = ceil
	}
	return d
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", s.handleSubmit)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/varz", expvar.Handler())
	mux.HandleFunc("/statez", s.handleStatez)
	mux.HandleFunc("/journalz", s.handleJournalz)
	mux.HandleFunc("/timeline", s.handleTimeline)
	return mux
}

// reply writes a JSON body with status.
func reply(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// shed writes a typed retryable rejection with Retry-After.
func (s *Server) shed(w http.ResponseWriter, t *tenant, status int, code, msg string) {
	s.sheds.Add(1)
	var after time.Duration
	if t != nil {
		t.shed.Add(1)
		t.shedStreak.Add(1)
		after = s.retryAfter(t)
	} else {
		after = 100 * time.Millisecond
	}
	w.Header().Set("Retry-After", strconv.FormatInt(int64((after+time.Second-1)/time.Second), 10))
	reply(w, status, ErrorReply{Error: msg, Code: code, RetryAfterMS: after.Milliseconds()})
}

// tenantName resolves the request's tenant (header wins over query).
func tenantName(r *http.Request) string {
	if t := r.Header.Get("X-Janus-Tenant"); t != "" {
		return t
	}
	return r.URL.Query().Get("tenant")
}

// handleSubmit is the intake path: drain gate, decode+validate, tenant
// resolution, admission, deadline propagation, execution, status
// mapping. Every rejection is typed; retryable ones carry Retry-After.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		reply(w, http.StatusMethodNotAllowed, ErrorReply{Error: "POST only", Code: CodeMethod})
		return
	}
	s.submits.Add(1)

	// Drain gate: the flag and the WaitGroup increment are one atomic
	// step under mu, so Drain's wg.Wait covers every admitted request.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.Add(1)
		s.shed(w, nil, http.StatusServiceUnavailable, CodeDraining, "server draining")
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()

	name := tenantName(r)
	if err := validateTenantName(name); err != nil {
		s.rejected.Add(1)
		reply(w, http.StatusBadRequest, ErrorReply{Error: err.Error(), Code: CodeBadRequest})
		return
	}
	// The frame goes back to the pool once the reply is written: the run
	// has returned by then, and with it every worker that ran its tasks.
	f := takeFrame(s.schIdx)
	defer f.release()
	b, err := f.read(r.Body, s.cfg.MaxBody)
	if err != nil {
		s.rejected.Add(1)
		reply(w, http.StatusBadRequest, ErrorReply{Error: err.Error(), Code: CodeBadRequest})
		return
	}
	tasks, err := f.compile(b)
	if err != nil {
		s.rejected.Add(1)
		reply(w, http.StatusBadRequest, ErrorReply{Error: err.Error(), Code: CodeBadRequest})
		return
	}
	t, terr := s.tenantFor(name)
	if terr != nil {
		// The tenant's journal exists but cannot be recovered honestly:
		// refuse to serve guessed state. Permanent until an operator
		// intervenes, so no Retry-After.
		s.rejected.Add(1)
		reply(w, http.StatusInternalServerError, ErrorReply{Error: terr.Error(), Code: CodeRecovery})
		return
	}
	if t == nil {
		s.rejected.Add(1)
		s.shed(w, nil, http.StatusTooManyRequests, CodeTenantLimit, "tenant table full")
		return
	}

	if !s.admit(t) {
		s.shed(w, t, http.StatusTooManyRequests, CodeOverloaded, "tenant in-flight window full")
		return
	}
	defer t.inflight.Add(-1)
	t.shedStreak.Store(0)

	// Deadline propagation: the batch deadline (clamped) bounds queue
	// wait plus the run, parented on the request context so a client
	// disconnect cancels the run the same way.
	d := s.cfg.DefaultDeadline
	if b.DeadlineMS > 0 {
		d = time.Duration(b.DeadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()

	res, err := t.runBatch(ctx, b, tasks)
	if err != nil {
		s.writeRunError(w, r, t, err)
		return
	}
	f.reply = appendResult(f.reply[:0], &res)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(f.reply)
}

// writeRunError maps a batch execution error to its typed reply.
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, t *tenant, err error) {
	var dup *duplicateError
	switch {
	case errors.As(err, &dup):
		// The original verdict rides along: the seq the batch committed at
		// and the digest it produced, so a client that lost the ack (e.g.
		// to a server crash after the journal append) can confirm its
		// batch applied exactly once.
		s.duplicates.Add(1)
		reply(w, http.StatusConflict, ErrorReply{
			Error: err.Error(), Code: CodeDuplicate,
			Applied: int64(dup.seq), Digest: rec.FormatDigest(dup.digest),
		})
	case errors.As(err, new(*journalError)):
		// The batch ran but could not be journaled: not applied, not
		// acked — the invariant holds and the client may retry.
		t.failed.Add(1)
		s.shed(w, t, http.StatusServiceUnavailable, CodeJournal, err.Error())
	case r.Context().Err() != nil:
		// The client went away (or its own deadline fired): the batch was
		// not applied; nobody is reading, but keep the accounting honest.
		t.failed.Add(1)
		reply(w, StatusCanceled, ErrorReply{Error: "client canceled", Code: CodeCanceled})
	case errors.Is(err, context.DeadlineExceeded):
		t.failed.Add(1)
		s.shed(w, t, http.StatusGatewayTimeout, CodeDeadline, "batch deadline exceeded; state unchanged")
	case errors.Is(err, context.Canceled):
		t.failed.Add(1)
		reply(w, StatusCanceled, ErrorReply{Error: "canceled", Code: CodeCanceled})
	default:
		var rle *janus.RetryLimitError
		if errors.As(err, &rle) {
			// Speculation starved: congestion, not a workload fault.
			t.failed.Add(1)
			s.shed(w, t, http.StatusServiceUnavailable, CodeRetryExhausted,
				fmt.Sprintf("task %d exhausted its retry budget (%d); state unchanged", rle.Task, rle.Retries))
			return
		}
		t.failed.Add(1)
		reply(w, http.StatusUnprocessableEntity, ErrorReply{Error: err.Error(), Code: CodeBatchFailed})
	}
}

// HealthReply is the /healthz body.
type HealthReply struct {
	Status  string                  `json:"status"` // ok | draining
	Tenants map[string]TenantHealth `json:"tenants"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	ts := make(map[string]*tenant, len(s.tenants))
	for n, t := range s.tenants {
		ts[n] = t
	}
	s.mu.Unlock()
	rep := HealthReply{Status: "ok", Tenants: make(map[string]TenantHealth, len(ts))}
	status := http.StatusOK
	if draining {
		rep.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	for n, t := range ts {
		rep.Tenants[n] = t.snapshot()
	}
	reply(w, status, rep)
}

// StateReply is the /statez body: the tenant's committed digest and
// applied count — what the oracle compares against.
type StateReply struct {
	Tenant  string `json:"tenant"`
	Digest  string `json:"digest"`
	Applied int64  `json:"applied"`
	// Values are the committed counter values (string-rendered), a
	// human-readable spot check alongside the digest.
	Values map[string]string `json:"values,omitempty"`
}

func (s *Server) handleStatez(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(tenantName(r))
	if t == nil {
		reply(w, http.StatusNotFound, ErrorReply{Error: "unknown tenant", Code: CodeUnknownTenant})
		return
	}
	// Under the gate the store holds the last applied batch's state, never
	// one a running batch may still undo.
	if err := t.acquire(r.Context()); err != nil {
		reply(w, StatusCanceled, ErrorReply{Error: "client canceled", Code: CodeCanceled})
		return
	}
	st := t.store.State()
	snap := t.snapshot()
	t.release()
	vals := make(map[string]string, len(s.cfg.Schema.Counters))
	for _, c := range s.cfg.Schema.Counters {
		vals[c] = stateVal(st, c)
	}
	reply(w, http.StatusOK, StateReply{
		Tenant: t.name, Digest: snap.Digest, Applied: snap.Applied, Values: vals,
	})
}

// JournalReply is the /journalz body: applied batch IDs in commit order
// (the most recent Config.DedupWindow of them: the exactly-once index
// is the journal).
type JournalReply struct {
	Tenant  string   `json:"tenant"`
	Applied int64    `json:"applied"`
	IDs     []string `json:"ids"`
}

func (s *Server) handleJournalz(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(tenantName(r))
	if t == nil {
		reply(w, http.StatusNotFound, ErrorReply{Error: "unknown tenant", Code: CodeUnknownTenant})
		return
	}
	t.mu.Lock()
	ids := make([]string, len(t.seenOrder))
	for i, e := range t.seenOrder {
		ids[i] = e.id
	}
	applied := t.applied
	t.mu.Unlock()
	reply(w, http.StatusOK, JournalReply{Tenant: t.name, Applied: applied, IDs: ids})
}

// handleTimeline streams the tenant's protocol timeline as NDJSON,
// reusing the per-tenant obs trace. One shot by default; with ?follow=1
// it polls the trace until the client disconnects, emitting the events
// recorded since the last poll (each exactly once, ordered by start
// time within a poll).
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(tenantName(r))
	if t == nil {
		reply(w, http.StatusNotFound, ErrorReply{Error: "unknown tenant", Code: CodeUnknownTenant})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	var cursor janus.TraceCursor
	emit := func() {
		var evs []janus.TraceEvent
		evs, cursor = t.trace.Since(cursor)
		for _, ev := range evs {
			_ = enc.Encode(map[string]any{
				"type": ev.Type.String(), "when_ns": ev.When, "dur_ns": ev.Dur,
				"worker": ev.Worker, "task": ev.Task, "attempt": ev.Attempt,
				"reason": ev.Reason, "loc": ev.Loc, "detail": ev.Detail,
			})
		}
		if fl != nil {
			fl.Flush()
		}
	}
	emit()
	if r.URL.Query().Get("follow") == "" {
		return
	}
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
			emit()
		}
	}
}

// Drain stops intake and waits for every in-flight request to finish,
// bounded by ctx. On a clean drain it returns nil; on timeout it returns
// ctx's error with in-flight work still running (the caller dumps flight
// recorders and exits abnormally).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain timed out: %w", context.Cause(ctx))
	}
}

// DumpFlight writes every tenant's flight-recorder ring into dir as
// flight-<tenant>.jtrace, returning the paths written. Called on
// abnormal exit (a drain timeout, a dead listener) so the last
// window of committed traffic survives for `janus replay`.
func (s *Server) DumpFlight(dir string) ([]string, error) {
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	var paths []string
	var firstErr error
	for _, t := range ts {
		// The digest of the last applied batch: a batch still running when
		// the drain gave up holds the recorder's mark, and the dump stops
		// at it.
		t.mu.Lock()
		t.rec.Close(t.digest)
		t.mu.Unlock()
		p := filepath.Join(dir, "flight-"+t.name+".jtrace")
		if err := t.rec.WriteFile(p); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		paths = append(paths, p)
	}
	return paths, firstErr
}

// Vars returns the server's expvar-shaped snapshot; `janus serve`
// publishes it as "janus.serve".
func (s *Server) Vars() map[string]any {
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	ts := make(map[string]*tenant, len(s.tenants))
	for n, t := range s.tenants {
		names = append(names, n)
		ts[n] = t
	}
	draining := s.draining
	s.mu.Unlock()
	sort.Strings(names)
	tenants := make(map[string]any, len(names))
	for _, n := range names {
		tenants[n] = ts[n].snapshot()
	}
	return map[string]any{
		"draining":   draining,
		"submits":    s.submits.Value(),
		"sheds":      s.sheds.Value(),
		"duplicates": s.duplicates.Value(),
		"rejected":   s.rejected.Value(),
		"tenants":    tenants,
	}
}
