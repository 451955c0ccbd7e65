package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	janus "repro"
	"repro/internal/rec"
	"repro/internal/wal"
)

// tenant is one client namespace: its own Runner (own spec cache handle),
// its own committed store, its own flight recorder and trace, its own
// durable journal when the server has a data dir, and its own admission
// counters. Nothing a tenant does — thrash on conflicts, wedge on its
// deadline, flood its queue — touches another tenant's runner, state, or
// journal.
type tenant struct {
	name   string
	runner *janus.Runner
	trace  *janus.Trace
	rec    *rec.Recorder

	// gate serializes batch application per tenant: batches are atomic
	// state transitions, so two cannot interleave. Waiters are bounded by
	// admission (inflight cap), never unbounded. The gate also guards
	// store: whoever reads the committed state out of it holds the gate.
	gate chan struct{}

	// store is the tenant's committed state, opened once after recovery:
	// every batch runs on it, and a batch that fails is undone in it.
	store *janus.Store

	// mu guards the committed state's digest (computed once per applied
	// batch) and the applied-batch index.
	mu      sync.Mutex
	digest  uint64
	applied int64
	// seen maps applied batch IDs to the journal position and state
	// digest their commit produced: the exactly-once index. A duplicate
	// submission is refused with the original verdict (409 carrying that
	// seq and digest) — including after a restart, because the index is
	// rebuilt from the snapshot's seen table plus the journal suffix.
	// Failed batches never enter it, so the client can retry the same ID.
	// Retention is bounded by dedupWindow: seenOrder lists the indexed
	// entries in journal order and the oldest are evicted past the
	// window, keeping the index (and every snapshot it rides in) finite.
	// seenOrder is also the journal /journalz lists.
	seen      map[string]appliedBatch
	seenOrder []seenAt
	// dedupWindow is Config.DedupWindow, copied at creation (<=0 means
	// unbounded).
	dedupWindow int

	// wal is the tenant's durable journal; nil without a data dir.
	// Appends happen under the gate (which serializes them) before the
	// in-memory state swap and before the client sees an ack.
	wal *wal.Log
	// jbuf is the journal payload buffer, reused by each append under
	// the gate.
	jbuf []byte
	// snapEvery is the server's snapshot cadence in applied batches,
	// copied at creation (<=0 disables).
	snapEvery int
	// lastSnap is the journal seq the newest published snapshot covers.
	lastSnap atomic.Uint64
	// snapBusy serializes background snapshots; snapWG lets shutdown wait
	// for one in flight.
	snapBusy atomic.Bool
	snapWG   sync.WaitGroup

	// inflight counts admitted-but-unfinished submits; admission caps it
	// at MaxInflight.
	inflight atomic.Int64
	// shedStreak counts consecutive sheds; Retry-After scales with it so
	// a persistently overloaded tenant's clients spread further out.
	shedStreak atomic.Int64

	// counters for /healthz and /varz
	accepted  atomic.Int64 // batches applied
	shed      atomic.Int64 // typed 429/503 rejections
	failed    atomic.Int64 // batch_failed / deadline / canceled outcomes
	retries   atomic.Int64 // cumulative run retries
	commits   atomic.Int64 // cumulative task commits
	runNanos  atomic.Int64 // cumulative run wall time
	snapshots atomic.Int64 // snapshots published
	snapErrs  atomic.Int64 // snapshot attempts that failed

	// set once at recovery, read-only after: repair actions the boot scan
	// took (operator-visible — the journal lost a suffix or a crash tore
	// an append) and snapshot files it had to skip.
	recTruncations int64
	recBadSnaps    int64
}

// journalBufKeep is the largest journal payload buffer a tenant keeps
// between appends.
const journalBufKeep = 64 << 10

// appliedBatch is one seen-index entry: where in the journal a batch
// landed and the state digest its commit produced.
type appliedBatch struct {
	seq    uint64
	digest uint64
}

// seenAt is one retention-window entry: which ID was applied at which
// journal seq. The seq rides along so eviction of an old occurrence
// never deletes a newer apply of the same ID (possible once the ID
// aged out of the window and was legitimately re-applied).
type seenAt struct {
	id  string
	seq uint64
}

// newTenant builds a tenant from the server's runner template. With a
// data dir the tenant's state, applied count, and seen index are first
// recovered from its journal (see durable.go); the runner then gets a
// per-tenant flight recorder as its commit sink and a per-tenant trace
// feeding the timeline endpoint, and opens the tenant's store over the
// recovered state.
func (s *Server) newTenant(name string) (*tenant, error) {
	t := &tenant{
		name:        name,
		gate:        make(chan struct{}, 1),
		seen:        make(map[string]appliedBatch),
		dedupWindow: s.cfg.DedupWindow,
	}
	st := InitialState(s.cfg.Schema)
	if s.cfg.DataDir != "" {
		t.snapEvery = s.cfg.SnapshotEvery
		var err error
		if st, err = s.recoverTenant(t, st); err != nil {
			return nil, err
		}
	}
	t.digest = rec.Digest(st)
	cfg := s.cfg.Runner
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = s.cfg.RetryBudget
	}
	t.trace = janus.NewTrace(s.cfg.TraceLane)
	cfg.Trace = t.trace
	t.rec = rec.New(rec.Meta{
		Workload: "serve:" + name,
		Detector: cfg.Detection.String(),
		Ordered:  true,
		Threads:  cfg.Threads,
	}, st, rec.Options{FlightChunks: s.cfg.FlightChunks})
	cfg.Record = t.rec
	t.runner = janus.New(cfg)
	t.store = t.runner.Open(st)
	return t, nil
}

// acquire takes the tenant's run gate, giving up when ctx expires (the
// batch deadline covers queue wait, not just the run).
func (t *tenant) acquire(ctx context.Context) error {
	select {
	case t.gate <- struct{}{}:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

func (t *tenant) release() { <-t.gate }

// runBatch applies one compiled batch atomically: run it on the tenant's
// store with ordered commits, journal the outcome durably, and only then
// publish the new digest and acknowledge. Any error — deadline, task
// failure, retry exhaustion, journal append failure — undoes the run in
// the store and rewinds the flight recorder to its mark, leaving state,
// journal, recording and seen-set exactly as before, so the client can
// safely retry the same batch ID.
//
// The durability ordering is the tentpole invariant: the WAL append
// (fsynced under FsyncAlways) happens under the gate, after the run
// succeeds, BEFORE the new digest is published and the ack. A crash after
// the append but before the reply leaves a durable record for a batch the
// client never saw acknowledged; recovery replays it and the client's
// retry gets the original verdict as a 409.
func (t *tenant) runBatch(ctx context.Context, b *Batch, tasks []janus.Task) (BatchResult, error) {
	if err := t.acquire(ctx); err != nil {
		return BatchResult{}, err
	}
	defer t.release()

	t.mu.Lock()
	if ab, dup := t.seen[b.ID]; dup {
		t.mu.Unlock()
		return BatchResult{}, &duplicateError{id: b.ID, seq: ab.seq, digest: ab.digest}
	}
	seq := uint64(t.applied) + 1
	t.mu.Unlock()

	// Not journaled ⇒ not applied: every way out but the ack takes the
	// run back out of the store and the recording.
	applied := false
	t.rec.Mark()
	defer func() {
		if !applied {
			t.store.Undo()
			t.rec.Rewind()
		}
	}()

	start := time.Now()
	stats, err := t.store.RunInOrderCtx(ctx, tasks)
	elapsed := time.Since(start)
	t.runNanos.Add(int64(elapsed))
	t.retries.Add(stats.Run.Retries)
	if err != nil {
		return BatchResult{}, err
	}
	t.commits.Add(stats.Run.Commits)

	var d rec.Digester
	t.store.Range(func(l janus.Loc, v janus.Value) bool {
		d.Add(l, v)
		return true
	})
	digest64 := d.Sum()
	if t.wal != nil {
		// The journal copies the payload, so the buffer is reused; one
		// grown past journalBufKeep by a huge batch is let go.
		t.jbuf = appendBatch(t.jbuf[:0], b)
		aerr := t.wal.Append(wal.Record{Seq: seq, ID: b.ID, Payload: t.jbuf, Digest: digest64})
		if cap(t.jbuf) > journalBufKeep {
			t.jbuf = nil
		}
		if aerr != nil {
			// The client gets a retryable journal error, preserving
			// ack ⇒ durable.
			return BatchResult{}, &journalError{err: fmt.Errorf("serve: journaling batch %q: %w", b.ID, aerr)}
		}
	}
	applied = true
	t.rec.Keep()

	t.mu.Lock()
	t.digest = digest64
	t.applied++
	n := t.applied
	t.seen[b.ID] = appliedBatch{seq: seq, digest: digest64}
	t.seenOrder = append(t.seenOrder, seenAt{id: b.ID, seq: seq})
	t.evictSeenLocked()
	digest := rec.FormatDigest(digest64)
	t.mu.Unlock()

	t.accepted.Add(1)
	t.maybeSnapshot()
	return BatchResult{
		ID:        b.ID,
		Tenant:    t.name,
		Tasks:     len(tasks),
		Commits:   stats.Run.Commits,
		Retries:   stats.Run.Retries,
		Digest:    digest,
		Applied:   n,
		ElapsedMS: elapsed.Milliseconds(),
	}, nil
}

// evictSeenLocked enforces the dedup retention window: once the seen
// index exceeds dedupWindow entries, the oldest (lowest journal seq)
// are dropped. An ID older than the window stops being refused as a
// duplicate — that is the documented retention trade; the alternative
// is an index (and snapshot) that grows forever. Caller holds t.mu.
func (t *tenant) evictSeenLocked() {
	if t.dedupWindow <= 0 {
		return
	}
	n := len(t.seenOrder) - t.dedupWindow
	if n <= 0 {
		return
	}
	for _, e := range t.seenOrder[:n] {
		// Only drop the map entry this occurrence owns: a re-applied ID
		// (aged out, then resubmitted) has a newer entry at a later seq.
		if ab, ok := t.seen[e.id]; ok && ab.seq == e.seq {
			delete(t.seen, e.id)
		}
	}
	// Reslice, never slide: the dead prefix goes when append next outgrows
	// the array and copies the live window, so an eviction costs O(1)
	// amortised instead of a memmove of the whole window per batch.
	t.seenOrder = t.seenOrder[n:]
}

// snapshot reads the tenant's introspection view for /healthz.
func (t *tenant) snapshot() TenantHealth {
	t.mu.Lock()
	applied := t.applied
	journalLen := len(t.seenOrder)
	digest := rec.FormatDigest(t.digest)
	t.mu.Unlock()
	th := TenantHealth{
		Inflight:   t.inflight.Load(),
		Applied:    applied,
		JournalLen: int64(journalLen),
		Digest:     digest,
		Accepted:   t.accepted.Load(),
		Shed:       t.shed.Load(),
		Failed:     t.failed.Load(),
		Commits:    t.commits.Load(),
		Retries:    t.retries.Load(),
	}
	if t.wal != nil {
		th.WalSeq = t.wal.NextSeq() - 1
		th.SnapshotSeq = t.lastSnap.Load()
		th.Snapshots = t.snapshots.Load()
		th.SnapshotErrs = t.snapErrs.Load()
		th.RecoveredTruncations = t.recTruncations
		th.RecoveredBadSnapshots = t.recBadSnaps
	}
	return th
}

// TenantHealth is one tenant's row in the /healthz reply. The journal
// fields appear only for durable tenants.
type TenantHealth struct {
	Inflight   int64  `json:"inflight"`
	Applied    int64  `json:"applied"`
	JournalLen int64  `json:"journal_len,omitempty"`
	Digest     string `json:"digest"`
	Accepted   int64  `json:"accepted"`
	Shed       int64  `json:"shed"`
	Failed     int64  `json:"failed"`
	Commits    int64  `json:"commits"`
	Retries    int64  `json:"retries"`
	// WalSeq is the last durably journaled sequence; SnapshotSeq the seq
	// the newest snapshot covers (recovery replays the difference).
	WalSeq       uint64 `json:"wal_seq,omitempty"`
	SnapshotSeq  uint64 `json:"snapshot_seq,omitempty"`
	Snapshots    int64  `json:"snapshots,omitempty"`
	SnapshotErrs int64  `json:"snapshot_errs,omitempty"`
	// RecoveredTruncations counts repair actions boot recovery took (torn
	// or corrupt journal tails cut back); RecoveredBadSnapshots counts
	// snapshot files it skipped as invalid. Nonzero values are the
	// operator signal that a crash or disk fault damaged the journal.
	RecoveredTruncations  int64 `json:"recovered_truncations,omitempty"`
	RecoveredBadSnapshots int64 `json:"recovered_bad_snapshots,omitempty"`
}
