// Package rec captures JANUS runs as replayable binary traces — the
// record half of ROADMAP item 5. The runtime already observes every
// operation a task performs (that hindsight is the paper's premise, §3);
// the recorder persists that observation: each committed transaction's op
// log (method, location, arguments and observed results) plus the
// protocol event stream, framed into CRC32-checked chunks (see encode.go
// for the format).
//
// Two capture modes share one implementation:
//
//   - Stream capture keeps every sealed chunk in memory and writes the
//     complete artifact at Close. Used by `janus bench -record`.
//   - Flight-recorder capture (Options.FlightChunks > 0) bounds the
//     in-memory chunk ring, evicting the oldest sealed chunks. A dump —
//     `janus serve`'s on an abnormal exit — snapshots whatever the ring
//     holds into a complete, self-validating artifact.
//     Evictions mark the dump truncated; its footer then carries no
//     replay-verifiable digest.
//
// When no recorder is configured the stm hot path pays a single nil
// check (stm.Config.Record == nil), asserted zero-alloc by
// TestDisabledRecordingAddsNoAllocs.
package rec

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/relation"
	"repro/internal/state"
)

// Meta identifies the recorded run so replay can reconstruct its
// configuration.
type Meta struct {
	Workload string
	Detector string
	Ordered  bool
	Threads  int
	Tasks    int
	Seed     int64
}

// Options tunes the recorder.
type Options struct {
	// ChunkBytes seals a chunk once its body reaches this size.
	// 0 means DefaultChunkBytes.
	ChunkBytes int
	// FlightChunks, when > 0, bounds the sealed-chunk ring (flight
	// recorder mode); 0 keeps everything (stream capture).
	FlightChunks int
}

// DefaultChunkBytes is the chunk-seal threshold when unset.
const DefaultChunkBytes = 64 << 10

// Stats summarizes a recorder's activity.
type Stats struct {
	Commits       int64 `json:"commits"`
	Events        int64 `json:"events"`
	Chunks        int   `json:"chunks"`
	EvictedChunks int   `json:"evicted_chunks"`
	Bytes         int64 `json:"bytes"`
	Dumps         int   `json:"dumps"`
	Lossy         bool  `json:"lossy"`
}

// Recorder captures commits and events into chunked frames. It
// implements stm.CommitSink; Tracer wraps an obs tracer to tee events.
// All methods are safe for concurrent use.
type Recorder struct {
	meta    Meta
	opts    Options
	initial *state.State
	epoch   time.Time

	mu          sync.Mutex
	cur         *enc     // open chunk body
	curRecords  int      // records in cur
	sealed      [][]byte // completed chunk frames, oldest first
	sealedBytes int64
	evicted     int
	commits     int64
	events      int64
	dumps       int
	closed      bool
	finalDigest uint64
	lossy       bool
	lossyDetail string

	// marked says a mark is open, and mark is where the recorder stood
	// when it was taken (Mark).
	marked bool
	mark   recMark
}

// recMark is a recorder position inside its open chunk: the body length,
// the string-table size, and the counts.
type recMark struct {
	buf, tab        int
	records         int
	commits, events int64
}

// New builds a recorder for a run starting from initial (snapshotted —
// callers may mutate their state afterwards).
func New(meta Meta, initial *state.State, opts Options) *Recorder {
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = DefaultChunkBytes
	}
	return &Recorder{
		meta:    meta,
		opts:    opts,
		initial: initial.Clone(),
		epoch:   time.Now(),
		cur:     newEnc(false),
	}
}

// ObserveCommitted records one committed transaction: its op log in
// execution order, each op's observed value, and the commit's global
// clock value. It implements stm.CommitSink.
func (r *Recorder) ObserveCommitted(task int, commitTime int64, log oplog.Log) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	// Vet before writing: a mid-record failure would strand string-table
	// entries, so an unencodable log is skipped whole and the trace
	// marked lossy instead.
	if err := encodableLog(log); err != nil {
		if !r.lossy {
			r.lossy = true
			r.lossyDetail = err.Error()
		}
		return
	}
	e := r.cur
	e.byte(recTxn)
	e.u(uint64(task))
	e.u(uint64(commitTime))
	e.u(uint64(len(log)))
	for _, ev := range log {
		e.op(ev.Op)
		if ev.Observed != nil {
			e.byte(1)
			e.value(ev.Observed)
		} else {
			e.byte(0)
		}
	}
	r.commits++
	r.curRecords++
	r.maybeSealLocked()
}

// recordEvent captures one protocol event.
func (r *Recorder) recordEvent(ev obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	e := r.cur
	e.byte(recEvent)
	e.byte(byte(ev.Type))
	e.i(ev.When)
	e.i(ev.Dur)
	e.i(int64(ev.Worker))
	e.i(int64(ev.Task))
	e.i(int64(ev.Attempt))
	e.str(ev.Reason)
	e.str(ev.Loc)
	e.str(ev.Detail)
	r.events++
	r.curRecords++
	r.maybeSealLocked()
}

// Mark takes a mark at what the recorder holds now: Rewind drops
// everything recorded after it, Keep keeps it. While the mark is open the
// open chunk does not seal, and a dump holds only what precedes the mark.
// A server marks before each batch and rewinds when the batch fails, so
// the trace holds the batches that were applied and nothing else.
func (r *Recorder) Mark() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.marked = true
	r.mark = recMark{
		buf: len(r.cur.buf), tab: len(r.cur.tab), records: r.curRecords,
		commits: r.commits, events: r.events,
	}
}

// Rewind drops what was recorded since the open mark, string-table
// entries included, and closes the mark.
func (r *Recorder) Rewind() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.marked {
		return
	}
	m := r.mark
	r.cur.buf = r.cur.buf[:m.buf]
	for s, idx := range r.cur.tab {
		if idx >= uint64(m.tab) {
			delete(r.cur.tab, s)
		}
	}
	r.curRecords, r.commits, r.events = m.records, m.commits, m.events
	r.marked = false
}

// Keep closes the open mark, keeping what was recorded since.
func (r *Recorder) Keep() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.marked = false
	r.maybeSealLocked()
}

// maybeSealLocked seals the open chunk once it crosses the size
// threshold, evicting the oldest sealed frame in flight mode. It does not
// seal under an open mark.
func (r *Recorder) maybeSealLocked() {
	if r.marked || len(r.cur.buf) < r.opts.ChunkBytes {
		return
	}
	frame := chunkFrame(r.cur.buf)
	r.sealed = append(r.sealed, frame)
	r.sealedBytes += int64(len(frame))
	r.cur = newEnc(false)
	r.curRecords = 0
	if r.opts.FlightChunks > 0 {
		for len(r.sealed) > r.opts.FlightChunks {
			r.sealedBytes -= int64(len(r.sealed[0]))
			// Clear the head before reslicing: the backing array would
			// otherwise keep the evicted frame reachable, letting flight
			// mode transiently hold ~double its configured memory bound.
			r.sealed[0] = nil
			r.sealed = r.sealed[1:]
			r.evicted++
		}
	}
}

// teeTracer forwards events to an inner tracer (when any) and records
// them.
type teeTracer struct {
	r     *Recorder
	inner obs.Tracer
}

// Emit records and forwards.
func (t *teeTracer) Emit(ev obs.Event) {
	t.r.recordEvent(ev)
	if t.inner != nil {
		t.inner.Emit(ev)
	}
}

// Now delegates to the inner tracer's clock so span timestamps stay on
// one epoch; without one it falls back to the recorder's own epoch.
func (t *teeTracer) Now() int64 {
	if t.inner != nil {
		return t.inner.Now()
	}
	return int64(time.Since(t.r.epoch))
}

// Tracer wraps inner so every emitted event is also captured in the
// trace. inner may be nil (record-only).
func (r *Recorder) Tracer(inner obs.Tracer) obs.Tracer {
	return &teeTracer{r: r, inner: inner}
}

// Close seals the capture with the digest of the run's final state;
// subsequent commits and events are dropped, and dumps carry the
// definitive final-state digest. digest is 0 when the run failed before
// producing a final state.
func (r *Recorder) Close(digest uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.finalDigest = digest
}

// Stats reports capture counters.
func (r *Recorder) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Commits:       r.commits,
		Events:        r.events,
		Chunks:        len(r.sealed),
		EvictedChunks: r.evicted,
		Bytes:         r.sealedBytes + int64(len(r.cur.buf)),
		Dumps:         r.dumps,
		Lossy:         r.lossy,
	}
}

// WriteTo dumps a complete artifact: header, every retained chunk, the
// still-open chunk, and a footer. Each call is a full self-contained
// snapshot, so the flight recorder can dump on every incident without
// coordinating with a later final write. Implements io.WriterTo.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	out, err := buildPrelude(r.meta, r.initial)
	if err != nil {
		return 0, err
	}
	for _, frame := range r.sealed {
		out = append(out, frame...)
	}
	body, commits, events := r.keptLocked()
	if len(body) > 0 {
		out = append(out, chunkFrame(body)...)
	}

	truncated := r.evicted > 0
	kind, digest := DigestNone, uint64(0)
	switch {
	case r.closed && r.finalDigest != 0:
		kind, digest = DigestFinal, r.finalDigest
	case !truncated && !r.lossy:
		// Mid-run dump with a complete lossless history: derive the
		// digest by replaying our own retained frames. Commit-order
		// replay of committed logs reconstructs the published state
		// exactly (serializability).
		if d, derr := r.deriveDigestLocked(); derr == nil {
			kind, digest = DigestDerived, d
		}
	}
	out = append(out, footerFrame(commits, events, truncated, r.lossy, kind, digest, r.evicted, r.lossyDetail)...)

	n, err := w.Write(out)
	if err == nil {
		r.dumps++ // only successful dumps count as produced artifacts
	}
	return int64(n), err
}

// keptLocked returns what a dump holds of the open chunk, and the commit
// and event counts that go with it: everything, or under an open mark
// what precedes it. Back-references only point backwards, so the prefix
// decodes on its own.
func (r *Recorder) keptLocked() (body []byte, commits, events int64) {
	if r.marked {
		return r.cur.buf[:r.mark.buf], r.mark.commits, r.mark.events
	}
	return r.cur.buf, r.commits, r.events
}

// deriveDigestLocked replays the retained transactions over the initial
// state. Caller holds r.mu; only valid with no evictions and no loss.
func (r *Recorder) deriveDigestLocked() (uint64, error) {
	var txns []TxnRecord
	for _, frame := range r.sealed {
		payload, _, err := fsio.NextFrame(frame, 1) // past the 'C' marker
		if err != nil {
			return 0, err
		}
		chunk, err := decodeChunk(payload)
		if err != nil {
			return 0, err
		}
		txns = append(txns, chunk.txns...)
	}
	body, _, _ := r.keptLocked()
	cur, err := decodeRecords(body)
	if err != nil {
		return 0, err
	}
	txns = append(txns, cur.txns...)
	// Commits arrive at the sink in publish order per worker but may
	// interleave across workers; sort into the serialization order.
	sort.SliceStable(txns, func(i, j int) bool { return txns[i].CommitTime < txns[j].CommitTime })
	st := r.initial.Clone()
	if err := applyInCommitOrder(st, txns); err != nil {
		return 0, err
	}
	return Digest(st), nil
}

// WriteFile dumps the current capture to path atomically (fsio's
// temp+fsync+rename idiom, so a crash mid-dump can't leave a torn
// artifact and the published dump is world-readable).
func (r *Recorder) WriteFile(path string) error {
	err := fsio.WriteAtomicFunc(path, func(w io.Writer) error {
		_, werr := r.WriteTo(w)
		return werr
	})
	if err != nil {
		return fmt.Errorf("rec: writing trace file: %w", err)
	}
	return nil
}

// Digest fingerprints a state: the wrapping sum, over its bound
// locations, of a hash of (location, value), finalised with the location
// count (relation's digest.go). A relation contributes the digest it keeps
// incrementally, so the cost is O(locations), never O(tuples), with no
// sort and no rendering. Every digest on disk or on the wire is this one;
// the segment, snapshot and trace formats are versioned with it.
func Digest(st *state.State) uint64 {
	var d Digester
	st.Range(func(l state.Loc, v state.Value) bool {
		d.Add(l, v)
		return true
	})
	return d.Sum()
}

// Digester computes Digest one location at a time, for a state that is
// not a *state.State (a committed store ranged in place). Add each bound
// location once, in any order.
type Digester struct {
	sum uint64
	n   int
}

// Add folds one bound location into the digest.
func (d *Digester) Add(l state.Loc, v state.Value) {
	d.sum += relation.HashMix(hashValue(relation.HashString(relation.HashSeed, string(l)), v))
	d.n++
}

// Sum returns the digest of the locations added so far.
func (d *Digester) Sum() uint64 { return relation.SetDigest(d.sum, d.n) }

// hashValue folds v, tagged with its wire type, into h.
func hashValue(h uint64, v state.Value) uint64 {
	switch x := v.(type) {
	case state.Int:
		return relation.HashUint64(relation.HashUint64(h, uint64(valInt)), uint64(x))
	case state.Str:
		return relation.HashString(relation.HashUint64(h, uint64(valStr)), string(x))
	case state.Bool:
		var b uint64
		if x {
			b = 1
		}
		return relation.HashUint64(relation.HashUint64(h, uint64(valBool)), b)
	case state.IntList:
		h = relation.HashUint64(relation.HashUint64(h, uint64(valList)), uint64(len(x)))
		for _, n := range x {
			h = relation.HashUint64(h, uint64(n))
		}
		return h
	case state.Rel:
		return relation.HashUint64(relation.HashUint64(h, uint64(valRel)), x.R.Digest())
	default: // no wire type either (encodableValue): fold its rendering
		return relation.HashString(h, v.String())
	}
}

// FormatDigest renders a digest the way the CLIs print it.
func FormatDigest(d uint64) string { return fmt.Sprintf("%016x", d) }
