// Package rec captures JANUS runs as replayable binary traces — the
// record half of ROADMAP item 5. The runtime already observes every
// operation a task performs (that hindsight is the paper's premise, §3);
// the recorder persists that observation: each committed transaction's op
// log (method, location, arguments and observed results), framed into
// CRC32-checked chunks (see encode.go for the format), and at Close the
// digest of the state the run left, which replay must reach.
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
//     replay-verifiable digest, and neither does a dump of a recorder
//     that was never closed.
//
// When no recorder is configured the stm hot path pays a single nil
// check (stm.Config.Record == nil), asserted zero-alloc by
// TestDisabledRecordingAddsNoAllocs.
package rec

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/fsio"
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
	Chunks        int   `json:"chunks"`
	EvictedChunks int   `json:"evicted_chunks"`
	Bytes         int64 `json:"bytes"`
	Dumps         int   `json:"dumps"`
	Lossy         bool  `json:"lossy"`
}

// Recorder captures commits into chunked frames. It implements
// stm.CommitSink. All methods are safe for concurrent use.
type Recorder struct {
	meta    Meta
	opts    Options
	initial *state.State

	mu          sync.Mutex
	cur         *enc     // open chunk body
	sealed      [][]byte // completed chunk frames, oldest first
	sealedBytes int64
	evicted     int
	commits     int64
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
// the string-table size, and the commit count.
type recMark struct {
	buf, tab int
	commits  int64
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
		buf: len(r.cur.buf), tab: len(r.cur.tab), commits: r.commits,
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
	r.commits = m.commits
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

// Close seals the capture with the digest of the state the recorded
// commits left — a failed run's too, since the runtime keeps what its
// commits published; later commits are dropped, and dumps carry the
// digest as DigestFinal, which replay must reach.
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
	body, commits := r.keptLocked()
	if len(body) > 0 {
		out = append(out, chunkFrame(body)...)
	}

	kind := DigestNone
	if r.closed {
		kind = DigestFinal
	}
	out = append(out, footerFrame(commits, r.evicted > 0, r.lossy, kind, r.finalDigest, r.evicted, r.lossyDetail)...)

	n, err := w.Write(out)
	if err == nil {
		r.dumps++ // only successful dumps count as produced artifacts
	}
	return int64(n), err
}

// keptLocked returns what a dump holds of the open chunk, and the commit
// count that goes with it: everything, or under an open mark what
// precedes it. Back-references only point backwards, so the prefix decodes
// on its own.
func (r *Recorder) keptLocked() (body []byte, commits int64) {
	if r.marked {
		return r.cur.buf[:r.mark.buf], r.mark.commits
	}
	return r.cur.buf, r.commits
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
	case *state.IntList:
		h = relation.HashUint64(relation.HashUint64(h, uint64(valList)), uint64(len(*x)))
		for _, n := range *x {
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
