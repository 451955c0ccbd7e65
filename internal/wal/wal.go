// Package wal is the durability layer under the serving tier: a
// per-tenant write-ahead journal of applied batches plus point-in-time
// snapshots, built from the frames internal/rec's trace format uses too
// (internal/fsio: magic + version prefix, varint fields, a CRC32 over
// every frame, typed never-panic rejection of anything malformed).
//
// The contract the serving layer builds on:
//
//   - Append happens BEFORE the batch is acknowledged. Under
//     FsyncAlways an acknowledged batch is therefore durable against
//     machine crashes; under every policy it is durable against process
//     death (`kill -9`), because written bytes survive the process in
//     the page cache.
//   - Records carry the journal sequence number, the batch ID, an
//     opaque payload (the serving layer stores the wire-format batch,
//     which its sequential oracle replays), and the digest of the state
//     the apply produced — so recovery verifies every replayed record
//     against the digest recorded at commit time.
//   - Segments are append-only and rotate at a size bound; a snapshot
//     at sequence S makes every segment whose records are all ≤ S
//     garbage, which Truncate collects. Recovery therefore reads one
//     snapshot plus a bounded journal suffix.
//   - A torn tail (crash mid-append) or a CRC-corrupt record is
//     detected, reported with a typed *fsio.FrameError, physically
//     truncated at the last valid record, and counted — never panicked
//     on, never silently replayed.
//
// Every file call goes through Options.FS (fsio.OS in production), so
// internal/serve's tests can record a run's calls and recover every
// state a crash may leave on disk (DESIGN.md §13).
package wal

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fsio"
)

// Policy selects when appends reach stable storage.
type Policy uint8

// Fsync policies.
const (
	// FsyncAlways fsyncs every append before it returns: an acknowledged
	// batch survives machine power loss. The safest and slowest.
	FsyncAlways Policy = iota
	// FsyncGroup writes appends immediately but fsyncs on a background
	// interval (group commit): bounded data loss on machine crash, none
	// on process crash.
	FsyncGroup
	// FsyncNever leaves syncing entirely to the OS.
	FsyncNever
)

// String renders the policy as the -fsync flag spells it.
func (p Policy) String() string {
	switch p {
	case FsyncGroup:
		return "group"
	case FsyncNever:
		return "never"
	default:
		return "always"
	}
}

// ParsePolicy parses the -fsync flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "group":
		return FsyncGroup, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always, group, or never)", s)
}

// Options tunes a journal.
type Options struct {
	// Policy is the fsync policy (default FsyncAlways).
	Policy Policy
	// GroupInterval is the background fsync cadence under FsyncGroup;
	// 0 means 25ms.
	GroupInterval time.Duration
	// SegmentBytes rotates the active segment once it crosses this size;
	// 0 means 4 MiB.
	SegmentBytes int64
	// FS is the file system the journal lives on; nil means fsio.OS.
	FS fsio.FS
}

func (o Options) withDefaults() Options {
	if o.GroupInterval <= 0 {
		o.GroupInterval = 25 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FS == nil {
		o.FS = fsio.OS
	}
	return o
}

// Record is one journal entry: a monotonically increasing sequence
// number (1-based, no gaps), the batch's idempotency ID, the opaque
// batch payload recovery replays, and the digest of the state the apply
// produced.
type Record struct {
	Seq     uint64
	ID      string
	Payload []byte
	Digest  uint64
}

// ErrPoisoned reports an operation on a log poisoned by an earlier I/O
// failure whose effect on the segment tail could not be undone. Nothing
// further is written: an append after an untrusted tail could bury an
// acked record behind garbage (silently discarded at recovery as a torn
// tail) or duplicate a sequence number (recovery fails with SeqGap).
// The only way forward is a restart through Recover, which truncates
// the tail back to the last valid record.
var ErrPoisoned = fmt.Errorf("wal: journal poisoned by earlier I/O failure; restart via Recover")

// Segment file layout (fsio's frames):
//
//	segment := fsio.header("JANUSWAL", 2) record*
//	record  := 'R' frame(payload)
//	payload := uvarint(seq) uvarint(len(id)) id
//	           uvarint(len(data)) data u64le(digest)
//
// Append-only: no footer (a footer would need rewriting per append).
// Integrity is per-record; completeness is the seq contiguity check at
// recovery.
const (
	segMagic   = "JANUSWAL"
	segFormat  = byte(2)
	recMarker  = byte('R')
	segHdrSize = len(segMagic) + 1
)

func segName(startSeq uint64) string { return fmt.Sprintf("wal-%016x.seg", startSeq) }
func snapName(seq uint64) string     { return fmt.Sprintf("snap-%016x.jsnap", seq) }
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(prefix)+16], "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// encodeRecord renders one record's on-disk frame.
func encodeRecord(r Record) []byte {
	payload := make([]byte, 0, 3*binary.MaxVarintLen64+len(r.ID)+len(r.Payload)+8)
	payload = binary.AppendUvarint(payload, r.Seq)
	payload = binary.AppendUvarint(payload, uint64(len(r.ID)))
	payload = append(payload, r.ID...)
	payload = binary.AppendUvarint(payload, uint64(len(r.Payload)))
	payload = append(payload, r.Payload...)
	payload = binary.LittleEndian.AppendUint64(payload, r.Digest)
	frame := append(make([]byte, 0, 1+binary.MaxVarintLen64+len(payload)+4), recMarker)
	return fsio.AppendFrame(frame, payload)
}

// Log is one tenant's open journal. All methods are safe for concurrent
// use; appends themselves are expected to be serialized by the caller's
// commit path (the serving layer's per-tenant gate) and are verified to
// carry contiguous sequence numbers.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        fsio.File
	segStart uint64 // first seq of the active segment
	segBytes int64
	nextSeq  uint64
	deadErr  error // non-nil once the log is poisoned (ErrPoisoned)
	appends  int64
	syncs    int64

	// fsMu serializes snapshot publication and truncation against each
	// other; the append path never takes it.
	fsMu sync.Mutex

	flushStop chan struct{}
	flushDone chan struct{}
}

// NextSeq returns the sequence number the next Append must carry.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Stats is a point-in-time view of journal activity.
type Stats struct {
	NextSeq  uint64 `json:"next_seq"`
	Appends  int64  `json:"appends"`
	Syncs    int64  `json:"syncs"`
	SegStart uint64 `json:"segment_start"`
	SegBytes int64  `json:"segment_bytes"`
}

// Stats snapshots the counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{NextSeq: l.nextSeq, Appends: l.appends, Syncs: l.syncs, SegStart: l.segStart, SegBytes: l.segBytes}
}

// poisonLocked marks the log permanently dead with a cause: the
// segment tail can no longer be trusted, so every later operation
// fails with ErrPoisoned instead of writing after the damage. Caller
// holds mu.
func (l *Log) poisonLocked(cause error) {
	if l.deadErr == nil {
		l.deadErr = fmt.Errorf("%w: %w", ErrPoisoned, cause)
	}
}

// Append writes one record, durably per the policy, before returning.
// rec.Seq must be exactly NextSeq — the serving layer derives it from
// the applied-batch count its gate serializes.
//
// A failed append never leaves the journal in a state that could
// corrupt later acked records: a partial write is physically truncated
// back to the last good offset (the log stays usable), and if the
// truncate fails — or an fsync fails, after which the kernel may have
// silently dropped the dirty pages — the log is poisoned so nothing is
// ever written after an untrusted tail.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.deadErr != nil {
		return l.deadErr
	}
	if rec.Seq != l.nextSeq {
		return fsio.Errorf(fsio.SeqGap, "append seq %d, journal expects %d", rec.Seq, l.nextSeq)
	}
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	frame := encodeRecord(rec)
	if _, err := l.f.Write(frame); err != nil {
		// A short write left garbage mid-segment. Cut the file back to
		// the known-good offset so the next append lands after valid
		// bytes; if even that fails the tail is untrusted — poison.
		werr := fmt.Errorf("wal: appending record %d: %w", rec.Seq, err)
		if terr := l.f.Truncate(l.segBytes); terr != nil {
			l.poisonLocked(fmt.Errorf("appending record %d: %v; truncating damaged tail: %w", rec.Seq, err, terr))
		}
		return werr
	}
	if l.opts.Policy == FsyncAlways {
		if err := l.f.Sync(); err != nil {
			// After a failed fsync the page cache is untrustworthy (the
			// kernel may have dropped the dirty pages and a later fsync
			// can falsely succeed), and the frame for this seq may or may
			// not be on disk. Poison: allowing another append could write
			// a duplicate seq (recovery fails SeqGap) or bury this frame.
			// The batch was never acked, so recovery deciding either way
			// is honest; a retry after restart gets a 409 iff it survived.
			l.poisonLocked(fmt.Errorf("syncing record %d: %w", rec.Seq, err))
			return fmt.Errorf("wal: syncing record %d: %w", rec.Seq, err)
		}
		l.syncs++
	}
	l.nextSeq++
	l.segBytes += int64(len(frame))
	l.appends++
	return nil
}

// Sync flushes the active segment (the group-commit flusher's body;
// also useful before a planned handoff). A failed fsync poisons the
// log — the kernel may have dropped the dirty pages, so records
// written since the last good sync can no longer be promised durable
// and further appends would extend an untrusted tail.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.deadErr != nil {
		return l.deadErr
	}
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.poisonLocked(fmt.Errorf("syncing segment: %w", err))
		return err
	}
	l.syncs++
	return nil
}

// rotateLocked seals the active segment and starts a new one at nextSeq.
// l.f may be nil when a previous rotation sealed the old segment but
// failed to open its successor; the retry goes straight to opening.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			l.poisonLocked(fmt.Errorf("syncing sealed segment: %w", err))
			return fmt.Errorf("wal: syncing sealed segment: %w", err)
		}
		if err := l.f.Close(); err != nil {
			l.f = nil
			l.poisonLocked(fmt.Errorf("closing sealed segment: %w", err))
			return fmt.Errorf("wal: closing sealed segment: %w", err)
		}
		l.f = nil
	}
	return l.openSegmentLocked(l.nextSeq)
}

// openSegmentLocked creates the segment starting at startSeq and writes
// its header. The journal directory is fsynced so the new segment's
// directory entry survives a machine crash — without it, record fsyncs
// reach a file no directory mentions, and recovery would silently
// resume before every batch the segment holds. A failed directory fsync
// therefore poisons the log, as a failed record fsync does.
func (l *Log) openSegmentLocked(startSeq uint64) error {
	path := filepath.Join(l.dir, segName(startSeq))
	f, err := l.opts.FS.Create(path)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if _, err := f.Write(fsio.AppendHeader(nil, segMagic, segFormat)); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if l.opts.Policy != FsyncNever {
		if err := l.opts.FS.SyncDir(l.dir); err != nil {
			f.Close()
			l.poisonLocked(fmt.Errorf("syncing journal directory: %w", err))
			return fmt.Errorf("wal: syncing journal directory: %w", err)
		}
	}
	l.f = f
	l.segStart = startSeq
	l.segBytes = int64(segHdrSize)
	return nil
}

// Close stops the group flusher and closes the active segment. A final
// sync makes a planned shutdown durable under every policy.
func (l *Log) Close() error {
	if l.flushStop != nil {
		close(l.flushStop)
		<-l.flushDone
		l.flushStop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.deadErr == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// startFlusher runs the group-commit fsync loop.
func (l *Log) startFlusher() {
	l.flushStop = make(chan struct{})
	l.flushDone = make(chan struct{})
	go func() {
		defer close(l.flushDone)
		t := time.NewTicker(l.opts.GroupInterval)
		defer t.Stop()
		for {
			select {
			case <-l.flushStop:
				return
			case <-t.C:
				l.Sync() //nolint:errcheck // best-effort cadence; Close does a final sync
			}
		}
	}()
}
