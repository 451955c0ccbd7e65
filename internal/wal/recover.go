package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/fsio"
)

// Recovered reports what Recover found and did. The serving layer
// rebuilds tenant state from it: decode Snapshot.State (when present),
// replay Records through the sequential oracle verifying each digest,
// and rebuild the exactly-once seen index from Snapshot.Seen + Records.
type Recovered struct {
	// Snapshot is the newest valid snapshot, nil when none exists.
	Snapshot *Snapshot
	// Records are the journal records after the snapshot (seq >
	// Snapshot.Seq, or all records with no snapshot), contiguous and
	// ascending. Their payloads alias the segment buffers Recover read,
	// which belong to the caller from then on.
	Records []Record
	// Truncations counts repair actions taken: torn tails and corrupt
	// records cut at the last valid prefix, dangling later segments
	// removed. Zero on a clean boot; nonzero is operator-visible (the
	// journal lost something or a crash interrupted an append).
	Truncations int
	// TruncateDetail describes each repair, for logs.
	TruncateDetail []string
	// BadSnapshots counts snapshot files that failed validation and were
	// skipped in favor of an older one.
	BadSnapshots int
}

// ScanSegment decodes a journal segment's bytes. It returns the records
// of the valid prefix, the byte length of that prefix, and a
// *fsio.FrameError describing the first invalid frame (nil when the whole
// segment is valid). It never panics on crafted input. A record a
// snapshot covers (Seq <= covered) keeps its seq but gets no ID: Recover
// checks its place in the sequence and then drops it.
//
// A record's Payload is not copied: it aliases buf (capped at its own
// length, so an append cannot reach the next frame). The caller owns buf
// and must not change it while it reads the records; Recover reads each
// segment into a buffer of its own and hands that buffer over with the
// records.
func ScanSegment(buf []byte, covered uint64) (recs []Record, validLen int, err error) {
	pos, err := fsio.CheckHeader(buf, segMagic, segFormat)
	if err != nil {
		return nil, 0, err
	}
	for pos < len(buf) {
		if buf[pos] != recMarker {
			return recs, pos, fsio.Errorf(fsio.BadRecord, "unknown frame marker 0x%02x at offset %d", buf[pos], pos)
		}
		payload, next, err := fsio.NextFrame(buf, pos+1)
		if err != nil {
			return recs, pos, err
		}
		d := fsio.NewReader(payload)
		var rec Record
		rec.Seq = d.Uvarint()
		if id := d.Bytes(d.Uvarint()); rec.Seq > covered {
			rec.ID = string(id)
		}
		if p := d.Bytes(d.Uvarint()); len(p) > 0 {
			rec.Payload = p[:len(p):len(p)]
		}
		rec.Digest = d.U64LE()
		if err := d.Done(); err != nil {
			return recs, pos, err
		}
		recs = append(recs, rec)
		pos = next
	}
	return recs, pos, nil
}

// syncPath makes the journal directory's path durable before the first
// record can be acked: record fsyncs are useless if a machine crash
// forgets a directory on the path ever existed. It syncs the parent of
// every directory this boot created (a data directory made on a first
// boot), deepest first, and the journal directory's own entry even when
// it existed. A boot that created nothing but finds no segment and no
// snapshot may follow a first boot that died between creating the
// directories and syncing them, so it syncs the parent of the journal
// directory and of every directory above it.
func syncPath(fsys fsio.FS, dir string, created []string, entries []fs.DirEntry) error {
	if len(created) == 0 {
		created = []string{dir}
		if !slices.ContainsFunc(entries, isJournalFile) {
			for d := filepath.Dir(dir); d != filepath.Dir(d); d = filepath.Dir(d) {
				created = append(created, d)
			}
		}
	}
	for _, d := range created {
		if err := fsys.SyncDir(filepath.Dir(d)); err != nil {
			return fmt.Errorf("wal: syncing the parent of %s: %w", d, err)
		}
	}
	return nil
}

// isJournalFile reports whether a directory entry is a segment or a
// snapshot.
func isJournalFile(ent fs.DirEntry) bool {
	_, snap := parseSeqName(ent.Name(), "snap-", ".jsnap")
	_, seg := parseSeqName(ent.Name(), "wal-", ".seg")
	return snap || seg
}

// Recover scans dir (creating it if absent), selects the newest valid
// snapshot, reads the journal suffix it does not cover, repairs torn or
// corrupt tails by truncating at the last valid record (removing any
// segments stranded after the cut), verifies the surviving records form
// a contiguous sequence, and reopens the journal for appending.
//
// Unrepairable damage — a missing span of records (SeqGap), an
// unreadable directory — fails with a typed error and no open log:
// recovery refuses to silently serve a tenant whose history has holes.
func Recover(dir string, opts Options) (*Log, *Recovered, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	created, err := fsio.MkdirAll(fsys, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: creating journal dir: %w", err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: scanning journal dir: %w", err)
	}
	if opts.Policy != FsyncNever {
		if err := syncPath(fsys, dir, created, entries); err != nil {
			return nil, nil, err
		}
	}
	var snapSeqs, segStarts []uint64
	for _, ent := range entries {
		// Stray fsio temps (crash mid-snapshot, before the rename) are
		// never valid artifacts — they are invisible until renamed — so
		// recovery deletes them rather than letting them accumulate
		// across crash/restart cycles. Other unknown names are ignored.
		if name := ent.Name(); len(name) > 0 && name[0] == '.' && strings.Contains(name, ".tmp") {
			fsys.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseSeqName(ent.Name(), "snap-", ".jsnap"); ok {
			snapSeqs = append(snapSeqs, seq)
		} else if seq, ok := parseSeqName(ent.Name(), "wal-", ".seg"); ok {
			segStarts = append(segStarts, seq)
		}
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] })
	sort.Slice(segStarts, func(i, j int) bool { return segStarts[i] < segStarts[j] })

	rcv := &Recovered{}
	for _, seq := range snapSeqs {
		buf, rerr := fsys.ReadFile(filepath.Join(dir, snapName(seq)))
		if rerr == nil {
			snap, derr := DecodeSnapshot(buf)
			if derr == nil {
				rcv.Snapshot = &snap
				break
			}
			var fe *fsio.FrameError
			if errors.As(derr, &fe) && fe.Reason == fsio.BadFormat {
				// Written by another build, not damaged: refuse like a
				// segment, and leave the directory as it is.
				return nil, nil, fmt.Errorf("wal: snapshot %s: %w", snapName(seq), derr)
			}
		}
		rcv.BadSnapshots++
	}
	var snapSeq uint64
	if rcv.Snapshot != nil {
		snapSeq = rcv.Snapshot.Seq
	}

	// Scan segments oldest-first. Segments every record of which the
	// snapshot covers are skipped without validation (they are garbage
	// awaiting truncation); the rest must parse. The first invalid frame
	// ends the journal: the segment is cut back to its valid prefix and
	// later segments (unreachable without the cut records) are removed.
	var recs []Record
	damaged := false
	var tail, tailNext uint64 // the newest surviving segment and the seq its next record would carry
	var tailSize int64        // its length once any damage is cut off
	for i, start := range segStarts {
		path := filepath.Join(dir, segName(start))
		if damaged {
			rcv.Truncations++
			rcv.TruncateDetail = append(rcv.TruncateDetail,
				fmt.Sprintf("removed segment %s stranded after damage", segName(start)))
			fsys.Remove(path)
			continue
		}
		if i+1 < len(segStarts) && segStarts[i+1] <= snapSeq+1 {
			continue // fully covered by the snapshot
		}
		buf, err := fsys.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reading segment %s: %w", segName(start), err)
		}
		segRecs, validLen, serr := ScanSegment(buf, snapSeq)
		if serr != nil {
			var fe *fsio.FrameError
			if errors.As(serr, &fe) && (fe.Reason == fsio.BadMagic || fe.Reason == fsio.BadFormat) {
				// Not our file or from another build: refuse to guess.
				return nil, nil, fmt.Errorf("wal: segment %s: %w", segName(start), serr)
			}
			damaged = true
			rcv.Truncations++
			if validLen < segHdrSize {
				rcv.TruncateDetail = append(rcv.TruncateDetail,
					fmt.Sprintf("removed segment %s (%v)", segName(start), serr))
				fsys.Remove(path)
				continue
			}
			rcv.TruncateDetail = append(rcv.TruncateDetail,
				fmt.Sprintf("truncated segment %s to %d bytes (%v)", segName(start), validLen, serr))
			if terr := fsys.Truncate(path, int64(validLen)); terr != nil {
				return nil, nil, fmt.Errorf("wal: truncating damaged segment: %w", terr)
			}
		}
		if len(segRecs) > 0 && segRecs[0].Seq != start {
			return nil, nil, fsio.Errorf(fsio.SeqGap, "segment %s starts at seq %d, not %d",
				segName(start), segRecs[0].Seq, start)
		}
		recs = append(recs, segRecs...)
		tail, tailNext, tailSize = start, start+uint64(len(segRecs)), int64(validLen)
	}

	// Contiguity across everything that survived, then filter to the
	// suffix the snapshot does not cover.
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			return nil, nil, fsio.Errorf(fsio.SeqGap, "journal jumps from seq %d to %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
	keep := recs[:0]
	for _, r := range recs {
		if r.Seq > snapSeq {
			keep = append(keep, r)
		}
	}
	rcv.Records = keep
	if len(rcv.Records) > 0 && rcv.Records[0].Seq != snapSeq+1 {
		return nil, nil, fsio.Errorf(fsio.SeqGap, "journal resumes at seq %d but snapshot covers through %d",
			rcv.Records[0].Seq, snapSeq)
	}

	nextSeq := snapSeq + 1
	if snapSeq == 0 {
		nextSeq = 1
	}
	if n := len(rcv.Records); n > 0 {
		nextSeq = rcv.Records[n-1].Seq + 1
	}

	// Appending goes on in the newest surviving segment only where its
	// records end. A snapshot can reach disk ahead of a segment's
	// unsynced tail (a machine crash under group or never); a record
	// appended after that tail would be a gap the next recovery refuses,
	// so the journal resumes in a new segment instead.
	if tailNext != nextSeq {
		tail = 0
	}
	l := &Log{dir: dir, opts: opts, nextSeq: nextSeq}
	if err := l.reopen(tail, tailSize); err != nil {
		return nil, nil, err
	}
	if l.opts.Policy == FsyncGroup {
		l.startFlusher()
	}
	return l, rcv, nil
}

// reopen resumes appending into the segment starting at tail, size bytes
// long, or starts a fresh one at nextSeq when tail is 0.
func (l *Log) reopen(tail uint64, size int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tail == 0 {
		return l.openSegmentLocked(l.nextSeq)
	}
	f, err := l.opts.FS.OpenAppend(filepath.Join(l.dir, segName(tail)))
	if err != nil {
		return fmt.Errorf("wal: reopening segment: %w", err)
	}
	l.f = f
	l.segStart = tail
	l.segBytes = size
	return nil
}
