package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
	// ascending.
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

// scanSegment reads one segment file. It returns the records of the
// valid prefix, the byte length of that prefix, and a non-nil *Error
// describing the first invalid frame (nil when the whole file is
// valid). It never panics on crafted input.
func scanSegment(path string) (recs []Record, validLen int64, serr *Error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, &Error{Reason: BadRecord, Detail: "reading segment", Err: err}
	}
	if len(buf) < segHdrSize {
		return nil, 0, walErr(Torn, "segment of %d bytes is shorter than its header", len(buf))
	}
	if string(buf[:len(segMagic)]) != segMagic {
		return nil, 0, walErr(BadMagic, "not a journal segment")
	}
	if buf[len(segMagic)] != segFormat {
		return nil, 0, walErr(BadFormat, "segment format %d, this build reads %d", buf[len(segMagic)], segFormat)
	}
	pos := segHdrSize
	for pos < len(buf) {
		rec, next, rerr := decodeRecordFrame(buf, pos)
		if rerr != nil {
			return recs, int64(pos), rerr
		}
		recs = append(recs, rec)
		pos = next
	}
	return recs, int64(pos), nil
}

// decodeRecordFrame parses one record frame at off, returning the
// record and the offset past it.
func decodeRecordFrame(buf []byte, off int) (Record, int, *Error) {
	var rec Record
	if buf[off] != recMarker {
		return rec, 0, walErr(BadRecord, "unknown frame marker 0x%02x at offset %d", buf[off], off)
	}
	plen, n := binary.Uvarint(buf[off+1:])
	if n <= 0 {
		return rec, 0, walErr(Torn, "record truncated in frame length at offset %d", off)
	}
	body := off + 1 + n
	if plen > uint64(len(buf)-body) || uint64(len(buf)-body)-plen < 4 {
		return rec, 0, walErr(Torn, "record of %d bytes runs past end of segment at offset %d", plen, off)
	}
	payload := buf[body : body+int(plen)]
	sum := binary.LittleEndian.Uint32(buf[body+int(plen):])
	if crc32.ChecksumIEEE(payload) != sum {
		return rec, 0, walErr(BadChecksum, "record CRC mismatch at offset %d", off)
	}

	d := &snapDec{buf: payload}
	rec.Seq = d.uvarint()
	rec.ID = string(d.bytes(d.uvarint()))
	rec.Payload = append([]byte(nil), d.bytes(d.uvarint())...)
	rec.Digest = d.u64le()
	if d.err == nil && d.pos != len(payload) {
		d.fail(BadRecord, "%d trailing bytes inside record payload", len(payload)-d.pos)
	}
	if d.err != nil {
		var te *Error
		if e, ok := d.err.(*Error); ok {
			te = e
		} else {
			te = &Error{Reason: BadRecord, Err: d.err}
		}
		return rec, 0, te
	}
	return rec, body + int(plen) + 4, nil
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
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating journal dir: %w", err)
	}
	if opts.Policy != FsyncNever {
		// Make the journal directory itself durable: record fsyncs are
		// useless if a machine crash forgets the directory ever existed.
		fsio.SyncDir(filepath.Dir(dir))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: scanning journal dir: %w", err)
	}
	var snapSeqs, segStarts []uint64
	for _, ent := range entries {
		// Stray fsio temps (crash mid-snapshot, before the rename) are
		// never valid artifacts — they are invisible until renamed — so
		// recovery deletes them rather than letting them accumulate
		// across crash/restart cycles. Other unknown names are ignored.
		if name := ent.Name(); len(name) > 0 && name[0] == '.' && strings.Contains(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
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
		buf, rerr := os.ReadFile(filepath.Join(dir, snapName(seq)))
		if rerr == nil {
			snap, derr := DecodeSnapshot(buf)
			if derr == nil {
				rcv.Snapshot = &snap
				break
			}
			var we *Error
			if errors.As(derr, &we) && we.Reason == BadFormat {
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
	for i, start := range segStarts {
		path := filepath.Join(dir, segName(start))
		if damaged {
			rcv.Truncations++
			rcv.TruncateDetail = append(rcv.TruncateDetail,
				fmt.Sprintf("removed segment %s stranded after damage", segName(start)))
			os.Remove(path)
			continue
		}
		if i+1 < len(segStarts) && segStarts[i+1] <= snapSeq+1 {
			continue // fully covered by the snapshot
		}
		segRecs, validLen, serr := scanSegment(path)
		if serr != nil {
			switch serr.Reason {
			case BadMagic, BadFormat:
				// Not our file or from another build: refuse to guess.
				return nil, nil, fmt.Errorf("wal: segment %s: %w", segName(start), serr)
			}
			damaged = true
			rcv.Truncations++
			if validLen < int64(segHdrSize) {
				rcv.TruncateDetail = append(rcv.TruncateDetail,
					fmt.Sprintf("removed segment %s (%v)", segName(start), serr))
				os.Remove(path)
			} else {
				rcv.TruncateDetail = append(rcv.TruncateDetail,
					fmt.Sprintf("truncated segment %s to %d bytes (%v)", segName(start), validLen, serr))
				if terr := os.Truncate(path, validLen); terr != nil {
					return nil, nil, fmt.Errorf("wal: truncating damaged segment: %w", terr)
				}
			}
		}
		if len(segRecs) > 0 && segRecs[0].Seq != start {
			return nil, nil, walErr(SeqGap, "segment %s starts at seq %d, not %d",
				segName(start), segRecs[0].Seq, start)
		}
		recs = append(recs, segRecs...)
	}

	// Contiguity across everything that survived, then filter to the
	// suffix the snapshot does not cover.
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			return nil, nil, walErr(SeqGap, "journal jumps from seq %d to %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
	keep := recs[:0]
	for _, r := range recs {
		if r.Seq > snapSeq {
			keep = append(keep, r)
		}
	}
	rcv.Records = append([]Record(nil), keep...)
	if len(rcv.Records) > 0 && rcv.Records[0].Seq != snapSeq+1 {
		return nil, nil, walErr(SeqGap, "journal resumes at seq %d but snapshot covers through %d",
			rcv.Records[0].Seq, snapSeq)
	}

	nextSeq := snapSeq + 1
	if snapSeq == 0 {
		nextSeq = 1
	}
	if n := len(rcv.Records); n > 0 {
		nextSeq = rcv.Records[n-1].Seq + 1
	}

	l := &Log{dir: dir, opts: opts.withDefaults(), nextSeq: nextSeq}
	if err := l.reopen(segStarts); err != nil {
		return nil, nil, err
	}
	if l.opts.Policy == FsyncGroup {
		l.startFlusher()
	}
	return l, rcv, nil
}

// reopen resumes appending into the newest surviving segment, or starts
// a fresh one when none exists.
func (l *Log) reopen(segStarts []uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(segStarts) - 1; i >= 0; i-- {
		path := filepath.Join(l.dir, segName(segStarts[i]))
		info, err := os.Stat(path)
		if err != nil {
			continue // removed during damage repair
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: reopening segment: %w", err)
		}
		l.f = f
		l.segStart = segStarts[i]
		l.segBytes = info.Size()
		return nil
	}
	return l.openSegmentLocked(l.nextSeq)
}
