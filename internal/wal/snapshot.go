package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/fsio"
)

// Snapshot is a point-in-time image of a tenant at journal sequence Seq:
// the encoded shared state (internal/rec's inline state codec), its
// digest, and the exactly-once seen index — the batch IDs inside the
// serving layer's dedup retention window with the sequence and digest
// each produced, so a restart can answer duplicate submissions with the
// original verdict even for batches whose journal records have been
// truncated away.
type Snapshot struct {
	// Seq is the journal sequence the snapshot covers: the state image
	// reflects records 1..Seq.
	Seq uint64
	// Digest is rec.Digest of the snapshotted state.
	Digest uint64
	// State is the rec.EncodeState rendering of the shared state.
	State []byte
	// Seen is the exactly-once index, sorted by Seq ascending.
	Seen []SeenEntry
}

// SeenEntry records one applied batch for duplicate detection.
type SeenEntry struct {
	ID     string
	Seq    uint64
	Digest uint64
}

// Snapshot file layout (fsio's frames):
//
//	file    := fsio.header("JANUSSNP", 2) frame(payload)
//	payload := uvarint(seq) u64le(digest)
//	           uvarint(len(state)) state
//	           uvarint(len(seen)) seen*
//	seen    := uvarint(len(id)) id uvarint(seq) u64le(digest)
//
// One frame, one CRC: a snapshot is valid whole or rejected whole.
const (
	snapMagic  = "JANUSSNP"
	snapFormat = byte(2)
)

func encodeSnapshot(s Snapshot) []byte {
	var payload []byte
	payload = binary.AppendUvarint(payload, s.Seq)
	payload = binary.LittleEndian.AppendUint64(payload, s.Digest)
	payload = binary.AppendUvarint(payload, uint64(len(s.State)))
	payload = append(payload, s.State...)
	payload = binary.AppendUvarint(payload, uint64(len(s.Seen)))
	for _, e := range s.Seen {
		payload = binary.AppendUvarint(payload, uint64(len(e.ID)))
		payload = append(payload, e.ID...)
		payload = binary.AppendUvarint(payload, e.Seq)
		payload = binary.LittleEndian.AppendUint64(payload, e.Digest)
	}
	return fsio.AppendFrame(fsio.AppendHeader(nil, snapMagic, snapFormat), payload)
}

// DecodeSnapshot parses a snapshot file's bytes, verifying magic,
// format, and CRC. Malformed input yields a typed *fsio.FrameError, never
// a panic.
func DecodeSnapshot(buf []byte) (Snapshot, error) {
	off, err := fsio.CheckHeader(buf, snapMagic, snapFormat)
	if err != nil {
		return Snapshot{}, err
	}
	payload, next, err := fsio.NextFrame(buf, off)
	if err != nil {
		return Snapshot{}, err
	}
	if next != len(buf) {
		return Snapshot{}, fsio.Errorf(fsio.BadRecord, "%d trailing bytes after snapshot frame", len(buf)-next)
	}
	d := fsio.NewReader(payload)
	s := Snapshot{Seq: d.Uvarint(), Digest: d.U64LE()}
	s.State = append([]byte(nil), d.Bytes(d.Uvarint())...)
	nSeen := d.Count("seen-index")
	for i := 0; i < nSeen && d.Err() == nil; i++ {
		var e SeenEntry
		e.ID = string(d.Bytes(d.Uvarint()))
		e.Seq = d.Uvarint()
		e.Digest = d.U64LE()
		s.Seen = append(s.Seen, e)
	}
	if err := d.Done(); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// WriteSnapshot publishes a snapshot atomically and then truncates every
// journal segment the snapshot fully covers, plus older snapshots. The
// append path keeps running concurrently: snapshot publication only
// touches sealed segments (a segment is removed only if the NEXT
// segment's start seq is ≤ snap.Seq+1, so the active segment and any
// segment holding uncovered records survive).
func (l *Log) WriteSnapshot(snap Snapshot) error {
	l.fsMu.Lock()
	defer l.fsMu.Unlock()
	l.mu.Lock()
	var dead error
	if l.dead {
		dead = l.deadErrLocked()
	}
	l.mu.Unlock()
	if dead != nil {
		return dead
	}

	buf := encodeSnapshot(snap)
	path := filepath.Join(l.dir, snapName(snap.Seq))
	a, err := fsio.NewAtomic(path)
	if err != nil {
		return err
	}
	defer a.Abort()
	half := len(buf) / 2
	if _, err := a.Write(buf[:half]); err != nil {
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if l.trip(PointSnapshotMid) {
		return ErrCrashed
	}
	if _, err := a.Write(buf[half:]); err != nil {
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if l.trip(PointSnapshotRenameBefore) {
		return ErrCrashed
	}
	if err := a.Publish(); err != nil {
		return err
	}
	if l.trip(PointSnapshotRenameAfter) {
		return ErrCrashed
	}
	return l.truncateCoveredLocked(snap.Seq)
}

// truncateCoveredLocked removes snapshots older than snapSeq and journal
// segments whose every record is ≤ snapSeq. Caller holds fsMu.
func (l *Log) truncateCoveredLocked(snapSeq uint64) error {
	if l.trip(PointTruncateBefore) {
		return ErrCrashed
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: scanning for truncation: %w", err)
	}
	var segs []uint64
	for _, ent := range entries {
		if seq, ok := parseSeqName(ent.Name(), "snap-", ".jsnap"); ok && seq < snapSeq {
			os.Remove(filepath.Join(l.dir, snapName(seq)))
			continue
		}
		if seq, ok := parseSeqName(ent.Name(), "wal-", ".seg"); ok {
			segs = append(segs, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	l.mu.Lock()
	active := l.segStart
	l.mu.Unlock()
	for i, start := range segs {
		// A segment's records run [start, nextStart); it is fully covered
		// only if the following segment begins at or before snapSeq+1.
		// The active segment is never removed.
		if start == active || i+1 >= len(segs) || segs[i+1] > snapSeq+1 {
			continue
		}
		os.Remove(filepath.Join(l.dir, segName(start)))
	}
	return nil
}
