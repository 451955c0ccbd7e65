package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// Snapshot file layout:
//
//	file    := magic format frame
//	magic   := "JANUSSNP" (8 raw bytes)
//	frame   := uvarint(len(payload)) payload crc32(payload, 4B LE)
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

	out := append([]byte(snapMagic), snapFormat)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// snapDec is a bounds-checked cursor over a snapshot payload; any
// overrun latches a typed error, mirroring internal/rec's decoder.
type snapDec struct {
	buf []byte
	pos int
	err error
}

func (d *snapDec) fail(reason Reason, format string, args ...any) {
	if d.err == nil {
		d.err = walErr(reason, format, args...)
	}
}

func (d *snapDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail(BadRecord, "truncated uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *snapDec) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.pos) {
		d.fail(BadRecord, "field of %d bytes exceeds payload at offset %d", n, d.pos)
		return nil
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b
}

func (d *snapDec) u64le() uint64 {
	b := d.bytes(8)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// DecodeSnapshot parses a snapshot file's bytes, verifying magic,
// format, and CRC. Malformed input yields a typed *Error, never a
// panic.
func DecodeSnapshot(buf []byte) (Snapshot, error) {
	var s Snapshot
	if len(buf) < len(snapMagic)+1 {
		return s, walErr(Torn, "snapshot of %d bytes is shorter than its header", len(buf))
	}
	if string(buf[:len(snapMagic)]) != snapMagic {
		return s, walErr(BadMagic, "not a snapshot file")
	}
	if buf[len(snapMagic)] != snapFormat {
		return s, walErr(BadFormat, "snapshot format %d, this build reads %d", buf[len(snapMagic)], snapFormat)
	}
	rest := buf[len(snapMagic)+1:]
	plen, n := binary.Uvarint(rest)
	if n <= 0 {
		return s, walErr(Torn, "snapshot truncated in frame length")
	}
	rest = rest[n:]
	if plen > uint64(len(rest)) || uint64(len(rest))-plen < 4 {
		return s, walErr(Torn, "snapshot frame of %d bytes exceeds file", plen)
	}
	payload := rest[:plen]
	sum := binary.LittleEndian.Uint32(rest[plen : plen+4])
	if crc32.ChecksumIEEE(payload) != sum {
		return s, walErr(BadChecksum, "snapshot frame CRC mismatch")
	}
	if uint64(len(rest)) != plen+4 {
		return s, walErr(BadRecord, "%d trailing bytes after snapshot frame", uint64(len(rest))-plen-4)
	}

	d := &snapDec{buf: payload}
	s.Seq = d.uvarint()
	s.Digest = d.u64le()
	s.State = append([]byte(nil), d.bytes(d.uvarint())...)
	nSeen := d.uvarint()
	if d.err == nil && nSeen > uint64(len(payload)) {
		// Each entry costs at least a few bytes; a count beyond the
		// payload length is structurally impossible.
		d.fail(BadRecord, "seen-index count %d exceeds payload", nSeen)
	}
	for i := uint64(0); i < nSeen && d.err == nil; i++ {
		var e SeenEntry
		e.ID = string(d.bytes(d.uvarint()))
		e.Seq = d.uvarint()
		e.Digest = d.u64le()
		s.Seen = append(s.Seen, e)
	}
	if d.err != nil {
		return Snapshot{}, d.err
	}
	if d.pos != len(payload) {
		return Snapshot{}, walErr(BadRecord, "%d trailing bytes inside snapshot payload", len(payload)-d.pos)
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
