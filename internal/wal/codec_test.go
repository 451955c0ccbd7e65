package wal

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fsio"
)

// Bytes the format-2 encoders wrote before the framing moved into fsio: a
// segment holding one record, and a snapshot covering the seq before it.
// Journals on disk carry exactly these, so the encoders must keep writing
// them and recovery must keep reading them.
const (
	goldenSegment = "4a414e555357414c025222070762617463682d37107b226964223a2262617463682d37227defcdab89674523015636e1db"
	goldenSnap    = "4a414e5553534e50022106edfe000000000000057374617465010762617463682d3606edfe000000000000ccaf5337"
)

func goldenRecord() Record {
	return Record{Seq: 7, ID: "batch-7", Payload: []byte(`{"id":"batch-7"}`), Digest: 0x0123456789abcdef}
}

func goldenSnapshot() Snapshot {
	return Snapshot{Seq: 6, Digest: 0xfeed, State: []byte("state"),
		Seen: []SeenEntry{{ID: "batch-6", Seq: 6, Digest: 0xfeed}}}
}

func segmentOf(recs ...Record) []byte {
	buf := fsio.AppendHeader(nil, segMagic, segFormat)
	for _, r := range recs {
		buf = append(buf, encodeRecord(r)...)
	}
	return buf
}

func TestGoldenJournalBytes(t *testing.T) {
	seg := segmentOf(goldenRecord())
	if got := hex.EncodeToString(seg); got != goldenSegment {
		t.Fatalf("segment bytes changed:\n got %s\nwant %s", got, goldenSegment)
	}
	if got := hex.EncodeToString(encodeSnapshot(goldenSnapshot())); got != goldenSnap {
		t.Fatalf("snapshot bytes changed:\n got %s\nwant %s", got, goldenSnap)
	}

	// A journal directory holding the stored bytes recovers.
	dir := t.TempDir()
	segBytes, _ := hex.DecodeString(goldenSegment)
	snapBytes, _ := hex.DecodeString(goldenSnap)
	if err := os.WriteFile(filepath.Join(dir, segName(7)), segBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(6)), snapBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rcv := mustRecover(t, dir, testOpts())
	if rcv.Snapshot == nil || !reflect.DeepEqual(*rcv.Snapshot, goldenSnapshot()) {
		t.Fatalf("stored snapshot recovered as %+v", rcv.Snapshot)
	}
	if len(rcv.Records) != 1 || !reflect.DeepEqual(rcv.Records[0], goldenRecord()) {
		t.Fatalf("stored segment recovered as %+v", rcv.Records)
	}
	if rcv.Truncations != 0 || rcv.BadSnapshots != 0 {
		t.Fatalf("stored journal reported damage: %+v", rcv)
	}
	if l.NextSeq() != 8 {
		t.Fatalf("NextSeq %d after recovery, want 8", l.NextSeq())
	}
}

// checkTyped fails unless err is nil or a *fsio.FrameError.
func checkTyped(t *testing.T, err error) {
	t.Helper()
	var fe *fsio.FrameError
	if err != nil && !errors.As(err, &fe) {
		t.Fatalf("untyped decode error %T: %v", err, err)
	}
}

// FuzzScanSegment: arbitrary bytes never panic the segment scanner, a
// rejection is a typed error, and the valid prefix it reports holds
// records that re-encode to a segment that scans whole.
func FuzzScanSegment(f *testing.F) {
	seg := segmentOf(goldenRecord(), Record{Seq: 8, ID: "b", Digest: 1}, Record{Seq: 9})
	golden, _ := hex.DecodeString(goldenSegment)
	f.Add(golden)
	f.Add(seg)
	f.Add([]byte{})
	f.Add(seg[:segHdrSize])
	f.Add(seg[:len(seg)-3])
	flipped := append([]byte(nil), seg...)
	flipped[segHdrSize+4] ^= 0xff
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, buf []byte) {
		recs, validLen, err := ScanSegment(buf, 0)
		checkTyped(t, err)
		if validLen > len(buf) || (err == nil && validLen != len(buf)) {
			t.Fatalf("valid prefix %d of %d bytes (err %v)", validLen, len(buf), err)
		}
		if validLen < segHdrSize {
			return
		}
		again, n, err := ScanSegment(segmentOf(recs...), 0)
		if err != nil || n == 0 || !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-encoded records scan to %+v (%v), want %+v", again, err, recs)
		}
	})
}

// FuzzDecodeSnapshot: arbitrary bytes never panic the snapshot decoder, a
// rejection is a typed error, and an accepted snapshot round-trips.
func FuzzDecodeSnapshot(f *testing.F) {
	golden, _ := hex.DecodeString(goldenSnap)
	full := encodeSnapshot(Snapshot{Seq: 12, Digest: 0xdead, State: []byte("some state bytes"),
		Seen: []SeenEntry{{ID: "a", Seq: 1, Digest: 2}, {ID: "bb", Seq: 2, Digest: 3}}})
	f.Add(golden)
	f.Add(full)
	f.Add(encodeSnapshot(Snapshot{}))
	f.Add([]byte{})
	f.Add(full[:len(full)/2])
	f.Add(append(append([]byte(nil), full...), 0))
	f.Fuzz(func(t *testing.T, buf []byte) {
		s, err := DecodeSnapshot(buf)
		checkTyped(t, err)
		if err != nil {
			return
		}
		again, err := DecodeSnapshot(encodeSnapshot(s))
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("re-encoded snapshot decodes to %+v (%v), want %+v", again, err, s)
		}
	})
}
