package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fsio"
)

func testOpts() Options {
	return Options{Policy: FsyncNever, SegmentBytes: 1 << 20}
}

func mustRecover(t *testing.T, dir string, opts Options) (*Log, *Recovered) {
	t.Helper()
	l, rcv, err := Recover(dir, opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rcv
}

func appendN(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		rec := Record{Seq: seq, ID: fmt.Sprintf("batch-%d", seq),
			Payload: []byte(fmt.Sprintf(`{"id":"batch-%d"}`, seq)), Digest: seq * 0x9e3779b9}
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append seq %d: %v", seq, err)
		}
	}
}

func checkRecords(t *testing.T, recs []Record, from, to uint64) {
	t.Helper()
	if want := int(to - from + 1); len(recs) != want {
		t.Fatalf("got %d records, want %d (%d..%d)", len(recs), want, from, to)
	}
	for i, r := range recs {
		seq := from + uint64(i)
		if r.Seq != seq || r.ID != fmt.Sprintf("batch-%d", seq) || r.Digest != seq*0x9e3779b9 {
			t.Fatalf("record %d = %+v, want seq %d", i, r, seq)
		}
		if want := fmt.Sprintf(`{"id":"batch-%d"}`, seq); string(r.Payload) != want {
			t.Fatalf("record %d payload %q, want %q", i, r.Payload, want)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	for _, pol := range []Policy{FsyncNever, FsyncGroup, FsyncAlways} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Policy: pol, GroupInterval: time.Millisecond}
			l, rcv := mustRecover(t, dir, opts)
			if rcv.Snapshot != nil || len(rcv.Records) != 0 || rcv.Truncations != 0 {
				t.Fatalf("fresh dir recovered %+v", rcv)
			}
			appendN(t, l, 1, 25)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, rcv2 := mustRecover(t, dir, opts)
			checkRecords(t, rcv2.Records, 1, 25)
			if rcv2.Truncations != 0 {
				t.Fatalf("clean journal reported %d truncations", rcv2.Truncations)
			}
			if got := l2.NextSeq(); got != 26 {
				t.Fatalf("NextSeq %d after recovery, want 26", got)
			}
			// Appends resume in the reopened segment.
			appendN(t, l2, 26, 30)
			l2.Close()
			_, rcv3 := mustRecover(t, dir, opts)
			checkRecords(t, rcv3.Records, 1, 30)
		})
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustRecover(t, dir, Options{Policy: FsyncNever, SegmentBytes: 256})
	appendN(t, l, 1, 60)
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation into >=3 segments, got %d", len(segs))
	}
	_, rcv := mustRecover(t, dir, testOpts())
	checkRecords(t, rcv.Records, 1, 60)
}

func TestAppendSeqMismatch(t *testing.T) {
	l, _ := mustRecover(t, t.TempDir(), testOpts())
	appendN(t, l, 1, 3)
	err := l.Append(Record{Seq: 7, ID: "x"})
	var fe *fsio.FrameError
	if !errors.As(err, &fe) || fe.Reason != fsio.SeqGap {
		t.Fatalf("out-of-order append: %v", err)
	}
	// The journal is still usable at the correct seq.
	appendN(t, l, 4, 4)
}

func TestSnapshotCoversAndTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustRecover(t, dir, Options{Policy: FsyncNever, SegmentBytes: 256})
	appendN(t, l, 1, 60)
	before, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	snap := Snapshot{Seq: 40, Digest: 0xfeed, State: []byte("state-bytes"),
		Seen: []SeenEntry{{ID: "batch-1", Seq: 1, Digest: 0x9e3779b9}}}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	// Fully covered segments are gone; segments holding any record past
	// seq 40 (and the active one) survive — the earliest survivor must
	// still contain record 41.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) == 0 {
		t.Fatal("all segments truncated, active segment must survive")
	}
	if len(segs) >= len(before) {
		t.Fatalf("no covered segments truncated: %d before, %d after", len(before), len(segs))
	}
	var firstStart, secondStart uint64
	fmt.Sscanf(filepath.Base(segs[0]), "wal-%016x.seg", &firstStart)
	if firstStart > 41 {
		t.Fatalf("earliest surviving segment starts at %d, record 41 lost", firstStart)
	}
	if len(segs) > 1 {
		fmt.Sscanf(filepath.Base(segs[1]), "wal-%016x.seg", &secondStart)
		if secondStart <= 41 {
			t.Fatalf("segment %s is fully covered but survived", segs[0])
		}
	}
	appendN(t, l, 61, 70)
	l.Close()

	_, rcv := mustRecover(t, dir, testOpts())
	if rcv.Snapshot == nil || rcv.Snapshot.Seq != 40 || rcv.Snapshot.Digest != 0xfeed {
		t.Fatalf("snapshot not recovered: %+v", rcv.Snapshot)
	}
	if string(rcv.Snapshot.State) != "state-bytes" {
		t.Fatalf("snapshot state %q", rcv.Snapshot.State)
	}
	if len(rcv.Snapshot.Seen) != 1 || rcv.Snapshot.Seen[0].ID != "batch-1" {
		t.Fatalf("seen index %+v", rcv.Snapshot.Seen)
	}
	checkRecords(t, rcv.Records, 41, 70)

	// A second snapshot removes the first.
	l2, _ := mustRecover(t, dir, testOpts())
	if err := l2.WriteSnapshot(Snapshot{Seq: 70, Digest: 1}); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.jsnap"))
	if len(snaps) != 1 || !strings.Contains(snaps[0], snapName(70)) {
		t.Fatalf("old snapshot not truncated: %v", snaps)
	}
}

func TestSnapshotOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustRecover(t, dir, testOpts())
	appendN(t, l, 1, 5)
	if err := l.WriteSnapshot(Snapshot{Seq: 5, Digest: 0xabc}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Remove every segment: snapshot alone must carry recovery.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	for _, s := range segs {
		os.Remove(s)
	}
	l2, rcv := mustRecover(t, dir, testOpts())
	if rcv.Snapshot == nil || rcv.Snapshot.Seq != 5 || len(rcv.Records) != 0 {
		t.Fatalf("snapshot-only recovery: %+v", rcv)
	}
	if l2.NextSeq() != 6 {
		t.Fatalf("NextSeq %d, want 6", l2.NextSeq())
	}
	appendN(t, l2, 6, 8)
	l2.Close()
	_, rcv2 := mustRecover(t, dir, testOpts())
	checkRecords(t, rcv2.Records, 6, 8)
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustRecover(t, dir, testOpts())
	appendN(t, l, 1, 10)
	l.Close()
	seg := filepath.Join(dir, segName(1))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear off the last few bytes: the final record is now incomplete.
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	l2, rcv := mustRecover(t, dir, testOpts())
	checkRecords(t, rcv.Records, 1, 9)
	if rcv.Truncations != 1 {
		t.Fatalf("Truncations = %d, want 1 (%v)", rcv.Truncations, rcv.TruncateDetail)
	}
	// The cut is physical: a re-recovery is clean, and the next append
	// reuses seq 10.
	if l2.NextSeq() != 10 {
		t.Fatalf("NextSeq %d, want 10", l2.NextSeq())
	}
	appendN(t, l2, 10, 10)
	l2.Close()
	_, rcv2 := mustRecover(t, dir, testOpts())
	if rcv2.Truncations != 0 {
		t.Fatalf("repair was not physical: %+v", rcv2.TruncateDetail)
	}
	checkRecords(t, rcv2.Records, 1, 10)
}

func TestCorruptRecordMidSegmentDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustRecover(t, dir, Options{Policy: FsyncNever, SegmentBytes: 256})
	appendN(t, l, 1, 40)
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	// Flip a byte inside the second segment's records.
	buf, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	buf[segHdrSize+4] ^= 0xff
	if err := os.WriteFile(segs[1], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var firstBad uint64
	fmt.Sscanf(filepath.Base(segs[1]), "wal-%016x.seg", &firstBad)

	_, rcv := mustRecover(t, dir, testOpts())
	// Everything before the corrupt record survives; everything after —
	// including whole later segments — is cut, and every cut is counted.
	if len(rcv.Records) == 0 || rcv.Records[len(rcv.Records)-1].Seq >= firstBad {
		t.Fatalf("records not cut at corruption: last=%d firstBad=%d",
			rcv.Records[len(rcv.Records)-1].Seq, firstBad)
	}
	checkRecords(t, rcv.Records, 1, rcv.Records[len(rcv.Records)-1].Seq)
	if rcv.Truncations < 2 { // the damaged segment + at least one stranded one
		t.Fatalf("Truncations = %d, want >=2 (%v)", rcv.Truncations, rcv.TruncateDetail)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(left) >= len(segs) {
		t.Fatalf("stranded segments not removed: %v", left)
	}
}

func TestBadSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustRecover(t, dir, testOpts())
	appendN(t, l, 1, 10)
	if err := l.WriteSnapshot(Snapshot{Seq: 4, Digest: 0x11, State: []byte("old")}); err != nil {
		t.Fatal(err)
	}
	// Hand-plant a newer snapshot and corrupt it.
	good := encodeSnapshot(Snapshot{Seq: 8, Digest: 0x22, State: []byte("new")})
	good[len(good)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, snapName(8)), good, 0o644); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, rcv := mustRecover(t, dir, testOpts())
	if rcv.Snapshot == nil || rcv.Snapshot.Seq != 4 {
		t.Fatalf("did not fall back to older snapshot: %+v", rcv.Snapshot)
	}
	if rcv.BadSnapshots != 1 {
		t.Fatalf("BadSnapshots = %d, want 1", rcv.BadSnapshots)
	}
	checkRecords(t, rcv.Records, 5, 10)
}

func TestSeqGapIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustRecover(t, dir, Options{Policy: FsyncNever, SegmentBytes: 256})
	appendN(t, l, 1, 40)
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	// Delete a middle segment: the journal now has a hole no truncation
	// can repair honestly.
	os.Remove(segs[1])
	_, _, err := Recover(dir, testOpts())
	var fe *fsio.FrameError
	if !errors.As(err, &fe) || fe.Reason != fsio.SeqGap {
		t.Fatalf("gap recovery: %v", err)
	}
}

func TestSnapshotAheadOfJournalGapIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustRecover(t, dir, testOpts())
	appendN(t, l, 1, 3)
	l.Close()
	// A snapshot claiming seq 10 with a journal ending at 3 means records
	// 4..10 are gone — refuse.
	buf := encodeSnapshot(Snapshot{Seq: 10, Digest: 1})
	if err := os.WriteFile(filepath.Join(dir, snapName(10)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	// Journal records 1..3 are all covered by the snapshot, so this is
	// actually consistent (records empty, resume at 11) — the fatal case
	// is a snapshot BEHIND a journal that starts later. Build that:
	dir2 := t.TempDir()
	l2, _ := mustRecover(t, dir2, testOpts())
	appendN(t, l2, 1, 3)
	l2.Close()
	// Rename the segment so it claims to start at seq 5.
	if err := os.Rename(filepath.Join(dir2, segName(1)), filepath.Join(dir2, segName(5))); err != nil {
		t.Fatal(err)
	}
	_, _, err := Recover(dir2, testOpts())
	var fe *fsio.FrameError
	if !errors.As(err, &fe) || fe.Reason != fsio.SeqGap {
		t.Fatalf("mismatched segment name: %v", err)
	}
}

func TestStrayFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustRecover(t, dir, testOpts())
	appendN(t, l, 1, 5)
	l.Close()
	// Crash-mid-snapshot leftovers and unrelated files must not confuse
	// recovery.
	os.WriteFile(filepath.Join(dir, ".snap-0000000000000005.jsnap.tmp123"), []byte("partial"), 0o600)
	os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644)
	_, rcv := mustRecover(t, dir, testOpts())
	checkRecords(t, rcv.Records, 1, 5)
	if rcv.BadSnapshots != 0 || rcv.Truncations != 0 {
		t.Fatalf("stray files counted as damage: %+v", rcv)
	}
	// Crash leftovers are deleted (they would otherwise accumulate
	// across crash/restart cycles); unrelated files are left alone.
	if _, err := os.Stat(filepath.Join(dir, ".snap-0000000000000005.jsnap.tmp123")); !os.IsNotExist(err) {
		t.Fatalf("stray fsio temp survived recovery: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatalf("unrelated file removed by recovery: %v", err)
	}
}

// TestAppendIOFailurePoisons forces the append path's I/O to fail (the
// segment file handle is closed out from under the log, so the write
// and the repair truncate both error) and asserts the log poisons
// itself instead of writing after an untrusted tail — and that a
// restart through Recover serves the intact prefix.
func TestAppendIOFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustRecover(t, dir, testOpts())
	appendN(t, l, 1, 3)
	l.mu.Lock()
	l.f.Close() // simulate the fd going bad mid-life
	l.mu.Unlock()

	err := l.Append(Record{Seq: 4, ID: "doomed", Payload: []byte("{}")})
	if err == nil {
		t.Fatal("append on closed segment succeeded")
	}
	if errors.Is(err, ErrPoisoned) {
		t.Fatalf("first failure already reported as poison, want the I/O error: %v", err)
	}
	// Every later operation fails with the poisoned verdict: no second
	// frame can land after garbage or duplicate seq 4.
	if err := l.Append(Record{Seq: 4, ID: "retry", Payload: []byte("{}")}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append on poisoned log: %v, want ErrPoisoned", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("sync on poisoned log: %v, want ErrPoisoned", err)
	}
	if err := l.WriteSnapshot(Snapshot{Seq: 3}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("snapshot on poisoned log: %v, want ErrPoisoned", err)
	}
	if got := l.NextSeq(); got != 4 {
		t.Fatalf("NextSeq %d after failed append, want 4 (nothing acked)", got)
	}

	// The restart path: the durable prefix is intact and appendable.
	l2, rcv := mustRecover(t, dir, testOpts())
	checkRecords(t, rcv.Records, 1, 3)
	appendN(t, l2, 4, 6)
}

// TestSyncFailurePoisons drives the group-commit Sync path into a
// failure and asserts the poison carries through (a failed fsync means
// durability can no longer be promised for anything unsynced).
func TestSyncFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustRecover(t, dir, testOpts())
	appendN(t, l, 1, 2)
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()
	if err := l.Sync(); err == nil {
		t.Fatal("sync on closed segment succeeded")
	}
	if err := l.Append(Record{Seq: 3, ID: "after", Payload: []byte("{}")}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failed sync: %v, want ErrPoisoned", err)
	}
}

// failSyncDir is fsio.OS with directory fsyncs failing while on is set.
type failSyncDir struct {
	fsio.FS
	on bool
}

var errSyncDir = errors.New("injected directory fsync failure")

func (f *failSyncDir) SyncDir(dir string) error {
	if f.on {
		return errSyncDir
	}
	return f.FS.SyncDir(dir)
}

// TestDirSyncFailure: a directory fsync that fails leaves a segment or
// the journal directory unknown to a machine crash. Recover refuses to
// open, and a failed sync after a segment create poisons the log as a
// failed record fsync does.
func TestDirSyncFailure(t *testing.T) {
	dir := t.TempDir()
	fsys := &failSyncDir{FS: fsio.OS, on: true}
	opts := Options{Policy: FsyncAlways, SegmentBytes: 16, FS: fsys}
	if _, _, err := Recover(dir, opts); !errors.Is(err, errSyncDir) {
		t.Fatalf("Recover with a failing parent sync: %v", err)
	}

	fsys.on = false
	l, _ := mustRecover(t, dir, opts)
	appendN(t, l, 1, 1)
	fsys.on = true
	// The 16-byte bound rotates before the next record; the new
	// segment's directory entry cannot be made durable.
	if err := l.Append(Record{Seq: 2, ID: "batch-2"}); !errors.Is(err, errSyncDir) {
		t.Fatalf("append across a failed rotation: %v", err)
	}
	fsys.on = false
	if err := l.Append(Record{Seq: 2, ID: "batch-2"}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after the failed directory sync: %v, want ErrPoisoned", err)
	}
	if err := l.WriteSnapshot(Snapshot{Seq: 1}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("snapshot after the failed directory sync: %v, want ErrPoisoned", err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"always", FsyncAlways}, {"", FsyncAlways}, {"group", FsyncGroup}, {"never", FsyncNever}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestGroupFlusherSyncs(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustRecover(t, dir, Options{Policy: FsyncGroup, GroupInterval: time.Millisecond})
	appendN(t, l, 1, 3)
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("group flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
}
