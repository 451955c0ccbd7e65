package rec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adt"
	"repro/internal/fsio"
	"repro/internal/oplog"
	"repro/internal/state"
	"repro/internal/stm"
)

// testState builds an initial state covering every value type.
func testState() *state.State {
	st := state.New()
	st.Set("counter", state.Int(7))
	st.Set("name", state.Str("seed"))
	st.Set("flag", state.Bool(true))
	st.Set("stack", &state.IntList{1, 2, 3})
	st.Set("bits", adt.NewRelValue())
	return st
}

// testTasks builds n tasks exercising every op family; deterministic per
// index so sequential and stm runs agree on the workload.
func testTasks(n int) []adt.Task {
	out := make([]adt.Task, n)
	for i := 0; i < n; i++ {
		i := i
		out[i] = func(ex adt.Executor) error {
			c := adt.Counter{L: "counter"}
			if err := c.Add(ex, int64(i+1)); err != nil {
				return err
			}
			if _, err := c.Load(ex); err != nil {
				return err
			}
			if i%2 == 0 {
				if err := (adt.StrVar{L: "name"}).Store(ex, state.Str("task")); err != nil {
					return err
				}
			}
			if i%3 == 0 {
				if err := (adt.Stack{L: "stack"}).Push(ex, int64(i)); err != nil {
					return err
				}
			}
			if err := (adt.BitSet{L: "bits"}).Set(ex, i%8); err != nil {
				return err
			}
			if _, err := (adt.BitSet{L: "bits"}).Get(ex, (i+1)%8); err != nil {
				return err
			}
			return (adt.BoolVar{L: "flag"}).Store(ex, i%2 == 0)
		}
	}
	return out
}

func testMeta(tasks int) Meta {
	return Meta{
		Workload: "rec-test", Detector: "write-set",
		Ordered: false,
		Threads: 4, Tasks: tasks, Seed: 99,
	}
}

// recordRun executes tasks through the stm with a recorder attached and
// closes it over the final state.
func recordRun(t testing.TB, r *Recorder, initial *state.State, tasks []adt.Task, ordered bool) *state.State {
	t.Helper()
	final, _, err := stm.Run(stm.Config{
		Threads: 4, Ordered: ordered,
		Record: r,
	}, initial, tasks)
	if err != nil {
		t.Fatalf("stm.Run: %v", err)
	}
	r.Close(Digest(final))
	return final
}

func TestRoundTripStream(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		initial := testState()
		tasks := testTasks(40)
		// Small chunks force multiple sealed frames per trace.
		r := New(testMeta(len(tasks)), initial, Options{ChunkBytes: 256})
		final := recordRun(t, r, initial, tasks, false)

		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		tr, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("ReadTrace: %v", err)
		}
		if tr.Meta != testMeta(len(tasks)) {
			t.Errorf("meta round-trip: got %+v", tr.Meta)
		}
		if !tr.Initial.Equal(testState()) {
			t.Errorf("initial state round-trip drifted:\n got %s\nwant %s", tr.Initial, testState())
		}
		if len(tr.Txns) != len(tasks) {
			t.Fatalf("retained %d txns, want %d", len(tr.Txns), len(tasks))
		}
		if tr.Truncated || tr.Lossy {
			t.Fatalf("stream capture flagged truncated=%v lossy=%v", tr.Truncated, tr.Lossy)
		}
		if tr.DigestKind != DigestFinal {
			t.Fatalf("digest kind = %s, want final", tr.DigestKind)
		}
		if tr.Digest != Digest(final) {
			t.Errorf("recorded digest %016x != final state digest %016x", tr.Digest, Digest(final))
		}
		// Commit times are unique and sorted after decode.
		seen := map[int64]bool{}
		for i, txn := range tr.Txns {
			if seen[txn.CommitTime] {
				t.Fatalf("duplicate commit time %d", txn.CommitTime)
			}
			seen[txn.CommitTime] = true
			if i > 0 && txn.CommitTime < tr.Txns[i-1].CommitTime {
				t.Fatalf("txns not sorted by commit time at %d", i)
			}
			if len(txn.Ops) == 0 || len(txn.Observed) != len(txn.Ops) {
				t.Fatalf("txn %d: %d ops, %d observed", i, len(txn.Ops), len(txn.Observed))
			}
		}
		// Sequential oracle replay reproduces the recorded final state,
		// checking every observed value on the way.
		st, _, err := tr.VerifySequential(nil)
		if err != nil {
			t.Fatalf("VerifySequential: %v", err)
		}
		if !st.Equal(final) {
			t.Errorf("sequential replay drifted:\n got %s\nwant %s", st, final)
		}
	})
}

func TestFlightRingEvictionMarksTruncated(t *testing.T) {
	initial := testState()
	tasks := testTasks(60)
	r := New(testMeta(len(tasks)), initial, Options{ChunkBytes: 256, FlightChunks: 2})
	recordRun(t, r, initial, tasks, false)

	st := r.Stats()
	if st.EvictedChunks == 0 {
		t.Fatalf("ring of 2 × 256B chunks must evict on %d tasks; stats %+v", len(tasks), st)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !tr.Truncated {
		t.Error("evicting dump must be marked truncated")
	}
	if tr.EvictedChunks != st.EvictedChunks {
		t.Errorf("footer evictions %d != stats %d", tr.EvictedChunks, st.EvictedChunks)
	}
	if int64(len(tr.Txns)) >= tr.Commits {
		t.Errorf("truncated trace retained %d of %d commits — nothing was lost?", len(tr.Txns), tr.Commits)
	}
	// A truncated trace cannot be replayed — typed rejection.
	if _, err := tr.ReplaySequential(); err == nil {
		t.Fatal("replaying a truncated trace must fail")
	} else {
		var terr *fsio.FrameError
		if !errors.As(err, &terr) || terr.Reason != fsio.Torn {
			t.Errorf("want *fsio.FrameError{Torn}, got %v", err)
		}
	}
}

// TestFlightUnclosedDumpCarriesNoDigest: a dump taken before Close — the
// incident path — carries DigestNone, and its complete history still
// replays to the state the run committed.
func TestFlightUnclosedDumpCarriesNoDigest(t *testing.T) {
	initial := testState()
	tasks := testTasks(25)
	r := New(testMeta(len(tasks)), initial, Options{ChunkBytes: 512, FlightChunks: 64})
	final, _, err := stm.Run(stm.Config{
		Threads: 4, Record: r,
	}, initial, tasks)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if tr.DigestKind != DigestNone || tr.Digest != 0 {
		t.Fatalf("unclosed dump digest = %s %016x, want none", tr.DigestKind, tr.Digest)
	}
	st, err := tr.ReplaySequential()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(final) {
		t.Errorf("replay drifted from the committed state:\n got %s\nwant %s", st, final)
	}
}

// TestGoldenOpBytes pins the trace bytes of one op of every kind, written
// in this order into one chunk's string table (so later ops refer back to
// earlier strings), and that the bytes decode to the ops they came from.
// The bytes were computed when each kind was a Go type of its own and the
// codec switched on the type; an op code past the last kind is refused.
func TestGoldenOpBytes(t *testing.T) {
	cases := []struct {
		op  oplog.Op
		hex string
	}{
		{adt.NumAddOp{L: "c", Delta: 7}.Op(), "010001630e"},
		{adt.NumAddOp{L: "c", Delta: -300}.Op(), "0101d704"},
		{adt.NumAddOp{L: "c", Delta: 0}.Op(), "010100"},
		{adt.NumAddOp{L: "c", Delta: 99}.Op(), "0101c601"},
		{adt.NumAddOp{L: "c", Delta: 100}.Op(), "0101c801"},
		{adt.NumAddOp{L: "c", Delta: -1}.Op(), "010101"},
		{adt.NumAddOp{L: "c", Delta: math.MaxInt64}.Op(), "0101feffffffffffffffff01"},
		{adt.NumAddOp{L: "c", Delta: math.MinInt64}.Op(), "0101ffffffffffffffffff01"},
		{adt.NumStoreOp{L: "c", V: 123456}.Op(), "020180890f"},
		{adt.NumStoreOp{L: "c", V: -7}.Op(), "02010d"},
		{adt.NumLoadOp{L: "c"}.Op(), "0301"},
		{adt.StrStoreOp{L: "s", V: state.Str("hello")}.Op(), "04000173000568656c6c6f"},
		{adt.StrStoreOp{L: "s", V: state.Str("")}.Op(), "04020000"},
		{adt.StrStoreOp{L: "s", V: state.Str("-42")}.Op(), "040200032d3432"},
		{adt.StrLoadOp{L: "s"}.Op(), "0502"},
		{adt.BoolStoreOp{L: "b", V: true}.Op(), "0600016201"},
		{adt.BoolStoreOp{L: "b", V: false}.Op(), "060600"},
		{adt.BoolLoadOp{L: "b"}.Op(), "0706"},
		{adt.ListPushOp{L: "l", V: -5}.Op(), "0800016c09"},
		{adt.ListPushOp{L: "l", V: 250}.Op(), "0807f403"},
		{adt.ListPopOp{L: "l"}.Op(), "0907"},
		{adt.ListSizeOp{L: "l"}.Op(), "0a07"},
		{adt.RelPutOp{L: "m", Key: "k", Val: "v"}.Op(), "0b00016d00016b000176"},
		{adt.RelPutOp{L: "m", Key: "k", Val: ""}.Op(), "0b080904"},
		{adt.RelRemoveOp{L: "m", Key: "k"}.Op(), "0c0809"},
		{adt.RelGetOp{L: "m", Key: ""}.Op(), "0d0804"},
		{adt.RelHasOp{L: "m", Key: "k2"}.Op(), "0e0800026b32"},
		{adt.RelClearOp{L: "m"}.Op(), "0f08"},
	}
	e := newEnc(false)
	for _, c := range cases {
		start := len(e.buf)
		e.op(c.op)
		if got := hex.EncodeToString(e.buf[start:]); got != c.hex {
			t.Errorf("%v encodes as %s, want %s", c.op, got, c.hex)
		}
	}
	d := dec{Reader: fsio.NewReader(e.buf)}
	for _, c := range cases {
		if got := d.op(); got != c.op || d.Err() != nil {
			t.Fatalf("%s decodes as %v (err %v), want %v", c.hex, got, d.Err(), c.op)
		}
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after decoding every op", d.Remaining())
	}
	bad := dec{Reader: fsio.NewReader([]byte{byte(adt.RelClear) + 1, 0, 1, 'x'})}
	if op := bad.op(); bad.Err() == nil {
		t.Fatalf("op code %d decoded as %v, want an error", adt.RelClear+1, op)
	}
}

// customKind is an op kind the trace format does not know: it behaves as
// adt's, but it is not an adt.OpKind.
type customKind struct{ adt.OpKind }

func TestUnencodableOpMarksLossy(t *testing.T) {
	initial := testState()
	r := New(testMeta(1), initial, Options{})
	log := oplog.Log{
		&oplog.Event{Op: oplog.Op{K: customKind{adt.NumAdd}, L: "counter", N: 1}},
	}
	r.ObserveCommitted(0, 1, log)
	r.ObserveCommitted(1, 2, oplog.Log{&oplog.Event{Op: adt.NumAddOp{L: "counter", Delta: 2}.Op()}})
	if st := r.Stats(); !st.Lossy || st.Commits != 1 {
		t.Fatalf("stats after unencodable log: %+v, want lossy with 1 commit", st)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Lossy || tr.LossyDetail == "" {
		t.Fatalf("decoded trace lossy=%v detail=%q", tr.Lossy, tr.LossyDetail)
	}
	if tr.DigestKind != DigestNone {
		t.Errorf("lossy dump digest kind = %s, want none", tr.DigestKind)
	}
	if _, err := tr.ReplaySequential(); err == nil {
		t.Fatal("replaying a lossy trace must fail")
	} else {
		var terr *fsio.FrameError
		if !errors.As(err, &terr) || terr.Reason != fsio.Lossy {
			t.Errorf("want *fsio.FrameError{Lossy}, got %v", err)
		}
	}
}

// validTrace builds a small complete artifact for corruption tests.
func validTrace(t testing.TB) []byte {
	t.Helper()
	initial := testState()
	tasks := testTasks(8)
	r := New(testMeta(len(tasks)), initial, Options{})
	recordRun(t, r, initial, tasks, false)
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fdSpec is a functional dependency as the trace layout spells it.
type fdSpec struct{ Domain, Range []string }

// craftRelTrace hand-builds a CRC-valid trace whose header snapshot holds
// one relation value with the given schema, bypassing the encoder's
// invariants — the shape of a crafted or corrupted-but-checksummed
// artifact.
func craftRelTrace(cols []string, fd *fdSpec) []byte {
	e := newEnc(true)
	e.str("crafted")   // workload
	e.str("write-set") // detector
	e.bool(false)      // ordered
	e.u(1)             // threads
	e.u(0)             // tasks
	e.i(0)             // seed
	e.u(1)             // one location
	e.str("r")
	e.byte(valRel)
	e.u(uint64(len(cols)))
	for _, c := range cols {
		e.str(c)
	}
	if fd == nil {
		e.bool(false)
	} else {
		e.bool(true)
		e.u(uint64(len(fd.Domain)))
		for _, c := range fd.Domain {
			e.str(c)
		}
		e.u(uint64(len(fd.Range)))
		for _, c := range fd.Range {
			e.str(c)
		}
	}
	e.u(0) // no tuples
	out := fsio.AppendFrame(fsio.AppendHeader(nil, traceMagic, traceFormat), e.buf)
	return append(out, footerFrame(0, false, false, DigestNone, 0, 0, "")...)
}

// TestCraftedRelationRejection pins the never-panic contract against
// CRC-valid traces whose relation schema is not {k, v} with FD k → v, the
// one schema a relation has: decoding must return BadRecord, not panic.
func TestCraftedRelationRejection(t *testing.T) {
	cases := []struct {
		name string
		cols []string
		fd   *fdSpec
		ok   bool
	}{
		{"valid", []string{"k", "v"}, &fdSpec{Domain: []string{"k"}, Range: []string{"v"}}, true},
		{"no-fd", []string{"k", "v"}, nil, false},
		{"fd-reversed", []string{"k", "v"}, &fdSpec{Domain: []string{"v"}, Range: []string{"k"}}, false},
		{"columns-reversed", []string{"v", "k"}, &fdSpec{Domain: []string{"k"}, Range: []string{"v"}}, false},
		{"wide", []string{"k", "v", "w"}, &fdSpec{Domain: []string{"k"}, Range: []string{"v", "w"}}, false},
		{"fd-not-partition", []string{"a", "b"}, &fdSpec{Domain: []string{"a"}, Range: []string{"a"}}, false},
		{"fd-extra-column", []string{"a"}, &fdSpec{Domain: []string{"a"}, Range: []string{"b"}}, false},
		{"fd-missing-column", []string{"a", "b"}, &fdSpec{Domain: []string{"a"}, Range: nil}, false},
		{"duplicate-columns", []string{"a", "a"}, &fdSpec{Domain: []string{"a"}, Range: []string{"a"}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := ReadTrace(bytes.NewReader(craftRelTrace(c.cols, c.fd)))
			if c.ok {
				if err != nil {
					t.Fatalf("valid crafted trace rejected: %v", err)
				}
				if _, found := tr.Initial.Get("r"); !found {
					t.Fatal("decoded trace lost the relation location")
				}
				return
			}
			if err == nil {
				t.Fatal("invalid relation schema accepted")
			}
			var terr *fsio.FrameError
			if !errors.As(err, &terr) {
				t.Fatalf("want *fsio.FrameError, got %T: %v", err, err)
			}
			if terr.Reason != fsio.BadRecord {
				t.Errorf("reason = %s, want %s (err: %v)", terr.Reason, fsio.BadRecord, err)
			}
		})
	}
}

// failWriter rejects every write, simulating a full disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestFailedDumpNotCounted pins Stats.Dumps to artifacts actually
// produced: a failed WriteTo must not bump the counter.
func TestFailedDumpNotCounted(t *testing.T) {
	initial := testState()
	r := New(testMeta(4), initial, Options{})
	recordRun(t, r, initial, testTasks(4), false)
	if _, err := r.WriteTo(failWriter{}); err == nil {
		t.Fatal("write to failing writer succeeded")
	}
	if got := r.Stats().Dumps; got != 0 {
		t.Fatalf("Dumps = %d after failed dump, want 0", got)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Dumps; got != 1 {
		t.Fatalf("Dumps = %d after one successful dump, want 1", got)
	}
}

func TestCorruptTraceRejection(t *testing.T) {
	base := validTrace(t)
	// The first chunk frame follows the header frame: its marker, then the
	// length prefix, then rawLen as the first byte of the CRC'd payload.
	_, chunkAt, err := fsio.NextFrame(base, len(traceMagic)+1)
	if err != nil || base[chunkAt] != frameChunk {
		t.Fatalf("no chunk frame after the header (err %v)", err)
	}
	_, lenWidth := binary.Uvarint(base[chunkAt+1:])
	rawLenAt := chunkAt + 1 + lenWidth
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		reason fsio.Reason
	}{
		{"empty", func(b []byte) []byte { return nil }, fsio.Torn},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, fsio.BadMagic},
		{"future-format", func(b []byte) []byte { b[8] = traceFormat + 1; return b }, fsio.BadFormat},
		// Format 1 has the same layout but an FNV-of-rendering digest in its
		// footer: refused by version, not reported as a digest mismatch.
		{"format-1", func(b []byte) []byte { b[8] = 1; return b }, fsio.BadFormat},
		// Format 2 carries a privatization byte after the ordered flag that
		// format 3 dropped: refused by version, not misread as the thread
		// count.
		{"format-2", func(b []byte) []byte { b[8] = 2; return b }, fsio.BadFormat},
		// Format 3 kept the flags byte and each chunk's rawLen outside the
		// CRC: refused by version, not misread through the new frames.
		{"format-3", func(b []byte) []byte { b[8] = 3; return b }, fsio.BadFormat},
		// Format 4 numbered the event types after the governor's three:
		// refused by version, not misread as the renumbered events.
		{"format-4", func(b []byte) []byte { b[8] = 4; return b }, fsio.BadFormat},
		// Format 5 carried a flags byte ahead of the metadata and numbered the
		// event types after the serial-escalation span: refused by version,
		// not misread as the workload name.
		{"format-5", func(b []byte) []byte { b[8] = 5; return b }, fsio.BadFormat},
		// Format 7 carried protocol-event records in its chunks and an event
		// count in its footer: refused by version, not misread as the
		// footer's flags.
		{"format-7", func(b []byte) []byte { b[8] = 7; return b }, fsio.BadFormat},
		{"flipped-header-byte", func(b []byte) []byte { b[16] ^= 0x01; return b }, fsio.BadChecksum},
		// rawLen sits inside the chunk's CRC, so a flip is a checksum
		// mismatch, not a body-length disagreement.
		{"flipped-rawlen", func(b []byte) []byte { b[rawLenAt] ^= 0x01; return b }, fsio.BadChecksum},
		{"flipped-tail-byte", func(b []byte) []byte { b[len(b)-6] ^= 0x01; return b }, fsio.BadChecksum},
		{"truncated-mid-file", func(b []byte) []byte { return b[:len(b)*2/3] }, fsio.Torn},
		{"footer-stripped", func(b []byte) []byte { return b[:len(b)-8] }, fsio.Torn},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mutated := c.mutate(append([]byte(nil), base...))
			_, err := ReadTrace(bytes.NewReader(mutated))
			if err == nil {
				t.Fatal("corrupt trace accepted")
			}
			var terr *fsio.FrameError
			if !errors.As(err, &terr) {
				t.Fatalf("want *fsio.FrameError, got %T: %v", err, err)
			}
			if terr.Reason != c.reason {
				t.Errorf("reason = %s, want %s (err: %v)", terr.Reason, c.reason, err)
			}
		})
	}
}

func TestWriteFileAtomicDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.bin")
	initial := testState()
	tasks := testTasks(10)
	r := New(testMeta(len(tasks)), initial, Options{})
	recordRun(t, r, initial, tasks, false)
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := ReadTrace(f)
	if err != nil {
		t.Fatalf("ReadTrace on WriteFile artifact: %v", err)
	}
	if len(tr.Txns) != len(tasks) {
		t.Errorf("file dump retained %d txns, want %d", len(tr.Txns), len(tasks))
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("dump left %d directory entries, want 1", len(entries))
	}
}

func TestRecorderClosedDropsLateCommits(t *testing.T) {
	initial := testState()
	r := New(testMeta(0), initial, Options{})
	r.Close(Digest(initial))
	r.ObserveCommitted(0, 1, oplog.Log{&oplog.Event{Op: adt.NumAddOp{L: "counter", Delta: 1}.Op()}})
	if st := r.Stats(); st.Commits != 0 {
		t.Errorf("closed recorder accepted a commit: %+v", st)
	}
}

// TestRewindDropsWhatFollowsTheMark: a rewound commit leaves nothing
// behind — not its bytes, not its count, and not the string-table
// entries it defined, which a later back-reference would otherwise
// misnumber — and no chunk seals while a mark is open.
func TestRewindDropsWhatFollowsTheMark(t *testing.T) {
	initial := testState()
	r := New(testMeta(0), initial, Options{ChunkBytes: 1})
	add := func(l state.Loc, d int64) oplog.Log {
		return oplog.Log{&oplog.Event{Op: adt.NumAddOp{L: l, Delta: d}.Op()}}
	}
	r.Mark()
	r.ObserveCommitted(1, 2, add("counter", 1))
	if st := r.Stats(); st.Chunks != 0 || st.Commits != 1 {
		t.Fatalf("under an open mark: %+v, want one commit and no sealed chunk", st)
	}
	r.Rewind()
	r.Mark()
	r.ObserveCommitted(1, 3, append(add("flag2", 5), add("flag2", 6)...))
	r.Keep()
	if st := r.Stats(); st.Chunks != 1 || st.Commits != 1 {
		t.Fatalf("after the rewind and a kept commit: %+v, want one commit in one sealed chunk", st)
	}
	r.Close(0)
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Txns) != 1 || tr.Commits != 1 || tr.Txns[0].CommitTime != 3 {
		t.Fatalf("trace holds %d commits (footer %d): %+v, want the kept one", len(tr.Txns), tr.Commits, tr.Txns)
	}
	for _, op := range tr.Txns[0].Ops {
		if op.L != "flag2" {
			t.Fatalf("kept commit decodes as %v: the rewound string-table entry shifted its back-reference", tr.Txns[0].Ops)
		}
	}
}
