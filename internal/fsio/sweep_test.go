package fsio_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/adt"
	"repro/internal/fsio"
	"repro/internal/oplog"
	"repro/internal/rec"
	"repro/internal/spec"
	"repro/internal/state"
	"repro/internal/wal"
)

// artifact is one framed format under the sweep: a valid encoding, where
// its bytes fall, and its decoder.
type artifact struct {
	name string
	buf  []byte
	// markedFrom is the index of the first frame a one-byte marker
	// precedes; every later frame has one too.
	markedFrom int
	// appendOnly formats (the journal segment) are valid when cut at a
	// frame boundary: a shorter journal, not a torn one.
	appendOnly bool
	decode     func([]byte) error
}

// region is what a byte of a valid artifact belongs to.
type region int

const (
	inMagic region = iota
	inFormat
	inMarker
	inLength
	inFrame // payload or CRC
)

var regionNames = [...]string{"magic", "format", "marker", "length", "frame"}

// flipReasons is the rule every format follows: what a flipped byte in
// each region is rejected as. The CRC does not cover a frame's length, so
// a damaged length reads as torn when it points past the end and as a
// checksum mismatch otherwise.
var flipReasons = map[region][]fsio.Reason{
	inMagic:  {fsio.BadMagic},
	inFormat: {fsio.BadFormat},
	inMarker: {fsio.BadRecord},
	inLength: {fsio.Torn, fsio.BadChecksum},
	inFrame:  {fsio.BadChecksum},
}

// layout maps every byte of a valid artifact to its region, and reports
// the offsets where a frame ends.
func layout(t *testing.T, a artifact) ([]region, map[int]bool) {
	t.Helper()
	regions := make([]region, len(a.buf)) // inMagic: every magic is 8 bytes
	regions[8] = inFormat
	ends := map[int]bool{}
	for off, frame := 9, 0; off < len(a.buf); frame++ {
		if frame >= a.markedFrom {
			regions[off] = inMarker
			off++
		}
		payload, next, err := fsio.NextFrame(a.buf, off)
		if err != nil {
			t.Fatalf("%s: valid artifact does not frame at %d: %v", a.name, off, err)
		}
		start := next - 4 - len(payload)
		for i := off; i < start; i++ {
			regions[i] = inLength
		}
		for i := start; i < next; i++ {
			regions[i] = inFrame
		}
		ends[next] = true
		off = next
	}
	return regions, ends
}

func reasonOf(t *testing.T, err error) fsio.Reason {
	t.Helper()
	var fe *fsio.FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("untyped decode error %T: %v", err, err)
	}
	return fe.Reason
}

// TestCorruptionSweep cuts each artifact at every offset and flips every
// byte of it, and checks each rejection against one rule for all four
// formats: a cut is torn, a flipped byte is judged by the region it falls
// in, and a byte past the last frame is malformed.
func TestCorruptionSweep(t *testing.T) {
	for _, a := range sweepArtifacts(t) {
		t.Run(a.name, func(t *testing.T) {
			if err := a.decode(a.buf); err != nil {
				t.Fatalf("valid artifact rejected: %v", err)
			}
			regions, ends := layout(t, a)
			for cut := 0; cut < len(a.buf); cut++ {
				err := a.decode(a.buf[:cut])
				if a.appendOnly && (cut == 9 || ends[cut]) {
					if err != nil {
						t.Fatalf("cut at frame boundary %d: %v", cut, err)
					}
					continue
				}
				if err == nil {
					t.Fatalf("cut at %d accepted", cut)
				}
				if r := reasonOf(t, err); r != fsio.Torn {
					t.Fatalf("cut at %d: %s, want %s (%v)", cut, r, fsio.Torn, err)
				}
			}
			for i := range a.buf {
				mutated := append([]byte(nil), a.buf...)
				mutated[i] ^= 0xff
				err := a.decode(mutated)
				if err == nil {
					t.Fatalf("flip at %d (%s) accepted", i, regionNames[regions[i]])
				}
				if r, want := reasonOf(t, err), flipReasons[regions[i]]; !slices.Contains(want, r) {
					t.Fatalf("flip at %d (%s): %s, want one of %v (%v)", i, regionNames[regions[i]], r, want, err)
				}
			}
			err := a.decode(append(append([]byte(nil), a.buf...), 0))
			if err == nil || reasonOf(t, err) != fsio.BadRecord {
				t.Fatalf("trailing byte: %v, want %s", err, fsio.BadRecord)
			}
		})
	}
}

// sweepArtifacts writes one small trace (several chunks), one journal
// segment, one snapshot and one trained spec through the packages' own
// writers.
func sweepArtifacts(t *testing.T) []artifact {
	initial := state.New()
	initial.Set("c", state.Int(1))
	initial.Set("s", state.Str("x"))
	r := rec.New(rec.Meta{Workload: "sweep", Threads: 2, Tasks: 4}, initial, rec.Options{ChunkBytes: 24})
	for i := 1; i <= 4; i++ {
		r.ObserveCommitted(i, int64(i), oplog.Log{
			&oplog.Event{Op: adt.NumAddOp{L: "c", Delta: int64(i)}.Op()},
			&oplog.Event{Op: adt.StrLoadOp{L: "s"}.Op(), Observed: state.Str("x")},
		})
	}
	r.Close(rec.Digest(initial))
	var trace bytes.Buffer
	if _, err := r.WriteTo(&trace); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	l, _, err := wal.Recover(dir, wal.Options{Policy: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		rec := wal.Record{Seq: seq, ID: fmt.Sprintf("b-%d", seq), Payload: []byte(`{"n":1}`), Digest: seq}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	snap := wal.Snapshot{Seq: 3, Digest: 0xdead, State: []byte("state"),
		Seen: []wal.SeenEntry{{ID: "b-2", Seq: 2, Digest: 2}, {ID: "b-3", Seq: 3, Digest: 3}}}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	read := func(pattern string) []byte {
		paths, _ := filepath.Glob(filepath.Join(dir, pattern))
		if len(paths) != 1 {
			t.Fatalf("want one %s, found %v", pattern, paths)
		}
		b, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cache := spec.New(spec.Abstract, true)
	add := []oplog.Sym{{Kind: adt.KindNumAdd, N: 1, Int: true}}
	store := []oplog.Sym{{Kind: adt.KindNumStore, N: 2, Int: true}}
	for _, pair := range [][2][]oplog.Sym{{add, add}, {store, store}, {add, store}} {
		m := cache.Mode()
		cache.Lookup(m.AppendKey(nil, pair[0]), m.AppendKey(nil, pair[1]), pair[0], pair[1])
	}
	if cache.Len() < 2 {
		t.Fatalf("sweep spec learned %d entries:\n%s", cache.Len(), cache.Dump())
	}
	var specBuf bytes.Buffer
	if err := cache.Save(&specBuf); err != nil {
		t.Fatal(err)
	}

	return []artifact{
		{name: "spec", buf: specBuf.Bytes(), markedFrom: 1, decode: func(b []byte) error {
			return spec.New(spec.Abstract, false).Load(bytes.NewReader(b))
		}},
		{name: "trace", buf: trace.Bytes(), markedFrom: 1, decode: func(b []byte) error {
			_, err := rec.ReadTrace(bytes.NewReader(b))
			return err
		}},
		{name: "segment", buf: read("wal-*.seg"), markedFrom: 0, appendOnly: true, decode: func(b []byte) error {
			_, _, err := wal.ScanSegment(b, 0)
			return err
		}},
		{name: "snapshot", buf: read("snap-*.jsnap"), markedFrom: 1, decode: func(b []byte) error {
			_, err := wal.DecodeSnapshot(b)
			return err
		}},
	}
}
