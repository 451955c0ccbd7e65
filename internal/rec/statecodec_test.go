package rec

import (
	"encoding/hex"
	"errors"
	"strconv"
	"testing"

	"repro/internal/fsio"
	"repro/internal/relation"
	"repro/internal/state"
)

func codecState() *state.State {
	st := state.New()
	st.Set("n", state.Int(-42))
	st.Set("s", state.Str("hello"))
	st.Set("b", state.Bool(true))
	st.Set("l", state.IntList{3, 1, 4, 1, 5})
	r := relation.New([]string{"k", "v"}, &relation.FD{Domain: []string{"k"}, Range: []string{"v"}})
	r.Insert(relation.Tuple{"k": "a", "v": "1"})
	r.Insert(relation.Tuple{"k": "b", "v": "2"})
	st.Set("rel", state.Rel{R: r})
	return st
}

func TestStateCodecRoundTrip(t *testing.T) {
	st := codecState()
	buf, err := EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeState(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(st) {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", got, st)
	}
	if Digest(got) != Digest(st) {
		t.Fatal("digest changed across round trip")
	}

	empty, err := EncodeState(state.New())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeState(empty); err != nil || got.Len() != 0 {
		t.Fatalf("empty state round trip: %v, len %d", err, got.Len())
	}
}

// TestStateCodecRejectsCorruption: every truncation and a sampling of
// bit flips must yield a typed *fsio.FrameError, never a panic.
func TestStateCodecRejectsCorruption(t *testing.T) {
	buf, err := EncodeState(codecState())
	if err != nil {
		t.Fatal(err)
	}
	check := func(mutated []byte) {
		t.Helper()
		st, err := DecodeState(mutated)
		if err == nil {
			// Some flips decode to a different valid state; the only hard
			// requirement here is no panic and no nil-with-nil-error.
			if st == nil {
				t.Fatal("nil state with nil error")
			}
			return
		}
		var te *fsio.FrameError
		if !errors.As(err, &te) {
			t.Fatalf("untyped decode error: %v", err)
		}
	}
	for cut := 0; cut < len(buf); cut++ {
		check(buf[:cut])
	}
	for i := 0; i < len(buf); i++ {
		mutated := append([]byte(nil), buf...)
		mutated[i] ^= 0xff
		check(mutated)
	}
	// Trailing garbage is malformed, not silently ignored.
	if _, err := DecodeState(append(append([]byte(nil), buf...), 0x7)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// goldenState is a fixed state mixing every value kind, with relations
// (single- and multi-column FD, no FD) whose insertion order, canonical
// Tuples() order and EncodeState order all differ.
func goldenState() *state.State {
	st := state.New()
	st.Set("n", state.Int(-42))
	st.Set("s", state.Str("héllo"))
	st.Set("b", state.Bool(true))
	st.Set("l", state.IntList{3, 1, 4, 1, 5})
	kv := relation.New([]string{"k", "v"}, &relation.FD{Domain: []string{"k"}, Range: []string{"v"}})
	for i, k := range []string{"9", "10", "b", "a", "", "a0", "Z"} {
		kv.Insert(relation.Tuple{"k": k, "v": strconv.Itoa(7 - i)})
	}
	kv.Insert(relation.Tuple{"k": "10", "v": "replaced"})
	kv.Remove(relation.Tuple{"k": "b", "v": "5"})
	st.Set("kv", state.Rel{R: kv})
	wide := relation.New([]string{"z", "x", "y"}, &relation.FD{Domain: []string{"y", "x"}, Range: []string{"z"}})
	wide.Insert(relation.Tuple{"x": "1", "y": "2", "z": "c"})
	wide.Insert(relation.Tuple{"x": "1", "y": "1", "z": "d"})
	wide.Insert(relation.Tuple{"x": "0", "y": "2", "z": "a"})
	wide.Insert(relation.Tuple{"x": "1", "y": "2", "z": "b"})
	st.Set("wide", state.Rel{R: wide})
	set := relation.New([]string{"q", "p"}, nil)
	for _, pq := range [][2]string{{"2", "1"}, {"1", "2"}, {"1", "1"}, {"10", "0"}} {
		set.Insert(relation.Tuple{"p": pq[0], "q": pq[1]})
	}
	st.Set("set", state.Rel{R: set})
	st.Set("empty", state.Rel{R: relation.New([]string{"k"}, nil)})
	return st
}

// The golden string and bytes were produced by the map-plus-sort relation
// this package was first written against: the canonical Tuples() order is
// wire format. The digest is the format-2 one (sum of element hashes, see
// package digest); journals, snapshots and recorded traces on disk carry
// these digests and bytes.
const (
	goldenDigest = 0xdecbd9e19108730d
	goldenString = "⟨b↦true, empty↦{}, kv↦{(k=,v=3) (k=10,v=replaced) (k=9,v=7) (k=Z,v=1) (k=a,v=4) (k=a0,v=2)}, " +
		"l↦[3 1 4 1 5], n↦-42, s↦héllo, set↦{(p=1,q=1) (p=1,q=2) (p=10,q=0) (p=2,q=1)}, " +
		"wide↦{(x=0,y=2,z=a) (x=1,y=1,z=d) (x=1,y=2,z=b)}⟩"
	goldenBytes = "0800016203010005656d707479050100016b000000026b76050200016b000176010100016b01000176060200016b0000000176" +
		"0001330200016b0002313000017600087265706c616365640200016b0001390001760001370200016b00015a00017600013102" +
		"00016b0001610001760001340200016b0002613000017600013200016c0405060208020a00016e015300017302000668c3a96c" +
		"6c6f000373657405020001700001710004020001700001310001710001310200017000013100017100013202000170000231" +
		"3000017100013002000170000132000171000131000477696465050300017800017900017a01020001790001780100017a03" +
		"0300017800013000017900013200017a0001610300017800013100017900013100017a000164030001780001310001790001" +
		"3200017a000162"
)

// TestGoldenDigestAndEncoding pins the on-disk formats across storage
// rewrites of the relation: same string, same digest, same snapshot bytes,
// and the stored bytes still decode to the same state.
func TestGoldenDigestAndEncoding(t *testing.T) {
	st := goldenState()
	if got := st.String(); got != goldenString {
		t.Fatalf("State.String() changed:\n got %s\nwant %s", got, goldenString)
	}
	if got := Digest(st); got != goldenDigest {
		t.Fatalf("Digest = %016x, want %016x", got, uint64(goldenDigest))
	}
	buf, err := EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf); got != goldenBytes {
		t.Fatalf("EncodeState bytes changed:\n got %s\nwant %s", got, goldenBytes)
	}
	stored, _ := hex.DecodeString(goldenBytes)
	got, err := DecodeState(stored)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(st) || Digest(got) != goldenDigest {
		t.Fatalf("stored snapshot decodes to %s", got)
	}
}

// dupLocKeySnapshot hand-builds a snapshot no encoder writes: one k→v
// relation carrying two tuples with the same location key.
func dupLocKeySnapshot() []byte {
	e := newEnc(true)
	e.u(1)
	e.str("r")
	e.byte(valRel)
	e.u(2)
	e.str("k")
	e.str("v")
	e.bool(true)
	e.u(1)
	e.str("k")
	e.u(1)
	e.str("v")
	e.u(3)
	for _, kv := range [][2]string{{"a", "first"}, {"b", "only"}, {"a", "second"}} {
		e.u(2)
		e.str("k")
		e.str(kv[0])
		e.str("v")
		e.str(kv[1])
	}
	return e.buf
}

// TestDecodeStateDuplicateLocKeyLastWins: tuples load as Table 2 inserts,
// so of two tuples at one location key the later one stays — what the
// decoder has always done with such input, kept rather than rejected so
// that every snapshot that loaded before still loads to the same state.
func TestDecodeStateDuplicateLocKeyLastWins(t *testing.T) {
	st, err := DecodeState(dupLocKeySnapshot())
	if err != nil {
		t.Fatal(err)
	}
	v, _ := st.Get("r")
	if got := v.String(); got != "{(k=a,v=second) (k=b,v=only)}" {
		t.Fatalf("decoded relation = %s, want the later k=a tuple to win", got)
	}
}

// valuelessLocationSnapshot binds one location to the "none" tag, which
// only op results may carry.
func valuelessLocationSnapshot() []byte {
	e := newEnc(true)
	e.u(1)
	e.str("x")
	e.byte(valNone)
	return e.buf
}

// TestDecodeStateRejectsValuelessLocation: found by FuzzDecodeState — such
// a snapshot used to load, and the nil Value panicked the state's first
// Clone or Equal (in the serving layer: recovery of a crafted snapshot).
func TestDecodeStateRejectsValuelessLocation(t *testing.T) {
	_, err := DecodeState(valuelessLocationSnapshot())
	var te *fsio.FrameError
	if !errors.As(err, &te) || te.Reason != fsio.BadRecord {
		t.Fatalf("err = %v, want a BadRecord *fsio.FrameError", err)
	}
}

// FuzzDecodeState: arbitrary bytes never panic the snapshot decoder, every
// rejection is typed, and an accepted state survives a re-encode.
func FuzzDecodeState(f *testing.F) {
	golden, _ := hex.DecodeString(goldenBytes)
	f.Add(golden)
	f.Add(dupLocKeySnapshot())
	f.Add(valuelessLocationSnapshot())
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err != nil {
			var te *fsio.FrameError
			if !errors.As(err, &te) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		buf, err := EncodeState(st)
		if err != nil {
			t.Fatalf("accepted state does not re-encode: %v", err)
		}
		again, err := DecodeState(buf)
		if err != nil || !again.Equal(st) || Digest(again) != Digest(st) {
			t.Fatalf("re-encoded state decodes to %v (%v), want %v", again, err, st)
		}
	})
}
