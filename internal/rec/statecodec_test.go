package rec

import (
	"encoding/hex"
	"errors"
	"strconv"
	"strings"
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
	r := relation.New()
	r.Put("a", "1")
	r.Put("b", "2")
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
// whose insertion order, String order and EncodeState order all differ:
// "esc" holds keys whose rendering escapes a byte or sorts a byte below
// ',', so that its String order is not its key order.
func goldenState() *state.State {
	st := state.New()
	st.Set("n", state.Int(-42))
	st.Set("s", state.Str("héllo"))
	st.Set("b", state.Bool(true))
	st.Set("l", state.IntList{3, 1, 4, 1, 5})
	kv := relation.New()
	for i, k := range []string{"9", "10", "b", "a", "", "a0", "Z"} {
		kv.Put(k, strconv.Itoa(7-i))
	}
	kv.Put("10", "replaced")
	kv.Delete("b")
	st.Set("kv", state.Rel{R: kv})
	esc := relation.New()
	for _, p := range [][2]string{{"a", "1"}, {"a!", "2"}, {"a,", "3"}, {"a-", "4"}, {`x=y`, "v,w"}, {`\`, `=`}} {
		esc.Put(p[0], p[1])
	}
	st.Set("esc", state.Rel{R: esc})
	st.Set("empty", state.Rel{R: relation.New()})
	return st
}

// The golden string, digest and bytes were computed from the same state
// by the general tuple relation this package was first written against,
// which stored a {k, v} relation as tuples under FD k → v: the canonical
// order of its tuples is wire format, and the digest is the format-2 one
// (sum of element hashes, see package relation's digest.go). Journals,
// snapshots and recorded traces on disk carry these digests and bytes.
const (
	goldenDigest = 0x6b4db1af651862de
	goldenString = "⟨b↦true, empty↦{}, esc↦{(k=\\\\,v=\\=) (k=a!,v=2) (k=a,v=1) (k=a-,v=4) (k=a\\,,v=3) (k=x\\=y,v=v\\,w)}, " +
		"kv↦{(k=,v=3) (k=10,v=replaced) (k=9,v=7) (k=Z,v=1) (k=a,v=4) (k=a0,v=2)}, " +
		"l↦[3 1 4 1 5], n↦-42, s↦héllo⟩"
	goldenBytes = "0700016203010005656d707479050200016b000176010100016b01000176000003657363050200016b000176010100016b01" +
		"000176060200016b00015c00017600013d0200016b0001610001760001310200016b000261210001760001320200016b0002" +
		"612c0001760001330200016b0002612d0001760001340200016b0003783d790001760003762c7700026b76050200016b0001" +
		"76010100016b01000176060200016b00000001760001330200016b0002313000017600087265706c616365640200016b0001" +
		"390001760001370200016b00015a0001760001310200016b0001610001760001340200016b0002613000017600013200016c" +
		"0405060208020a00016e015300017302000668c3a96c6c6f"
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

// TestGoldenNulKeyOrder pins the one place where the tuple order on the
// wire is not key order: a key that is another key followed by a NUL byte.
// The general tuple relation sorted tuples by k+"\x00"+v+"\x00", so "a\x00"
// and "a\x00y" precede "a"; the string, digest and bytes below are what it
// produced from this state.
func TestGoldenNulKeyOrder(t *testing.T) {
	const (
		wantString = "⟨nul↦{(k=,v=0) (k=a\x00,v=x) (k=a\x00y,v=) (k=a,v=z) (k=b,v=1)}⟩"
		wantDigest = 0xb02589066797e054
		wantBytes  = "0100036e756c050200016b000176010100016b01000176050200016b00000001760001300200016b0002610000017600" +
			"01780200016b000361007900017600000200016b00016100017600017a0200016b000162000176000131"
	)
	st := state.New()
	r := relation.New()
	for _, p := range [][2]string{{"a", "z"}, {"a\x00", "x"}, {"a\x00y", ""}, {"b", "1"}, {"", "0"}} {
		r.Put(p[0], p[1])
	}
	st.Set("nul", state.Rel{R: r})
	if got := st.String(); got != wantString {
		t.Fatalf("State.String() = %q, want %q", got, wantString)
	}
	if got := Digest(st); got != wantDigest {
		t.Fatalf("Digest = %016x, want %016x", got, uint64(wantDigest))
	}
	buf, err := EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf); got != wantBytes {
		t.Fatalf("EncodeState bytes changed:\n got %s\nwant %s", got, wantBytes)
	}
	if got, err := DecodeState(buf); err != nil || !got.Equal(st) {
		t.Fatalf("DecodeState = %v, %v; want %s", got, err, st)
	}
}

// TestWireOrderMatchesJoinedKeys: wireOrder agrees with comparing the
// joined strings k+"\x00"+v+"\x00" on every pair of bindings over keys and
// values of up to three bytes from {NUL, 'a'}.
func TestWireOrderMatchesJoinedKeys(t *testing.T) {
	strs := []string{""}
	for n := 0; n < 3; n++ {
		for _, s := range strs {
			if len(s) == n {
				strs = append(strs, s+"\x00", s+"a")
			}
		}
	}
	var kvs [][2]string
	for _, k := range strs {
		for _, v := range strs {
			kvs = append(kvs, [2]string{k, v})
		}
	}
	for _, a := range kvs {
		for _, b := range kvs {
			want := strings.Compare(a[0]+"\x00"+a[1]+"\x00", b[0]+"\x00"+b[1]+"\x00")
			if got := wireOrder(a, b); got != want {
				t.Fatalf("wireOrder(%q, %q) = %d, want %d", a, b, got, want)
			}
		}
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
	put := relation.New()
	put.Put("a", "first")
	put.Put("b", "only")
	put.Put("a", "second")
	if r := v.(state.Rel).R; !r.Equal(put) || r.Digest() != put.Digest() {
		t.Fatalf("decoded relation %s (digest %016x) is not the one the puts build (digest %016x)", r, r.Digest(), put.Digest())
	}
}

// generalRelSnapshot hand-builds a one-location snapshot of a relation
// over cols with FD fd (nil for none) holding tuples, each a list of
// column/value pairs: the layout of a relation that is not {k, v} with
// k → v, which the general relations of earlier versions could hold.
func generalRelSnapshot(cols []string, fd *fdSpec, tuples ...[][2]string) []byte {
	e := newEnc(true)
	e.u(1)
	e.str("r")
	e.byte(valRel)
	e.u(uint64(len(cols)))
	for _, c := range cols {
		e.str(c)
	}
	e.bool(fd != nil)
	if fd != nil {
		for _, side := range [][]string{fd.Domain, fd.Range} {
			e.u(uint64(len(side)))
			for _, c := range side {
				e.str(c)
			}
		}
	}
	e.u(uint64(len(tuples)))
	for _, t := range tuples {
		e.u(uint64(len(t)))
		for _, cv := range t {
			e.str(cv[0])
			e.str(cv[1])
		}
	}
	return e.buf
}

// generalSchemaSnapshots are one snapshot per general schema a relation
// could have before relations became {k, v} with k → v: a wide FD, a set
// without one, and an empty one-column relation.
func generalSchemaSnapshots() map[string][]byte {
	return map[string][]byte{
		"wide": generalRelSnapshot([]string{"x", "y", "z"}, &fdSpec{Domain: []string{"y", "x"}, Range: []string{"z"}},
			[][2]string{{"x", "0"}, {"y", "2"}, {"z", "a"}}, [][2]string{{"x", "1"}, {"y", "1"}, {"z", "d"}}),
		"set": generalRelSnapshot([]string{"p", "q"}, nil,
			[][2]string{{"p", "1"}, {"q", "1"}}, [][2]string{{"p", "10"}, {"q", "0"}}),
		"empty": generalRelSnapshot([]string{"k"}, nil),
	}
}

// TestDecodeStateRejectsGeneralSchemas: a relation in any schema but
// {k, v} with k → v, and a {k, v} tuple missing a column or carrying a
// foreign one, is a typed BadRecord, not a panic and not a relation.
func TestDecodeStateRejectsGeneralSchemas(t *testing.T) {
	kv := &fdSpec{Domain: []string{"k"}, Range: []string{"v"}}
	cases := generalSchemaSnapshots()
	cases["partial-tuple"] = generalRelSnapshot([]string{"k", "v"}, kv, [][2]string{{"k", "a"}})
	cases["foreign-column"] = generalRelSnapshot([]string{"k", "v"}, kv, [][2]string{{"k", "a"}, {"w", "1"}})
	cases["columns-swapped"] = generalRelSnapshot([]string{"k", "v"}, kv, [][2]string{{"v", "1"}, {"k", "a"}})
	for name, snap := range cases {
		_, err := DecodeState(snap)
		var te *fsio.FrameError
		if !errors.As(err, &te) || te.Reason != fsio.BadRecord {
			t.Errorf("%s: err = %v, want a BadRecord *fsio.FrameError", name, err)
		}
	}
	good := generalRelSnapshot([]string{"k", "v"}, kv, [][2]string{{"k", "a"}, {"v", "1"}})
	if _, err := DecodeState(good); err != nil {
		t.Fatalf("the {k, v} snapshot the helper builds is rejected: %v", err)
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
	f.Add(generalSchemaSnapshots()["wide"])
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
