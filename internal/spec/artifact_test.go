// Package spec_test checks the commutativity specification as its users
// hold it: a cache that answers Lookup, learns a pair on its first miss
// when built to learn, and is saved and loaded as an fsio artifact, and
// training as `janus train` drives it.
package spec_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/adt"
	"repro/internal/fsio"
	"repro/internal/oplog"
	"repro/internal/spec"
)

// num is the descriptor of a numeric op with an integer argument.
func num(kind string, n int64) oplog.Sym { return oplog.Sym{Kind: kind, N: n, Int: true} }

// idPair is add(n) then add(-n): an identity on its counter.
func idPair(n int64) []oplog.Sym {
	return []oplog.Sym{num(adt.KindNumAdd, n), num(adt.KindNumAdd, -n)}
}

// lookup asks c about a pair, its keys rendered as a prepared projection
// renders them. A pair c does not know conflicts (the caller falls back
// to write-set detection).
func lookup(c *spec.Cache, s1, s2 []oplog.Sym) (conflict bool, failed spec.Check, hit bool) {
	a := c.Lookup(c.Mode().AppendKey(nil, s1), c.Mode().AppendKey(nil, s2), s1, s2)
	return !a.Known || a.Conflict, a.Failed, a.Hit
}

// learn teaches a learning cache the pair's condition the way detection
// does: by asking about it once.
func learn(c *spec.Cache, s1, s2 []oplog.Sym) { lookup(c, s1, s2) }

func TestMissIsConservative(t *testing.T) {
	c := spec.New(spec.Abstract, false)
	conflict, _, hit := lookup(c, idPair(1), idPair(2))
	if hit || !conflict {
		t.Fatalf("empty cache must miss conservatively: conflict=%v hit=%v", conflict, hit)
	}
}

func TestDump(t *testing.T) {
	c := spec.New(spec.Abstract, true)
	learn(c, idPair(1), idPair(2))
	d := c.Dump()
	if !strings.Contains(d, "always") || !strings.Contains(d, "(num.add num.add)+") {
		t.Errorf("Dump = %q", d)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := spec.New(spec.Abstract, true)
	store := []oplog.Sym{num(adt.KindNumStore, 5)}
	learn(src, idPair(1), idPair(2))
	learn(src, store, store)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := spec.New(spec.Abstract, false)
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("loaded %d entries, want %d", dst.Len(), src.Len())
	}
	if dst.Dump() != src.Dump() {
		t.Fatalf("round trip changed contents:\n%s\nvs\n%s", dst.Dump(), src.Dump())
	}
	// Loaded conditions behave: identity hit, different stores conflict.
	if conflict, _, hit := lookup(dst, idPair(9), idPair(4)); !hit || conflict {
		t.Fatalf("loaded identity pair: conflict=%v hit=%v", conflict, hit)
	}
	store6 := []oplog.Sym{num(adt.KindNumStore, 6)}
	if conflict, _, hit := lookup(dst, store, store6); !hit || !conflict {
		t.Fatalf("loaded store pair: conflict=%v hit=%v", conflict, hit)
	}
}

func TestLoadRejectsModeMismatch(t *testing.T) {
	src := spec.New(spec.Concrete, true)
	learn(src, idPair(1), idPair(2))
	if src.Len() != 1 {
		t.Fatalf("concrete cache learned %d entries, want 1", src.Len())
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := spec.New(spec.Abstract, false)
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatalf("mode mismatch must be rejected")
	}
	if dst.Len() != 0 {
		t.Fatalf("failed load must leave cache unchanged")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dst := spec.New(spec.Abstract, false)
	for _, bad := range []string{
		"",
		"not json",
		`{"format":99,"mode":"abstract","entries":{}}`,
		`{"format":1,"mode":"abstract","entries":{"k":"bogus-kind"}}`,
	} {
		var fe *fsio.FrameError
		if err := dst.Load(strings.NewReader(bad)); !errors.As(err, &fe) {
			t.Errorf("input %q: %v, want a *fsio.FrameError", bad, err)
		}
	}
	if dst.Len() != 0 {
		t.Fatalf("failed loads must leave cache unchanged")
	}
}

// saveSample saves a small cache and returns the artifact bytes.
func saveSample(t testing.TB) []byte {
	t.Helper()
	src := spec.New(spec.Abstract, true)
	learn(src, idPair(1), idPair(2))
	store := []oplog.Sym{num(adt.KindNumStore, 5)}
	learn(src, store, store)
	if src.Len() != 2 {
		t.Fatalf("sample learned %d entries, want 2:\n%s", src.Len(), src.Dump())
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// artifact frames a hand-made spec payload: mode byte, entry count, then
// each entry as a length-prefixed key and a condition-kind byte.
func artifact(payload ...byte) []byte {
	return fsio.AppendFrame(fsio.AppendHeader(nil, "JANUSSPC", 3), payload)
}

// Hand-made payload bytes: the abstraction modes and the condition kinds
// the format writes.
const (
	concreteByte, abstractByte = 0, 1
	alwaysByte                 = 1
)

// format2 is a spec as format 2 wrote it: a JSON envelope around a
// payload with its CRC32.
func format2() []byte {
	payload := `{"entries":{"num.add ⇄ num.add":"always"}}`
	return []byte(fmt.Sprintf(`{"magic":"JANUS-SPEC","format":2,"mode":"abstract","shards":16,"crc32":%d,"payload":%s}`,
		crc32.ChecksumIEEE([]byte(payload)), payload))
}

// TestSpecEnvelopeFields pins the artifact's layout: the magic, the
// format byte, and one frame holding the mode, the count and the entries.
func TestSpecEnvelopeFields(t *testing.T) {
	raw := saveSample(t)
	if string(raw[:8]) != "JANUSSPC" || raw[8] != 3 {
		t.Fatalf("header = %q %d, want JANUSSPC 3", raw[:8], raw[8])
	}
	payload, next, err := fsio.NextFrame(raw, 9)
	if err != nil || next != len(raw) {
		t.Fatalf("artifact is not one frame after the header: next=%d of %d, %v", next, len(raw), err)
	}
	if payload[0] != abstractByte || payload[1] != 2 {
		t.Errorf("payload starts mode=%d count=%d, want abstract (%d) and 2", payload[0], payload[1], abstractByte)
	}
}

// TestSaveIsCanonical: entries are written sorted by key, so saving what
// an artifact loads reproduces it byte for byte.
func TestSaveIsCanonical(t *testing.T) {
	raw := saveSample(t)
	c := spec.New(spec.Abstract, false)
	if err := c.Load(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := c.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatalf("Save(Load(x)) differs from x:\n%x\n%x", again.Bytes(), raw)
	}
}

// TestLoadRejectsBitFlip: a bit flipped anywhere past the header is
// caught by the frame's length or CRC and reported as a *fsio.FrameError,
// leaving the cache unchanged.
func TestLoadRejectsBitFlip(t *testing.T) {
	raw := saveSample(t)
	for flip := 9; flip < len(raw); flip++ {
		mut := append([]byte(nil), raw...)
		mut[flip] ^= 0x10
		dst := spec.New(spec.Abstract, false)
		var fe *fsio.FrameError
		if err := dst.Load(bytes.NewReader(mut)); !errors.As(err, &fe) {
			t.Fatalf("bit flip at %d: %v, want a *fsio.FrameError", flip, err)
		}
		if dst.Len() != 0 {
			t.Fatalf("rejected load changed the cache (%d entries)", dst.Len())
		}
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	raw := saveSample(t)
	dst := spec.New(spec.Abstract, false)
	err := dst.Load(bytes.NewReader(raw[:len(raw)/2]))
	var fe *fsio.FrameError
	if !errors.As(err, &fe) || fe.Reason != fsio.Torn {
		t.Fatalf("truncated artifact: %v, want a *fsio.FrameError (%s)", err, fsio.Torn)
	}
}

// TestLoadSpecErrorReasons pins the reason of each artifact fault.
func TestLoadSpecErrorReasons(t *testing.T) {
	good := saveSample(t)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-5] ^= 1 // the payload's last byte, under the CRC
	future := append([]byte(nil), good...)
	future[8] = 4
	cases := []struct {
		name string
		in   []byte
		want fsio.Reason
	}{
		{"foreign", []byte("JANUSTRC\x07"), fsio.BadMagic},
		{"format-2", format2(), fsio.BadMagic},
		{"future-format", future, fsio.BadFormat},
		{"cut", good[:len(good)-1], fsio.Torn},
		{"flipped", flipped, fsio.BadChecksum},
		{"unknown-kind", artifact(abstractByte, 1, 1, 'k', 9), fsio.BadRecord},
		{"no-kind", artifact(abstractByte, 1, 1, 'k', 0), fsio.BadRecord},
		{"keys-out-of-order", artifact(abstractByte, 2, 1, 'k', alwaysByte, 1, 'a', alwaysByte), fsio.BadRecord},
		{"unknown-mode", artifact(7, 0), fsio.BadRecord},
		{"trailing-payload", artifact(abstractByte, 0, 0), fsio.BadRecord},
		{"trailing-file", append(append([]byte(nil), good...), 0), fsio.BadRecord},
		{"other-mode", artifact(concreteByte, 0), fsio.BadFormat},
	}
	for _, tc := range cases {
		dst := spec.New(spec.Abstract, false)
		err := dst.Load(bytes.NewReader(tc.in))
		var fe *fsio.FrameError
		if !errors.As(err, &fe) || fe.Reason != tc.want {
			t.Errorf("%s: %v, want a *fsio.FrameError (%s)", tc.name, err, tc.want)
		}
		if dst.Len() != 0 {
			t.Errorf("%s: rejected load left %d entries", tc.name, dst.Len())
		}
	}
	err := spec.New(spec.Abstract, false).Load(bytes.NewReader(artifact(concreteByte, 0)))
	if !strings.Contains(err.Error(), "concrete") || !strings.Contains(err.Error(), "abstract") {
		t.Errorf("mode mismatch %q does not name both modes", err)
	}
}

// TestLoadLegacyV1 pins that a spec from an older build does not load:
// the magic-less v1 document and the format-2 JSON envelope are both
// BadMagic, and leave the cache unchanged.
func TestLoadLegacyV1(t *testing.T) {
	dst := spec.New(spec.Abstract, false)
	v1 := []byte(`{"format":1,"mode":"abstract","entries":{"num.add|num.add":"always"}}`)
	for _, old := range [][]byte{v1, format2()} {
		var fe *fsio.FrameError
		if err := dst.Load(bytes.NewReader(old)); !errors.As(err, &fe) || fe.Reason != fsio.BadMagic {
			t.Fatalf("%.20s…: %v, want a *fsio.FrameError (%s)", old, err, fsio.BadMagic)
		}
	}
	if dst.Len() != 0 {
		t.Fatalf("rejected load left %d entries in the cache", dst.Len())
	}
}

// TestLoadFrozenIsErrFrozenNotSpecError: the caller's faults are not the
// artifact's. ErrFrozen and a read error are returned untyped, so a
// lenient loader does not mistake them for a bad file.
func TestLoadFrozenIsErrFrozenNotSpecError(t *testing.T) {
	raw := saveSample(t)
	dst := spec.New(spec.Abstract, false)
	dst.Freeze()
	err := dst.Load(bytes.NewReader(raw))
	if !errors.Is(err, spec.ErrFrozen) {
		t.Fatalf("frozen load: %v, want spec.ErrFrozen", err)
	}
	var fe *fsio.FrameError
	if errors.As(err, &fe) {
		t.Fatalf("spec.ErrFrozen must not be a *fsio.FrameError (contract violation, not artifact fault)")
	}
	readErr := errors.New("disk gone")
	err = spec.New(spec.Abstract, false).Load(iotest.ErrReader(readErr))
	if !errors.Is(err, readErr) || errors.As(err, &fe) {
		t.Fatalf("failing reader: %v, want the read error, untyped", err)
	}
}
