// Package cache_test checks the commutativity specification as its users
// hold it: a cache that answers Lookup, learns a pair on its first miss
// when built to learn, and is saved and loaded as a versioned, checksummed
// artifact. The directory holds tests only; the code they exercise is
// internal/spec.
package cache_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/adt"
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
		"not json",
		`{"format":99,"mode":"abstract","entries":{}}`,
		`{"format":1,"mode":"abstract","entries":{"k":"bogus-kind"}}`,
	} {
		if err := dst.Load(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q must be rejected", bad)
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

func TestSpecEnvelopeFields(t *testing.T) {
	raw := saveSample(t)
	var env map[string]any
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env["magic"] != "JANUS-SPEC" {
		t.Errorf("magic = %v", env["magic"])
	}
	if env["format"] != float64(2) {
		t.Errorf("format = %v", env["format"])
	}
	if env["mode"] != "abstract" {
		t.Errorf("mode = %v", env["mode"])
	}
	if s, ok := env["shards"].(float64); !ok || s < 1 {
		t.Errorf("shards = %v", env["shards"])
	}
	if _, ok := env["crc32"].(float64); !ok {
		t.Errorf("crc32 missing: %v", env["crc32"])
	}
}

// TestLoadRejectsBitFlip is the acceptance criterion: flipping any single
// payload bit must be caught by the checksum (or, if the flip breaks JSON
// syntax, by the parser) and reported as *spec.SpecError, leaving the cache
// unchanged.
func TestLoadRejectsBitFlip(t *testing.T) {
	raw := saveSample(t)
	// Flip a bit inside the payload's entry data: find a key character
	// past the `"payload"` field start so the envelope metadata stays
	// intact and the corruption lands in checksummed bytes.
	at := bytes.Index(raw, []byte(`"entries"`))
	if at < 0 {
		t.Fatalf("no entries in artifact:\n%s", raw)
	}
	for _, flip := range []int{at + 12, at + 13, at + 14} {
		mut := append([]byte(nil), raw...)
		mut[flip] ^= 0x10
		dst := spec.New(spec.Abstract, false)
		err := dst.Load(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("bit flip at %d not detected", flip)
		}
		var se *spec.SpecError
		if !errors.As(err, &se) {
			t.Fatalf("bit flip at %d: error %v is not *spec.SpecError", flip, err)
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
	var se *spec.SpecError
	if !errors.As(err, &se) {
		t.Fatalf("truncated artifact: error %v is not *spec.SpecError", err)
	}
}

func TestLoadSpecErrorReasons(t *testing.T) {
	bogus := `{"entries":{"k":"bogus-kind"}}`
	cases := []struct {
		in   string
		want spec.SpecReason
	}{
		{`{"magic":"OTHER-SPEC","format":2,"mode":"abstract","crc32":0,"payload":{}}`, spec.SpecBadMagic},
		{`{"magic":"JANUS-SPEC","format":9,"mode":"abstract","crc32":0,"payload":{}}`, spec.SpecBadFormat},
		{`{"magic":"JANUS-SPEC","format":2,"mode":"concrete","crc32":0,"payload":{}}`, spec.SpecModeMismatch},
		{`{"magic":"JANUS-SPEC","format":2,"mode":"abstract","crc32":1,"payload":{"entries":{}}}`, spec.SpecBadChecksum},
		{`not json`, spec.SpecBadPayload},
		{fmt.Sprintf(`{"magic":"JANUS-SPEC","format":2,"mode":"abstract","crc32":%d,"payload":%s}`,
			crc32.ChecksumIEEE([]byte(bogus)), bogus), spec.SpecBadEntry},
	}
	for _, tc := range cases {
		dst := spec.New(spec.Abstract, false)
		err := dst.Load(strings.NewReader(tc.in))
		var se *spec.SpecError
		if !errors.As(err, &se) {
			t.Errorf("input %q: error %v is not *spec.SpecError", tc.in, err)
			continue
		}
		if se.Reason != tc.want {
			t.Errorf("input %q: reason %v, want %v", tc.in, se.Reason, tc.want)
		}
	}
}

// TestLoadLegacyV1 pins that stripping the envelope does not bypass the
// checksum: a magic-less v1 document, which carries none, is rejected
// with a typed error and leaves the cache unchanged.
func TestLoadLegacyV1(t *testing.T) {
	dst := spec.New(spec.Abstract, false)
	v1 := `{"format":1,"mode":"abstract","entries":{"num.add|num.add":"always"}}`
	err := dst.Load(strings.NewReader(v1))
	var se *spec.SpecError
	if !errors.As(err, &se) || se.Reason != spec.SpecBadMagic {
		t.Fatalf("magic-less v1 spec: %v, want *spec.SpecError{spec.SpecBadMagic}", err)
	}
	if dst.Len() != 0 {
		t.Fatalf("rejected load left %d entries in the cache", dst.Len())
	}
}

func TestLoadFrozenIsErrFrozenNotSpecError(t *testing.T) {
	raw := saveSample(t)
	dst := spec.New(spec.Abstract, false)
	dst.Freeze()
	err := dst.Load(bytes.NewReader(raw))
	if !errors.Is(err, spec.ErrFrozen) {
		t.Fatalf("frozen load: %v, want spec.ErrFrozen", err)
	}
	var se *spec.SpecError
	if errors.As(err, &se) {
		t.Fatalf("spec.ErrFrozen must not be a *spec.SpecError (contract violation, not artifact fault)")
	}
}
