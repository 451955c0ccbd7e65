package spec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/fsio"
)

// The commutativity specification built by offline training is a
// deployment artifact: train once on representative inputs, ship the spec,
// load it in production (Figure 6's flow). It is one fsio artifact:
//
//	file  := fsio.header("JANUSSPC", 3) frame(spec)
//	spec  := mode count entry*
//	entry := uvarint(len(key)) key kind
//
// mode is the abstraction mode byte the keys were built under, count a
// uvarint, and kind a condition-kind byte; entries are sorted by key, so
// one specification has one encoding. A truncated, bit-flipped, foreign or
// other-mode file is rejected with a typed *fsio.FrameError instead of
// filling the production cache with garbage commutativity verdicts.

// specMagic identifies a JANUS spec artifact.
const specMagic = "JANUSSPC"

// specFormat is the current schema version. Format 2 was a JSON envelope
// (magic "JANUS-SPEC", a CRC over the compacted payload); its files fail
// the magic. No reader for an older format is kept.
const specFormat = 3

// ErrFrozen is returned by Load on a frozen cache: the spec-loading phase
// ends at Freeze, and the caller — not the artifact — violated that
// contract. It is deliberately not a *fsio.FrameError, so lenient loaders
// that degrade on artifact faults still surface it.
var ErrFrozen = errors.New("spec: cannot load a spec into a frozen cache")

// Save writes the cache's entries as a spec artifact.
func (c *Cache) Save(w io.Writer) error {
	entries := c.snapshotEntries()
	keys := sortedKeys(entries)
	payload := binary.AppendUvarint([]byte{byte(c.mode)}, uint64(len(keys)))
	for _, k := range keys {
		payload = binary.AppendUvarint(payload, uint64(len(k)))
		payload = append(append(payload, k...), byte(entries[k]))
	}
	_, err := w.Write(fsio.AppendFrame(fsio.AppendHeader(nil, specMagic, specFormat), payload))
	return err
}

// Load merges a saved specification into the cache. Every artifact fault
// is a *fsio.FrameError and leaves the cache unchanged: a foreign file is
// BadMagic, a cut one Torn, a flipped byte BadChecksum, an unknown
// condition kind or bytes past the frame BadRecord, and a spec built under
// the other abstraction mode BadFormat. A read error fails untyped, and
// loading into a frozen cache returns ErrFrozen. Conflicting kinds resolve
// by resolve, so loading multiple specs is order-independent.
func (c *Cache) Load(r io.Reader) error {
	if c.frozen.Load() {
		return ErrFrozen
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("spec: reading: %w", err)
	}
	parsed, err := decodeSpec(raw, c.mode)
	if err != nil {
		return err
	}
	for k, v := range parsed {
		c.put(k, v)
	}
	return nil
}

// decodeSpec parses a spec artifact built under mode.
func decodeSpec(raw []byte, mode Mode) (map[string]conditionKind, error) {
	off, err := fsio.CheckHeader(raw, specMagic, specFormat)
	if err != nil {
		return nil, err
	}
	payload, next, err := fsio.NextFrame(raw, off)
	if err != nil {
		return nil, err
	}
	if next != len(raw) {
		return nil, fsio.Errorf(fsio.BadRecord, "%d trailing bytes after the spec frame", len(raw)-next)
	}
	d := fsio.NewReader(payload)
	switch m := Mode(d.Byte()); {
	case d.Err() != nil:
	case m != Concrete && m != Abstract:
		d.Fail("unknown abstraction mode %d", m)
	case m != mode:
		return nil, fsio.Errorf(fsio.BadFormat, "spec built with %s abstraction, cache uses %s", m, mode)
	}
	n := d.Count("entry")
	parsed := make(map[string]conditionKind, n)
	prev := ""
	for i := 0; i < n && d.Err() == nil; i++ {
		k := string(d.Bytes(d.Uvarint()))
		kind := conditionKind(d.Byte())
		switch {
		case d.Err() != nil:
		case i > 0 && k <= prev:
			d.Fail("key %q out of order after %q", k, prev)
		case kind != condAlways && kind != condRegister && kind != condStackIdentity:
			d.Fail("unknown condition kind %d", kind)
		}
		parsed[k], prev = kind, k
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return parsed, nil
}
