package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The commutativity specification built by offline training is a
// deployment artifact: train once on representative inputs, ship the spec,
// load it in production (Figure 6's flow). This file gives it a stable,
// corruption-detecting serialization: a versioned envelope (magic, format
// version, abstraction mode, shard count) around a CRC32-checksummed
// payload, so a truncated, bit-flipped, or foreign file is rejected with a
// typed *SpecError instead of silently training the production cache on
// garbage commutativity verdicts.

// specMagic identifies a JANUS spec artifact; a file without it is not a
// spec.
const specMagic = "JANUS-SPEC"

// specFormat is the current schema version. There is no reader for 1 (a
// bare {format, mode, entries} object with no magic and no checksum).
const specFormat = 2

// specEnvelope is the on-disk format: metadata in the clear, the entry
// table as an opaque checksummed payload.
type specEnvelope struct {
	// Magic is specMagic; its presence distinguishes an envelope from
	// arbitrary JSON.
	Magic string `json:"magic"`
	// Format identifies the schema; bump on incompatible change.
	Format int `json:"format"`
	// Mode is the abstraction mode the keys were built under; a spec is
	// only meaningful to a cache using the same mode.
	Mode string `json:"mode"`
	// Shards records the shard count of the saving cache. Informational:
	// entries rehash on load, so a different shard count is not an error.
	Shards int `json:"shards"`
	// CRC32 is the IEEE checksum of the payload in compact JSON form.
	CRC32 uint32 `json:"crc32"`
	// Payload is the checksummed entry table.
	Payload json.RawMessage `json:"payload"`
}

// specPayload is the checksummed inner document.
type specPayload struct {
	// Entries maps pair keys to condition kind names.
	Entries map[string]string `json:"entries"`
}

// ErrFrozen is returned by Load on a frozen cache: the spec-loading phase
// ends at Freeze, and the caller — not the artifact — violated that
// contract. It is deliberately not a *SpecError, so lenient loaders that
// degrade on artifact faults still surface it.
var ErrFrozen = errors.New("spec: cannot load a spec into a frozen cache")

// SpecReason classifies why a spec artifact was rejected.
type SpecReason int

// Spec rejection reasons.
const (
	// SpecBadPayload: the file is not parseable as a spec at all, or the
	// checksummed payload does not decode.
	SpecBadPayload SpecReason = iota
	// SpecBadMagic: the file parses as JSON but carries no magic or a
	// wrong one.
	SpecBadMagic
	// SpecBadFormat: the format version is unknown.
	SpecBadFormat
	// SpecBadChecksum: the payload does not match its CRC32 — the
	// artifact was corrupted (bit flip, truncation, partial write).
	SpecBadChecksum
	// SpecModeMismatch: the spec was trained under a different
	// abstraction mode than the loading cache uses.
	SpecModeMismatch
	// SpecBadEntry: an entry names an unknown condition kind.
	SpecBadEntry
)

// String renders the reason.
func (r SpecReason) String() string {
	switch r {
	case SpecBadMagic:
		return "bad-magic"
	case SpecBadFormat:
		return "bad-format"
	case SpecBadChecksum:
		return "bad-checksum"
	case SpecModeMismatch:
		return "mode-mismatch"
	case SpecBadEntry:
		return "bad-entry"
	default:
		return "bad-payload"
	}
}

// SpecError reports a rejected spec artifact. Every artifact-fault path
// out of Load returns one (errors.As-matchable), so callers can
// distinguish "this file is bad" — recoverable by degrading to write-set
// detection — from I/O errors and contract violations like ErrFrozen.
type SpecError struct {
	// Reason classifies the rejection.
	Reason SpecReason
	// Detail is a human-readable specifics string.
	Detail string
	// Err is the underlying cause, when one exists.
	Err error
}

// Error implements error.
func (e *SpecError) Error() string {
	msg := "spec: rejected (" + e.Reason.String() + ")"
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap returns the underlying cause.
func (e *SpecError) Unwrap() error { return e.Err }

func kindFromName(s string) (conditionKind, error) {
	for _, k := range []conditionKind{
		condAlways, condRegister, condStackIdentity,
	} {
		if k.String() == s {
			return k, nil
		}
	}
	return condNone, &SpecError{Reason: SpecBadEntry, Detail: fmt.Sprintf("unknown condition kind %q", s)}
}

// Save writes the cache's entries as a versioned envelope with a CRC32
// checksum over the compact payload.
func (c *Cache) Save(w io.Writer) error {
	entries := c.snapshotEntries()
	p := specPayload{Entries: make(map[string]string, len(entries))}
	for k, v := range entries {
		p.Entries[k] = v.String()
	}
	// json.Marshal emits the compact form with sorted map keys — the
	// canonical bytes the checksum covers. Load re-compacts whatever
	// indentation the envelope encoder (or a pretty-printing editor)
	// applied before verifying.
	payload, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("spec: encoding payload: %w", err)
	}
	env := specEnvelope{
		Magic:   specMagic,
		Format:  specFormat,
		Mode:    c.mode.String(),
		Shards:  numShards,
		CRC32:   crc32.ChecksumIEEE(payload),
		Payload: payload,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}

// Load merges a saved specification into the cache, verifying the
// envelope (magic, format version, abstraction mode) and the payload
// checksum first. Artifact faults — corruption, version or mode mismatch,
// unknown entries — are reported as *SpecError and leave the cache
// unchanged; loading into a frozen cache returns ErrFrozen.
// Conflicting kinds resolve by resolve, so loading multiple specs
// is order-independent.
func (c *Cache) Load(r io.Reader) error {
	if c.frozen.Load() {
		return ErrFrozen
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("spec: reading: %w", err)
	}
	var env specEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return &SpecError{Reason: SpecBadPayload, Detail: "decoding spec", Err: err}
	}
	if env.Magic != specMagic {
		return &SpecError{Reason: SpecBadMagic, Detail: fmt.Sprintf("magic %q, want %q", env.Magic, specMagic)}
	}
	if env.Format != specFormat {
		return &SpecError{Reason: SpecBadFormat, Detail: fmt.Sprintf("unsupported spec format %d (want %d)", env.Format, specFormat)}
	}
	if env.Mode != c.mode.String() {
		return &SpecError{Reason: SpecModeMismatch, Detail: fmt.Sprintf("spec built with %s abstraction, cache uses %s", env.Mode, c.mode)}
	}
	// Verify the checksum over the canonical compact form: the envelope
	// was written indented, so the raw payload bytes carry that
	// indentation and must be re-compacted first.
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Payload); err != nil {
		return &SpecError{Reason: SpecBadPayload, Detail: "compacting payload", Err: err}
	}
	if sum := crc32.ChecksumIEEE(compact.Bytes()); sum != env.CRC32 {
		return &SpecError{Reason: SpecBadChecksum, Detail: fmt.Sprintf("payload crc32 %08x, envelope says %08x", sum, env.CRC32)}
	}
	var p specPayload
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		return &SpecError{Reason: SpecBadPayload, Detail: "decoding payload", Err: err}
	}
	parsed := make(map[string]conditionKind, len(p.Entries))
	for k, name := range p.Entries {
		kind, err := kindFromName(name)
		if err != nil {
			return err
		}
		parsed[k] = kind
	}
	for k, v := range parsed {
		c.put(k, v)
	}
	return nil
}
