package fsio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Every artifact on disk — the trained spec (internal/spec), the op trace
// (internal/rec), the journal segment and the snapshot (internal/wal) — is
// built from one framing:
//
//	file  := magic format ... frame ...
//	frame := uvarint(len(payload)) payload crc32(payload, 4 bytes LE)
//
// A format may put a one-byte marker before a frame to say what the frame
// holds; the marker belongs to the format, the frame to this file. What
// goes inside a payload is the format's field encoding, read back with a
// Reader.
//
// Torn versus corrupt: bytes that end before the header or a frame does
// are Torn — a writer died mid-append, or the file was cut. A frame whose
// bytes are all present but whose CRC disagrees is BadChecksum. A
// CRC-valid payload the format cannot parse is BadRecord. A damaged length
// prefix (the CRC does not cover it) reads as Torn when it points past the
// end of the buffer and as BadChecksum otherwise.

// Reason classifies why a framed artifact was rejected.
type Reason uint8

// Rejection reasons.
const (
	// BadMagic: the file does not start with the format's magic.
	BadMagic Reason = iota
	// BadFormat: the format byte names a version this build does not read.
	BadFormat
	// BadChecksum: a frame's CRC32 does not match its payload.
	BadChecksum
	// Torn: the bytes end inside the header or a frame, or a trace lacks
	// what its capture dropped (no footer, evicted chunks).
	Torn
	// BadRecord: a payload, or the bytes between frames, is malformed.
	BadRecord
	// SeqGap: a journal is missing records it should hold — damage
	// beyond a recoverable torn tail.
	SeqGap
	// Lossy: a trace omits transactions that could not be encoded and
	// cannot be replayed faithfully.
	Lossy
)

var reasonNames = [...]string{
	BadMagic:    "bad magic",
	BadFormat:   "unsupported format",
	BadChecksum: "checksum mismatch",
	Torn:        "truncated",
	BadRecord:   "malformed record",
	SeqGap:      "sequence gap",
	Lossy:       "lossy trace",
}

// String renders the reason.
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// FrameError is the typed rejection of a framed artifact.
type FrameError struct {
	Reason Reason
	Detail string
	Err    error
}

// Error renders the failure.
func (e *FrameError) Error() string {
	msg := e.Reason.String()
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying cause.
func (e *FrameError) Unwrap() error { return e.Err }

// Errorf builds a *FrameError with a formatted detail.
func Errorf(reason Reason, format string, args ...any) *FrameError {
	return &FrameError{Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// AppendHeader appends a file header: the magic and the format byte.
func AppendHeader(dst []byte, magic string, format byte) []byte {
	return append(append(dst, magic...), format)
}

// CheckHeader verifies that buf starts with magic and format and returns
// the offset past them. Bytes that contradict the magic are BadMagic; a
// buffer that ends inside a header it agrees with is Torn.
func CheckHeader(buf []byte, magic string, format byte) (int, error) {
	n := min(len(buf), len(magic))
	if string(buf[:n]) != magic[:n] {
		return 0, Errorf(BadMagic, "not a %s file", magic)
	}
	if len(buf) <= len(magic) {
		return 0, Errorf(Torn, "%s file of %d bytes ends inside its header", magic, len(buf))
	}
	if got := buf[len(magic)]; got != format {
		return 0, Errorf(BadFormat, "%s format %d, this build reads %d", magic, got, format)
	}
	return len(magic) + 1, nil
}

// AppendFrame appends payload as one length-prefixed, CRC32-trailed frame.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// NextFrame reads the frame starting at buf[off] and returns its verified
// payload (a subslice of buf) and the offset past the frame.
func NextFrame(buf []byte, off int) (payload []byte, next int, err error) {
	n, w := binary.Uvarint(buf[off:])
	if w == 0 {
		return nil, 0, Errorf(Torn, "frame at offset %d ends inside its length", off)
	}
	if w < 0 {
		return nil, 0, Errorf(BadRecord, "frame at offset %d: length overflows", off)
	}
	start := off + w
	if rest := uint64(len(buf) - start); n > rest || rest-n < 4 {
		return nil, 0, Errorf(Torn, "frame at offset %d: %d-byte payload runs past the end", off, n)
	}
	end := start + int(n)
	payload = buf[start:end:end]
	want := binary.LittleEndian.Uint32(buf[end:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, 0, Errorf(BadChecksum, "frame at offset %d: crc32 %08x, want %08x", off, got, want)
	}
	return payload, end + 4, nil
}

// Reader is a bounds-checked cursor over one payload. The first failure
// latches: later reads return zero values, and Err reports that failure
// as a BadRecord *FrameError.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a Reader positioned at the start of buf.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

// Err reports the latched failure, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left unread.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Fail latches a BadRecord failure at the current offset, unless one is
// latched already.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = Errorf(BadRecord, "offset %d: %s", r.pos, fmt.Sprintf(format, args...))
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.pos += n
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.pos >= len(r.buf) {
		r.Fail("unexpected end of payload") // a no-op once a failure is latched
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Bytes reads n bytes and returns them as a subslice of the payload.
func (r *Reader) Bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.Fail("%d-byte field exceeds payload", n)
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// U64LE reads a little-endian uint64.
func (r *Reader) U64LE() uint64 {
	b := r.Bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Count reads an element count. Every element takes at least one byte, so
// a count beyond the unread bytes is malformed; callers may size a make
// by what Count returns.
func (r *Reader) Count(what string) int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)-r.pos) {
		r.Fail("%s count %d exceeds payload", what, n)
		return 0
	}
	return int(n)
}

// Done reports the latched failure, or BadRecord when bytes are left
// unread.
func (r *Reader) Done() error {
	if r.err == nil && r.pos != len(r.buf) {
		r.Fail("%d trailing bytes", len(r.buf)-r.pos)
	}
	return r.err
}
