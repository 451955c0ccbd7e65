package rec

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/adt"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/relation"
	"repro/internal/state"
)

// TraceReason classifies why a trace artifact was rejected, mirroring the
// cache package's SpecReason discipline so callers can branch on the
// failure class rather than parse message strings.
type TraceReason int

// Rejection reasons.
const (
	// TraceBadMagic: the file does not start with the JANUSTRC magic.
	TraceBadMagic TraceReason = iota
	// TraceBadFormat: the format version is not the one this build reads.
	TraceBadFormat
	// TraceBadChecksum: a frame's CRC32 does not match its payload.
	TraceBadChecksum
	// TraceTruncated: the stream ended mid-frame or without a footer.
	TraceTruncated
	// TraceBadRecord: a frame payload is structurally malformed.
	TraceBadRecord
	// TraceLossy: the trace omits transactions that could not be encoded
	// and therefore cannot be replayed faithfully.
	TraceLossy
)

// String renders the reason.
func (r TraceReason) String() string {
	switch r {
	case TraceBadMagic:
		return "bad magic"
	case TraceBadFormat:
		return "unsupported format"
	case TraceBadChecksum:
		return "checksum mismatch"
	case TraceTruncated:
		return "truncated trace"
	case TraceBadRecord:
		return "malformed record"
	case TraceLossy:
		return "lossy trace"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// TraceError is the typed rejection error for trace artifacts.
type TraceError struct {
	Reason TraceReason
	Detail string
	Err    error
}

// Error renders the failure.
func (e *TraceError) Error() string {
	msg := "rec: " + e.Reason.String()
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying cause.
func (e *TraceError) Unwrap() error { return e.Err }

func traceErr(reason TraceReason, format string, args ...any) *TraceError {
	return &TraceError{Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// DigestKind says what the footer digest covers.
type DigestKind byte

// Digest kinds.
const (
	// DigestNone: no digest (truncated or lossy capture).
	DigestNone DigestKind = iota
	// DigestFinal: digest of the actual final state at recorder close.
	DigestFinal
	// DigestDerived: digest computed at dump time by replaying the
	// retained transactions over the initial state (flight-recorder dumps
	// taken mid-run with a complete, lossless history).
	DigestDerived
)

// String renders the kind.
func (k DigestKind) String() string {
	switch k {
	case DigestFinal:
		return "final"
	case DigestDerived:
		return "derived"
	default:
		return "none"
	}
}

// TxnRecord is one committed transaction as captured in the trace.
type TxnRecord struct {
	// Task is the stm's 1-based task identifier, matching the Task field
	// of captured obs events (subtract one to index the original task
	// slice).
	Task int
	// CommitTime is the global-clock value the commit published.
	CommitTime int64
	// Shape is the seqabs abstraction key of the op sequence ("" when
	// shape capture was disabled).
	Shape string
	// Ops is the committed op log in execution order.
	Ops []oplog.Op
	// Observed holds the per-op observed values (nil entry = none).
	Observed []state.Value
}

// Trace is a fully decoded, validated artifact.
type Trace struct {
	Meta    Meta
	Initial *state.State
	// Txns is sorted by CommitTime: the serialization order.
	Txns []TxnRecord
	// Events are the protocol events captured alongside the op logs.
	Events []obs.Event
	// Commits is the footer's commit count — the number of commits the
	// recorder saw, which exceeds len(Txns) when chunks were evicted.
	Commits int64
	// Digest and DigestKind come from the footer.
	Digest     uint64
	DigestKind DigestKind
	// Truncated marks a flight-recorder dump that evicted chunks.
	Truncated bool
	// Lossy marks a capture that skipped unencodable transactions.
	Lossy       bool
	LossyDetail string
	// EvictedChunks counts ring evictions before the dump.
	EvictedChunks int
}

// dec is an error-latching reader over a fully buffered payload.
type dec struct {
	buf []byte
	pos int
	tab []string
	// inline disables the string table (header/footer payloads).
	inline bool
	err    error
}

func (d *dec) fail(reason TraceReason, format string, args ...any) {
	if d.err == nil {
		d.err = traceErr(reason, format, args...)
	}
}

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail(TraceBadRecord, "bad uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *dec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail(TraceBadRecord, "bad varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.fail(TraceBadRecord, "unexpected end of payload")
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *dec) bool() bool { return d.byte() != 0 }

func (d *dec) str() string {
	ref := d.u()
	if d.err != nil {
		return ""
	}
	if ref > 0 {
		if d.inline {
			d.fail(TraceBadRecord, "string back-reference in inline payload")
			return ""
		}
		idx := int(ref - 1)
		if idx >= len(d.tab) {
			d.fail(TraceBadRecord, "string back-reference %d beyond table size %d", idx, len(d.tab))
			return ""
		}
		return d.tab[idx]
	}
	n := d.u()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.pos) {
		d.fail(TraceBadRecord, "string length %d exceeds payload", n)
		return ""
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	if !d.inline {
		d.tab = append(d.tab, s)
	}
	return s
}

func (d *dec) value() state.Value {
	switch tag := d.byte(); tag {
	case valNone:
		return nil
	case valInt:
		return state.Int(d.i())
	case valStr:
		return state.Str(d.str())
	case valBool:
		return state.Bool(d.bool())
	case valList:
		n := d.u()
		if n > uint64(len(d.buf)-d.pos) {
			d.fail(TraceBadRecord, "list length %d exceeds payload", n)
			return nil
		}
		out := make(state.IntList, n)
		for i := range out {
			out[i] = d.i()
		}
		return out
	case valRel:
		return d.rel()
	default:
		d.fail(TraceBadRecord, "unknown value tag %d", tag)
		return nil
	}
}

// locations decodes n location→value bindings, the body of a state
// snapshot. A binding without a value (the tag that op results use for
// "none") is malformed: a nil Value would panic the state's first Clone or
// Equal.
func (d *dec) locations(n uint64) *state.State {
	st := state.New()
	for i := uint64(0); i < n && d.err == nil; i++ {
		loc := state.Loc(d.str())
		v := d.value()
		if d.err == nil && v == nil {
			d.fail(TraceBadRecord, "location %q has no value", loc)
		}
		if d.err == nil {
			st.Set(loc, v)
		}
	}
	return st
}

func (d *dec) strs(what string) []string {
	n := d.u()
	if n > uint64(len(d.buf)-d.pos) {
		d.fail(TraceBadRecord, "%s count %d exceeds payload", what, n)
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *dec) rel() state.Value {
	cols := d.strs("column")
	var fd *relation.FD
	if d.bool() {
		fd = &relation.FD{Domain: d.strs("fd domain"), Range: d.strs("fd range")}
	}
	if d.err != nil {
		return nil
	}
	// relation.New panics on invariant violations (it guards programmer
	// error); a CRC-valid but corrupted trace must surface a typed error
	// instead, so vet the decoded schema first.
	if !d.validRelSchema(cols, fd) {
		return nil
	}
	r := relation.New(cols, fd)
	ntup := d.u()
	if ntup > uint64(len(d.buf)-d.pos) {
		d.fail(TraceBadRecord, "tuple count %d exceeds payload", ntup)
		return nil
	}
	for i := uint64(0); i < ntup && d.err == nil; i++ {
		ncol := d.u()
		if ncol > uint64(len(d.buf)-d.pos) {
			d.fail(TraceBadRecord, "tuple width %d exceeds payload", ncol)
			return nil
		}
		t := make(relation.Tuple, ncol)
		for j := uint64(0); j < ncol; j++ {
			k := d.str()
			t[k] = d.str()
		}
		if d.err == nil {
			r.Insert(t)
		}
	}
	return state.Rel{R: r}
}

// validRelSchema checks the invariants relation.New enforces by panic:
// distinct column names and, when an FD is present, that its domain and
// range exactly partition the columns. Violations latch TraceBadRecord.
func (d *dec) validRelSchema(cols []string, fd *relation.FD) bool {
	sorted := append([]string(nil), cols...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			d.fail(TraceBadRecord, "relation has duplicate column %q", sorted[i])
			return false
		}
	}
	if fd == nil {
		return true
	}
	all := append(append([]string(nil), fd.Domain...), fd.Range...)
	sort.Strings(all)
	if len(all) != len(sorted) {
		d.fail(TraceBadRecord, "relation FD covers %d columns, relation has %d", len(all), len(sorted))
		return false
	}
	for i := range all {
		if all[i] != sorted[i] {
			d.fail(TraceBadRecord, "relation FD domain+range does not partition columns")
			return false
		}
	}
	return true
}

func (d *dec) op() oplog.Op {
	code := d.byte()
	if d.err != nil {
		return nil
	}
	loc := state.Loc(d.str())
	switch code {
	case opNumAdd:
		return adt.NumAddOp{L: loc, Delta: d.i()}
	case opNumStore:
		return adt.NumStoreOp{L: loc, V: d.i()}
	case opNumLoad:
		return adt.NumLoadOp{L: loc}
	case opStrStore:
		return adt.StrStoreOp{L: loc, V: d.str()}
	case opStrLoad:
		return adt.StrLoadOp{L: loc}
	case opBoolStore:
		return adt.BoolStoreOp{L: loc, V: d.bool()}
	case opBoolLoad:
		return adt.BoolLoadOp{L: loc}
	case opListPush:
		return adt.ListPushOp{L: loc, V: d.i()}
	case opListPop:
		return adt.ListPopOp{L: loc}
	case opListSize:
		return adt.ListSizeOp{L: loc}
	case opRelPut:
		return adt.RelPutOp{L: loc, Key: d.str(), Val: d.str()}
	case opRelRemove:
		return adt.RelRemoveOp{L: loc, Key: d.str()}
	case opRelGet:
		return adt.RelGetOp{L: loc, Key: d.str()}
	case opRelHas:
		return adt.RelHasOp{L: loc, Key: d.str()}
	case opRelClear:
		return adt.RelClearOp{L: loc}
	default:
		d.fail(TraceBadRecord, "unknown opcode %d", code)
		return nil
	}
}

// readFramePayload consumes a uvarint length, payload, and CRC trailer
// from raw at *off, verifying the checksum.
func readFramePayload(raw []byte, off *int, what string) ([]byte, error) {
	n, w := binary.Uvarint(raw[*off:])
	if w <= 0 {
		return nil, traceErr(TraceTruncated, "%s length missing", what)
	}
	*off += w
	if n > uint64(len(raw)-*off) || uint64(len(raw)-*off)-n < 4 {
		return nil, traceErr(TraceTruncated, "%s payload of %d bytes exceeds file", what, n)
	}
	payload := raw[*off : *off+int(n)]
	*off += int(n)
	want := binary.LittleEndian.Uint32(raw[*off : *off+4])
	*off += 4
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, traceErr(TraceBadChecksum, "%s crc32 %08x, want %08x", what, got, want)
	}
	return payload, nil
}

// chunkPayload holds a decoded chunk's records.
type chunkPayload struct {
	txns   []TxnRecord
	events []obs.Event
}

// decodeChunkFrame reads one chunk frame at *off (past the 'C' marker) and
// decodes its records. Shared by ReadTrace and the recorder's
// derived-digest path.
func decodeChunkFrame(raw []byte, off *int, compressed bool) (chunkPayload, error) {
	var out chunkPayload
	clen, w := binary.Uvarint(raw[*off:])
	if w <= 0 {
		return out, traceErr(TraceTruncated, "chunk length missing")
	}
	*off += w
	rawLen, w := binary.Uvarint(raw[*off:])
	if w <= 0 {
		return out, traceErr(TraceTruncated, "chunk raw length missing")
	}
	*off += w
	if clen > uint64(len(raw)-*off) || uint64(len(raw)-*off)-clen < 4 {
		return out, traceErr(TraceTruncated, "chunk body of %d bytes exceeds file", clen)
	}
	body := raw[*off : *off+int(clen)]
	*off += int(clen)
	want := binary.LittleEndian.Uint32(raw[*off : *off+4])
	*off += 4
	if got := crc32.ChecksumIEEE(body); got != want {
		return out, traceErr(TraceBadChecksum, "chunk crc32 %08x, want %08x", got, want)
	}
	if compressed {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return out, &TraceError{Reason: TraceBadRecord, Detail: "chunk gzip header", Err: err}
		}
		// The raw length bounds decompression so a corrupted length can't
		// balloon memory.
		inflated, err := io.ReadAll(io.LimitReader(zr, int64(rawLen)+1))
		if err != nil {
			return out, &TraceError{Reason: TraceBadRecord, Detail: "chunk gzip body", Err: err}
		}
		if uint64(len(inflated)) != rawLen {
			return out, traceErr(TraceBadRecord, "chunk inflated to %d bytes, header says %d", len(inflated), rawLen)
		}
		body = inflated
	} else if uint64(len(body)) != rawLen {
		return out, traceErr(TraceBadRecord, "chunk body %d bytes, header says %d", len(body), rawLen)
	}

	d := &dec{buf: body}
	for d.pos < len(d.buf) && d.err == nil {
		switch kind := d.byte(); kind {
		case recTxn:
			t := TxnRecord{
				Task:       int(d.u()),
				CommitTime: int64(d.u()),
				Shape:      d.str(),
			}
			nops := d.u()
			if nops > uint64(len(d.buf)-d.pos) {
				d.fail(TraceBadRecord, "op count %d exceeds payload", nops)
				break
			}
			t.Ops = make([]oplog.Op, 0, nops)
			t.Observed = make([]state.Value, 0, nops)
			for i := uint64(0); i < nops && d.err == nil; i++ {
				t.Ops = append(t.Ops, d.op())
				if d.bool() {
					t.Observed = append(t.Observed, d.value())
				} else {
					t.Observed = append(t.Observed, nil)
				}
			}
			if d.err == nil {
				out.txns = append(out.txns, t)
			}
		case recEvent:
			ev := obs.Event{
				Type:    obs.EventType(d.byte()),
				When:    d.i(),
				Dur:     d.i(),
				Worker:  int32(d.i()),
				Task:    int32(d.i()),
				Attempt: int32(d.i()),
				Reason:  d.str(),
				Loc:     d.str(),
				Detail:  d.str(),
			}
			if d.err == nil {
				out.events = append(out.events, ev)
			}
		default:
			d.fail(TraceBadRecord, "unknown record kind %d at offset %d", kind, d.pos-1)
		}
	}
	return out, d.err
}

// ReadTrace decodes and validates a trace artifact. Failures carry a
// *TraceError classifying the rejection.
func ReadTrace(r io.Reader) (*Trace, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, &TraceError{Reason: TraceTruncated, Detail: "reading trace", Err: err}
	}
	return decodeTrace(raw)
}

func decodeTrace(raw []byte) (t *Trace, err error) {
	// Backstop for the never-panic contract: malformed-but-CRC-valid input
	// paths are vetted explicitly (see validRelSchema), but any invariant
	// panic that slips through must still surface as a typed rejection.
	defer func() {
		if p := recover(); p != nil {
			t, err = nil, traceErr(TraceBadRecord, "panic decoding trace: %v", p)
		}
	}()
	if len(raw) < len(traceMagic)+2 {
		return nil, traceErr(TraceBadMagic, "file of %d bytes is too short", len(raw))
	}
	if string(raw[:len(traceMagic)]) != traceMagic {
		return nil, traceErr(TraceBadMagic, "not a JANUS trace")
	}
	off := len(traceMagic)
	if format := raw[off]; format != traceFormat {
		return nil, traceErr(TraceBadFormat, "format %d, this build reads %d", format, traceFormat)
	}
	off++
	flags := raw[off]
	off++
	compressed := flags&flagGzip != 0

	header, err := readFramePayload(raw, &off, "header")
	if err != nil {
		return nil, err
	}
	t = &Trace{}
	hd := &dec{buf: header, inline: true}
	t.Meta.Workload = hd.str()
	t.Meta.Detector = hd.str()
	t.Meta.Ordered = hd.bool()
	t.Meta.Threads = int(hd.u())
	t.Meta.Tasks = int(hd.u())
	t.Meta.Seed = hd.i()
	nlocs := hd.u()
	if nlocs > uint64(len(hd.buf)-hd.pos) {
		hd.fail(TraceBadRecord, "location count %d exceeds payload", nlocs)
	}
	t.Initial = hd.locations(nlocs)
	if hd.err != nil {
		return nil, hd.err
	}

	sawFooter := false
	for off < len(raw) {
		marker := raw[off]
		off++
		switch marker {
		case frameChunk:
			chunk, err := decodeChunkFrame(raw, &off, compressed)
			if err != nil {
				return nil, err
			}
			t.Txns = append(t.Txns, chunk.txns...)
			t.Events = append(t.Events, chunk.events...)
		case frameFooter:
			payload, err := readFramePayload(raw, &off, "footer")
			if err != nil {
				return nil, err
			}
			fd := &dec{buf: payload, inline: true}
			t.Commits = int64(fd.u())
			fd.u() // event count; len(t.Events) is authoritative for retained data
			fl := fd.byte()
			t.Truncated = fl&(1<<0) != 0
			t.Lossy = fl&(1<<1) != 0
			t.DigestKind = DigestKind(fd.byte())
			if fd.err == nil && len(fd.buf)-fd.pos < 8 {
				fd.fail(TraceBadRecord, "footer digest missing")
			}
			if fd.err == nil {
				t.Digest = binary.LittleEndian.Uint64(fd.buf[fd.pos:])
				fd.pos += 8
			}
			t.EvictedChunks = int(fd.u())
			t.LossyDetail = fd.str()
			if fd.err != nil {
				return nil, fd.err
			}
			if off != len(raw) {
				return nil, traceErr(TraceBadRecord, "%d trailing bytes after footer", len(raw)-off)
			}
			sawFooter = true
		default:
			return nil, traceErr(TraceBadRecord, "unknown frame marker %#x at offset %d", marker, off-1)
		}
		if sawFooter {
			break
		}
	}
	if !sawFooter {
		return nil, traceErr(TraceTruncated, "no footer frame")
	}
	sort.SliceStable(t.Txns, func(i, j int) bool { return t.Txns[i].CommitTime < t.Txns[j].CommitTime })
	return t, nil
}
