package rec

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/adt"
	"repro/internal/fsio"
	"repro/internal/oplog"
	"repro/internal/relation"
	"repro/internal/state"
)

// On-disk layout (fsio's frames; integers varint-encoded unless noted):
//
//	file   := fsio.header("JANUSTRC", 8) frame(header) chunk* footer
//	chunk  := 'C' frame(uvarint(rawLen) body)
//	footer := 'F' frame(payload)
//
// The header payload carries the run metadata and a full snapshot of the
// initial shared state; chunk bodies carry the committed transactions'
// records (rawLen is the body length); the footer carries the commit count,
// the completeness flags, and the digest kind and value. Every byte after the format byte sits in a
// CRC32-checked frame, so a truncated or bit-flipped artifact is rejected
// with a typed *fsio.FrameError instead of silently replaying garbage.
//
// Strings inside a chunk go through a per-chunk string table (0 marks an
// inline definition that is appended to the table; n>0 is a back-reference
// to entry n-1). The table is per chunk, not per file, so the flight
// recorder can evict whole chunks from its ring without breaking the
// back-references of the chunks it keeps.

// traceMagic identifies a JANUS op-trace artifact.
const traceMagic = "JANUSTRC"

// traceFormat is the current schema version; bump on incompatible change.
// Format 2 changed nothing in the layout: the footer digest became the
// incremental one (Digest). Format 3 dropped the header's privatization
// byte, which the runtime had stopped choosing. Format 4 moved the flags
// byte and each chunk's rawLen inside their frames' CRC. Format 5 dropped
// three event types, renumbering every later one in the event byte.
// Format 6 dropped another (the serial-escalation span), renumbering again,
// and the header's flags byte, whose one flag marked gzip-compressed
// chunks. Format 7 dropped each transaction record's shape key, which no
// reader used. Format 8 dropped the protocol-event record and the footer's
// event count, which no reader decoded. No reader for an older format is
// kept.
const traceFormat = 8

// Frame markers.
const (
	frameChunk  byte = 'C'
	frameFooter byte = 'F'
)

// recTxn is the kind byte of a transaction record, the one record kind
// inside a chunk body.
const recTxn byte = 1

// Value tags (observed values and initial-state snapshot entries).
const (
	valNone byte = iota
	valInt
	valStr
	valBool
	valList
	valRel
)

// enc is an append-only encoder with an optional per-chunk string table.
type enc struct {
	buf []byte
	tab map[string]uint64
	// inline disables the string table (header/footer payloads, which
	// must decode without chunk context).
	inline bool
}

func newEnc(inline bool) *enc {
	e := &enc{inline: inline}
	if !inline {
		e.tab = make(map[string]uint64)
	}
	return e
}

func (e *enc) u(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) i(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) byte(v byte) { e.buf = append(e.buf, v) }

func (e *enc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// str writes a string: a back-reference into the chunk's string table
// when the string was seen before, an inline definition otherwise.
func (e *enc) str(s string) {
	if !e.inline {
		if idx, ok := e.tab[s]; ok {
			e.u(idx + 1)
			return
		}
	}
	e.u(0)
	e.u(uint64(len(s)))
	e.buf = append(e.buf, s...)
	if !e.inline {
		e.tab[s] = uint64(len(e.tab))
	}
}

// value encodes a state.Value. Unknown implementations are a caller bug
// guarded by encodableLog/encodableValue before any bytes are written.
func (e *enc) value(v state.Value) {
	switch x := v.(type) {
	case nil:
		e.byte(valNone)
	case state.Int:
		e.byte(valInt)
		e.i(int64(x))
	case state.Str:
		e.byte(valStr)
		e.str(string(x))
	case state.Bool:
		e.byte(valBool)
		e.bool(bool(x))
	case *state.IntList:
		e.byte(valList)
		e.u(uint64(len(*x)))
		for _, n := range *x {
			e.i(n)
		}
	case state.Rel:
		e.byte(valRel)
		e.rel(x)
	default:
		panic(fmt.Sprintf("rec: unencodable value %T escaped encodableValue", v))
	}
}

// rel encodes a relational value in the layout of the general relations
// the format was first written for, which a {k, v} relation with FD k → v
// fills in: its columns, its functional dependency, and its tuples in
// wireOrder, each as its sorted column/value pairs.
func (e *enc) rel(v state.Rel) {
	e.u(2)
	e.str(relation.Domain)
	e.str(relation.Range)
	e.bool(true)
	e.u(1)
	e.str(relation.Domain)
	e.u(1)
	e.str(relation.Range)
	kvs := make([][2]string, 0, v.R.Len())
	v.R.Each(func(k, val string) bool {
		kvs = append(kvs, [2]string{k, val})
		return true
	})
	slices.SortFunc(kvs, wireOrder)
	e.u(uint64(len(kvs)))
	for _, kv := range kvs {
		e.u(2)
		e.str(relation.Domain)
		e.str(kv[0])
		e.str(relation.Range)
		e.str(kv[1])
	}
}

// wireOrder orders bindings as the format has always ordered its tuples:
// by the string k+"\x00"+v+"\x00". That is key order, except where one key
// is another followed by a NUL byte; only there are the strings built.
func wireOrder(a, b [2]string) int {
	short, long := a[0], b[0]
	if len(short) > len(long) {
		short, long = long, short
	}
	if !strings.HasPrefix(long, short) || len(long) > len(short) && long[len(short)] != 0 {
		return strings.Compare(a[0], b[0])
	}
	return strings.Compare(a[0]+"\x00"+a[1]+"\x00", b[0]+"\x00"+b[1]+"\x00")
}

// op encodes one concrete operation: its kind's op code (an adt.OpKind is
// its own code), its location, then the operands its kind has. The caller
// must have vetted the log with encodableLog first; an op of another kind
// here is a programming error.
func (e *enc) op(op oplog.Op) {
	k, ok := op.K.(adt.OpKind)
	if !ok {
		panic(fmt.Sprintf("rec: unencodable op kind %T escaped encodableLog", op.K))
	}
	e.byte(byte(k))
	e.str(string(op.L))
	switch k {
	case adt.NumAdd, adt.NumStore, adt.ListPush:
		e.i(op.N)
	case adt.StrStore:
		e.str(string(op.V.(state.Str)))
	case adt.BoolStore:
		e.bool(op.N != 0)
	case adt.RelPut:
		e.str(op.Key)
		e.str(op.Val)
	case adt.RelRemove, adt.RelGet, adt.RelHas:
		e.str(op.Key)
	}
}

// encodableValue reports whether a value has an on-disk encoding.
func encodableValue(v state.Value) error {
	switch v.(type) {
	case nil, state.Int, state.Str, state.Bool, *state.IntList, state.Rel:
		return nil
	default:
		return fmt.Errorf("rec: value type %T has no trace encoding", v)
	}
}

// encodableLog vets a transaction log before any bytes are written, so a
// log containing an unknown op type (e.g. an unexported custom-ADT op)
// marks the trace lossy without corrupting the chunk mid-record.
func encodableLog(log oplog.Log) error {
	for _, ev := range log {
		if _, ok := ev.Op.K.(adt.OpKind); !ok {
			return fmt.Errorf("rec: op %q (kind %T) has no trace encoding", ev.Op.Sym().Kind, ev.Op.K)
		}
		if err := encodableValue(ev.Observed); err != nil {
			return err
		}
	}
	return nil
}

// state writes a full state snapshot: the location count, then each
// location with its value, in sorted order.
func (e *enc) state(st *state.State) error {
	locs := st.Locs()
	e.u(uint64(len(locs)))
	for _, l := range locs {
		v, _ := st.Get(l)
		if err := encodableValue(v); err != nil {
			return err
		}
		e.str(string(l))
		e.value(v)
	}
	return nil
}

// buildPrelude renders the file header and the header frame.
func buildPrelude(meta Meta, initial *state.State) ([]byte, error) {
	e := newEnc(true)
	e.str(meta.Workload)
	e.str(meta.Detector)
	e.bool(meta.Ordered)
	e.u(uint64(meta.Threads))
	e.u(uint64(meta.Tasks))
	e.i(meta.Seed)
	if err := e.state(initial); err != nil {
		return nil, err
	}
	return fsio.AppendFrame(fsio.AppendHeader(nil, traceMagic, traceFormat), e.buf), nil
}

// chunkFrame seals a chunk body into its on-disk frame.
func chunkFrame(body []byte) []byte {
	payload := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(body)), uint64(len(body)))
	return fsio.AppendFrame([]byte{frameChunk}, append(payload, body...))
}

// footerFrame renders the trailing frame: the commit count, completeness
// flags, and the final-state digest.
func footerFrame(commits int64, truncated, lossy bool, kind DigestKind, digest uint64, evicted int, lossyDetail string) []byte {
	e := newEnc(true)
	e.u(uint64(commits))
	var fl byte
	if truncated {
		fl |= 1 << 0
	}
	if lossy {
		fl |= 1 << 1
	}
	e.byte(fl)
	e.byte(byte(kind))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, digest)
	e.u(uint64(evicted))
	e.str(lossyDetail)
	return fsio.AppendFrame([]byte{frameFooter}, e.buf)
}
