package rec

import (
	"io"
	"slices"
	"sort"

	"repro/internal/adt"
	"repro/internal/fsio"
	"repro/internal/oplog"
	"repro/internal/relation"
	"repro/internal/state"
)

// DigestKind says what the footer digest covers.
type DigestKind byte

// Digest kinds.
const (
	// DigestNone: no digest; the recorder was dumped before Close.
	DigestNone DigestKind = iota
	// DigestFinal: the digest the recorder was closed with, of the state
	// its recorded commits left.
	DigestFinal
)

// String renders the kind.
func (k DigestKind) String() string {
	if k == DigestFinal {
		return "final"
	}
	return "none"
}

// TxnRecord is one committed transaction as captured in the trace.
type TxnRecord struct {
	// Task is the stm's 1-based task identifier (subtract one to index
	// the original task slice).
	Task int
	// CommitTime is the global-clock value the commit published.
	CommitTime int64
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

// dec reads trace payloads: fsio's Reader plus the per-chunk string
// table.
type dec struct {
	fsio.Reader
	tab []string
	// inline disables the string table (header/footer payloads).
	inline bool
}

func (d *dec) bool() bool { return d.Byte() != 0 }

func (d *dec) str() string {
	if ref := d.Uvarint(); ref > 0 {
		if d.inline {
			d.Fail("string back-reference in inline payload")
			return ""
		}
		if ref > uint64(len(d.tab)) {
			d.Fail("string back-reference %d beyond table size %d", ref-1, len(d.tab))
			return ""
		}
		return d.tab[ref-1]
	}
	s := string(d.Bytes(d.Uvarint()))
	if !d.inline && d.Err() == nil {
		d.tab = append(d.tab, s)
	}
	return s
}

func (d *dec) value() state.Value {
	switch tag := d.Byte(); tag {
	case valNone:
		return nil
	case valInt:
		return state.Int(d.Varint())
	case valStr:
		return state.Str(d.str())
	case valBool:
		return state.Bool(d.bool())
	case valList:
		out := make(state.IntList, d.Count("list"))
		for i := range out {
			out[i] = d.Varint()
		}
		return &out
	case valRel:
		return d.rel()
	default:
		d.Fail("unknown value tag %d", tag)
		return nil
	}
}

// locations decodes n location→value bindings, the body of a state
// snapshot. A binding without a value (the tag that op results use for
// "none") is malformed: a nil Value would panic the state's first Clone or
// Equal.
func (d *dec) locations(n int) *state.State {
	st := state.New()
	for i := 0; i < n && d.Err() == nil; i++ {
		loc := state.Loc(d.str())
		v := d.value()
		if d.Err() == nil && v == nil {
			d.Fail("location %q has no value", loc)
		}
		if d.Err() == nil {
			st.Set(loc, v)
		}
	}
	return st
}

func (d *dec) strs(what string) []string {
	out := make([]string, d.Count(what))
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// rel decodes a relational value. The layout has room for any schema, but
// a relation is {k, v} with FD k → v: any other schema, and any tuple that
// is not one key and one value, latches BadRecord. The tuples load as
// Table 2 inserts, so of two at one key the later stays.
func (d *dec) rel() state.Value {
	cols := d.strs("column")
	var dom, rng []string
	hasFD := d.bool()
	if hasFD {
		dom, rng = d.strs("fd domain"), d.strs("fd range")
	}
	if d.Err() != nil {
		return nil
	}
	if !hasFD || !slices.Equal(cols, []string{relation.Domain, relation.Range}) ||
		!slices.Equal(dom, cols[:1]) || !slices.Equal(rng, cols[1:]) {
		d.Fail("relation schema %q (FD %v: %q → %q) is not {k, v} with k → v", cols, hasFD, dom, rng)
		return nil
	}
	r := relation.New()
	ntup := d.Count("tuple")
	for i := 0; i < ntup && d.Err() == nil; i++ {
		if w := d.Count("tuple width"); w != 2 {
			d.Fail("relation tuple of %d columns, want 2", w)
			break
		}
		c1, k := d.str(), d.str()
		c2, v := d.str(), d.str()
		if d.Err() == nil && (c1 != relation.Domain || c2 != relation.Range) {
			d.Fail("relation tuple over %q, %q, want k, v", c1, c2)
		}
		if d.Err() == nil {
			r.Put(k, v)
		}
	}
	if d.Err() != nil {
		return nil
	}
	return state.Rel{R: r}
}

// op decodes one operation as enc.op wrote it.
func (d *dec) op() oplog.Op {
	k := adt.OpKind(d.Byte())
	if d.Err() != nil {
		return oplog.Op{}
	}
	op := oplog.Op{K: k, L: state.Loc(d.str())}
	switch k {
	case adt.NumAdd, adt.NumStore, adt.ListPush:
		op.N = d.Varint()
	case adt.StrStore:
		op.V = state.Str(d.str())
	case adt.BoolStore:
		if d.bool() {
			op.N = 1
		}
	case adt.RelPut:
		op.Key = d.str()
		op.Val = d.str()
	case adt.RelRemove, adt.RelGet, adt.RelHas:
		op.Key = d.str()
	case adt.NumLoad, adt.StrLoad, adt.BoolLoad, adt.ListPop, adt.ListSize, adt.RelClear:
	default:
		d.Fail("unknown opcode %d", k)
		return oplog.Op{}
	}
	return op
}

// decodeChunk decodes one chunk frame's payload: the body length, then
// the body's transaction records.
func decodeChunk(payload []byte) ([]TxnRecord, error) {
	r := fsio.NewReader(payload)
	rawLen := r.Uvarint()
	body := r.Bytes(uint64(r.Remaining()))
	if err := r.Err(); err != nil {
		return nil, err
	}
	if uint64(len(body)) != rawLen {
		return nil, fsio.Errorf(fsio.BadRecord, "chunk body of %d bytes, rawLen says %d", len(body), rawLen)
	}
	var txns []TxnRecord
	d := dec{Reader: fsio.NewReader(body)}
	for d.Remaining() > 0 && d.Err() == nil {
		if kind := d.Byte(); kind != recTxn {
			d.Fail("unknown record kind %d", kind)
			break
		}
		t := TxnRecord{
			Task:       int(d.Uvarint()),
			CommitTime: int64(d.Uvarint()),
		}
		nops := d.Count("op")
		t.Ops = make([]oplog.Op, 0, nops)
		t.Observed = make([]state.Value, 0, nops)
		for i := 0; i < nops && d.Err() == nil; i++ {
			t.Ops = append(t.Ops, d.op())
			if d.bool() {
				t.Observed = append(t.Observed, d.value())
			} else {
				t.Observed = append(t.Observed, nil)
			}
		}
		if d.Err() == nil {
			txns = append(txns, t)
		}
	}
	return txns, d.Err()
}

// ReadTrace decodes and validates a trace artifact. Failures carry a
// *fsio.FrameError classifying the rejection.
func ReadTrace(r io.Reader) (*Trace, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, &fsio.FrameError{Reason: fsio.Torn, Detail: "reading trace", Err: err}
	}
	return decodeTrace(raw)
}

func decodeTrace(raw []byte) (t *Trace, err error) {
	// Backstop for the never-panic contract: malformed-but-CRC-valid input
	// paths are vetted explicitly (see rel), but any invariant panic that
	// slips through must still surface as a typed rejection.
	defer func() {
		if p := recover(); p != nil {
			t, err = nil, fsio.Errorf(fsio.BadRecord, "panic decoding trace: %v", p)
		}
	}()
	off, err := fsio.CheckHeader(raw, traceMagic, traceFormat)
	if err != nil {
		return nil, err
	}
	header, off, err := fsio.NextFrame(raw, off)
	if err != nil {
		return nil, err
	}
	t = &Trace{}
	hd := dec{Reader: fsio.NewReader(header), inline: true}
	t.Meta.Workload = hd.str()
	t.Meta.Detector = hd.str()
	t.Meta.Ordered = hd.bool()
	t.Meta.Threads = int(hd.Uvarint())
	t.Meta.Tasks = int(hd.Uvarint())
	t.Meta.Seed = hd.Varint()
	t.Initial = hd.locations(hd.Count("location"))
	if err := hd.Done(); err != nil {
		return nil, err
	}

	for off < len(raw) && raw[off] == frameChunk {
		payload, next, err := fsio.NextFrame(raw, off+1)
		if err != nil {
			return nil, err
		}
		off = next
		txns, err := decodeChunk(payload)
		if err != nil {
			return nil, err
		}
		t.Txns = append(t.Txns, txns...)
	}
	if off == len(raw) {
		return nil, fsio.Errorf(fsio.Torn, "no footer frame")
	}
	if raw[off] != frameFooter {
		return nil, fsio.Errorf(fsio.BadRecord, "unknown frame marker %#x at offset %d", raw[off], off)
	}
	payload, next, err := fsio.NextFrame(raw, off+1)
	if err != nil {
		return nil, err
	}
	if next != len(raw) {
		return nil, fsio.Errorf(fsio.BadRecord, "%d trailing bytes after footer", len(raw)-next)
	}
	fd := dec{Reader: fsio.NewReader(payload), inline: true}
	t.Commits = int64(fd.Uvarint())
	fl := fd.Byte()
	t.Truncated = fl&(1<<0) != 0
	t.Lossy = fl&(1<<1) != 0
	if t.DigestKind = DigestKind(fd.Byte()); t.DigestKind > DigestFinal {
		fd.Fail("unknown digest kind %d", t.DigestKind)
	}
	t.Digest = fd.U64LE()
	t.EvictedChunks = int(fd.Uvarint())
	t.LossyDetail = fd.str()
	if err := fd.Done(); err != nil {
		return nil, err
	}
	sort.SliceStable(t.Txns, func(i, j int) bool { return t.Txns[i].CommitTime < t.Txns[j].CommitTime })
	return t, nil
}
