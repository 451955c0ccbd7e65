package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The batch codec: a parser and an encoder written for Batch's shape, used
// by the submit path, the journal append and recovery instead of
// encoding/json's reflection (DESIGN.md §12, §13), and the encoder of the
// submit path's success reply.
//
// frame.parse accepts exactly the bodies json.Decoder with
// DisallowUnknownFields accepts when the value is followed by nothing but
// white space, and yields the same Batch: keys match case-insensitively
// (bytes.EqualFold), null leaves a field absent, integers are int64 only,
// escapes and surrogate pairs are honoured, and invalid UTF-8 or a lone
// surrogate becomes U+FFFD. It refuses two bodies encoding/json accepts:
// a key repeated in one object (encoding/json keeps the last) and bytes
// after the batch object (json.Decoder leaves them unread). appendBatch
// writes exactly the bytes json.Marshal writes. FuzzBatchCodec holds both
// against encoding/json. appendResult writes exactly what json.Encoder
// writes for a BatchResult (TestAppendResultMatchesEncoder).

var (
	// errRepeatedKey refuses an object naming one field twice, compared
	// case-folded.
	errRepeatedKey = errors.New("repeated key")
	// errTrailing refuses bytes other than white space after the batch.
	errTrailing = errors.New("trailing data after the batch object")
)

// Field names per object: the json tags on Batch, TaskSpec and OpSpec.
var (
	batchKeys = []string{"id", "tasks", "deadline_ms"}
	taskKeys  = []string{"ops"}
	opKeys    = []string{"op", "loc", "delta", "key", "val"}
)

// opNames are the op names checkOp knows; a parsed name equal to one of
// them shares its string instead of allocating.
var opNames = [...]string{"add", "sub", "store", "load", "push", "pop", "size", "put", "get", "del", "has", "work"}

// Initial slab sizes, in body bytes per element: the smallest op the
// serving clients send is about 35 bytes, so one slab usually holds the
// whole batch, and the reservation stays within a small multiple of the
// body's length whatever the body holds.
const (
	bodyBytesPerOp   = 40
	bodyBytesPerTask = 160
)

// batchParser is one parse's cursor and a frame's allocation slabs.
type batchParser struct {
	data []byte
	pos  int
	// idx resolves a declared location to the schema's own string.
	idx map[string]schemaLoc
	// ops and tasks are the slabs every TaskSpec.Ops and Batch.Tasks are
	// cut from; allocated at the first array of each kind, and kept by
	// the frame for its next parse.
	ops   []OpSpec
	tasks []TaskSpec
	// esc holds a string's decoded bytes when it has an escape or
	// invalid UTF-8; reused across strings.
	esc []byte
}

// parse decodes one submit body or journal payload into the frame's
// Batch, whose tasks and ops are cut from the frame's slabs: it
// overwrites the batch the frame's last parse returned. Past the slabs'
// first growth it allocates only the batch ID and each key and value.
func (f *frame) parse(data []byte) (*Batch, error) {
	p := &f.p
	*p = batchParser{data: data, idx: f.idx, ops: p.ops[:0], tasks: p.tasks[:0], esc: p.esc[:0]}
	b := &f.b
	*b = Batch{}
	p.space()
	if p.pos == len(p.data) {
		return nil, p.fail("empty body")
	}
	if p.null() {
		// encoding/json leaves the target untouched: a zero batch, which
		// frame.compile refuses for its missing id.
	} else if err := p.batch(b); err != nil {
		return nil, err
	}
	p.space()
	if p.pos < len(p.data) {
		return nil, fmt.Errorf("%w at offset %d", errTrailing, p.pos)
	}
	p.fixOps()
	return b, nil
}

func (p *batchParser) fail(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// space skips JSON white space.
func (p *batchParser) space() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// peek skips white space and returns the next byte, 0 at the end.
func (p *batchParser) peek() byte {
	p.space()
	if p.pos == len(p.data) {
		return 0
	}
	return p.data[p.pos]
}

// at reports whether the byte at the cursor is c.
func (p *batchParser) at(c byte) bool {
	return p.pos < len(p.data) && p.data[p.pos] == c
}

// null consumes a null literal, reporting whether there was one.
func (p *batchParser) null() bool {
	if bytes.HasPrefix(p.data[p.pos:], []byte("null")) {
		p.pos += 4
		return true
	}
	return false
}

// members walks one object's members: for each key it matches keys
// against names, refuses an unknown or repeated one, consumes the colon
// and calls value with the field's name. The cursor is at '{'.
func (p *batchParser) members(names []string, value func(name string) error) error {
	p.pos++
	if p.peek() == '}' {
		p.pos++
		return nil
	}
	var seen uint8
	for {
		if p.peek() != '"' {
			return p.fail("want a key")
		}
		k, err := p.str()
		if err != nil {
			return err
		}
		f := fieldIndex(names, k)
		if f < 0 {
			return p.fail("unknown field %q", k)
		}
		if seen&(1<<f) != 0 {
			return fmt.Errorf("%w %q at offset %d", errRepeatedKey, names[f], p.pos)
		}
		seen |= 1 << f
		if p.peek() != ':' {
			return p.fail("want ':' after key")
		}
		p.pos++
		p.space()
		if err := value(names[f]); err != nil {
			return err
		}
		switch p.peek() {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return nil
		default:
			return p.fail("want ',' or '}'")
		}
	}
}

// fieldIndex matches a decoded key against names the way encoding/json
// does: exactly, else under Unicode case folding.
func fieldIndex(names []string, k []byte) int {
	for i, n := range names {
		if string(k) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(k, []byte(n)) {
			return i
		}
	}
	return -1
}

// elements walks one array: elem is called with the cursor at each
// element. The cursor is at '['.
func (p *batchParser) elements(elem func() error) error {
	p.pos++
	if p.peek() == ']' {
		p.pos++
		return nil
	}
	for {
		p.space()
		if err := elem(); err != nil {
			return err
		}
		switch p.peek() {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return nil
		default:
			return p.fail("want ',' or ']'")
		}
	}
}

func (p *batchParser) batch(b *Batch) error {
	if !p.at('{') {
		return p.fail("batch is not an object")
	}
	return p.members(batchKeys, func(name string) error {
		switch name {
		case "id":
			s, ok, err := p.strVal(name)
			if ok {
				b.ID = string(s)
			}
			return err
		case "tasks":
			return p.taskList(b)
		default:
			n, ok, err := p.intVal(name)
			if ok {
				b.DeadlineMS = n
			}
			return err
		}
	})
}

func (p *batchParser) taskList(b *Batch) error {
	if p.null() {
		return nil
	}
	if !p.at('[') {
		return p.fail("field %q: want an array", "tasks")
	}
	if p.tasks == nil {
		p.tasks = make([]TaskSpec, 0, len(p.data)/bodyBytesPerTask+1)
	}
	err := p.elements(func() error {
		var ts TaskSpec
		if !p.null() {
			if !p.at('{') {
				return p.fail("task is not an object")
			}
			if err := p.members(taskKeys, func(string) error { return p.opList(&ts) }); err != nil {
				return err
			}
		}
		p.tasks = append(p.tasks, ts)
		return nil
	})
	b.Tasks = p.tasks[:len(p.tasks):len(p.tasks)]
	return err
}

// opList parses one task's ops into the op slab. The slice it stores may
// point into an outgrown slab; fixOps re-cuts every task from the final
// one.
func (p *batchParser) opList(ts *TaskSpec) error {
	if p.null() {
		return nil
	}
	if !p.at('[') {
		return p.fail("field %q: want an array", "ops")
	}
	if p.ops == nil {
		p.ops = make([]OpSpec, 0, len(p.data)/bodyBytesPerOp+1)
	}
	start := len(p.ops)
	err := p.elements(func() error {
		var op OpSpec
		if !p.null() {
			if !p.at('{') {
				return p.fail("op is not an object")
			}
			if err := p.op(&op); err != nil {
				return err
			}
		}
		p.ops = append(p.ops, op)
		return nil
	})
	ts.Ops = p.ops[start:len(p.ops)]
	return err
}

func (p *batchParser) op(op *OpSpec) error {
	return p.members(opKeys, func(name string) error {
		if name == "delta" {
			n, ok, err := p.intVal(name)
			if ok {
				op.Delta = n
			}
			return err
		}
		s, ok, err := p.strVal(name)
		if !ok {
			return err
		}
		switch name {
		case "op":
			op.Op = opName(s)
		case "loc":
			op.Loc = p.loc(s)
		case "key":
			op.Key = string(s)
		default:
			op.Val = string(s)
		}
		return nil
	})
}

// fixOps cuts each task's ops from the final op slab. Ops were appended
// task by task, so task i's ops start where task i-1's end.
func (p *batchParser) fixOps() {
	off := 0
	for i := range p.tasks {
		if ops := p.tasks[i].Ops; ops != nil {
			n := off + len(ops)
			p.tasks[i].Ops = p.ops[off:n:n]
			off = n
		}
	}
}

// opName returns the table's string for a known op name.
func opName(s []byte) string {
	for _, n := range opNames {
		if string(s) == n {
			return n
		}
	}
	return string(s)
}

// loc returns the schema's string for a declared location.
func (p *batchParser) loc(s []byte) string {
	if l, ok := p.idx[string(s)]; ok {
		return l.name
	}
	return string(s)
}

// strVal parses a string or null field value; ok is false for null. The
// bytes are valid until the next string is parsed.
func (p *batchParser) strVal(field string) (s []byte, ok bool, err error) {
	if p.null() {
		return nil, false, nil
	}
	if !p.at('"') {
		return nil, false, p.fail("field %q: want a string", field)
	}
	s, err = p.str()
	return s, err == nil, err
}

// intVal parses an int64 or null field value; ok is false for null.
// Fractions, exponents and values outside int64 are refused, as
// encoding/json refuses them for an int64 field.
func (p *batchParser) intVal(field string) (n int64, ok bool, err error) {
	if p.null() {
		return 0, false, nil
	}
	neg := p.pos < len(p.data) && p.data[p.pos] == '-'
	if neg {
		p.pos++
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	digits := p.pos
	var u uint64
	for ; p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9'; p.pos++ {
		d := uint64(p.data[p.pos] - '0')
		if u > (limit-d)/10 {
			return 0, false, p.fail("field %q: integer out of range", field)
		}
		u = u*10 + d
	}
	switch {
	case p.pos == digits:
		return 0, false, p.fail("field %q: want an integer", field)
	case p.pos-digits > 1 && p.data[digits] == '0':
		return 0, false, p.fail("field %q: leading zero", field)
	case p.pos < len(p.data) && (p.data[p.pos] == '.' || p.data[p.pos] == 'e' || p.data[p.pos] == 'E'):
		return 0, false, p.fail("field %q: want an integer", field)
	}
	if neg {
		return int64(-u), true, nil
	}
	return int64(u), true, nil
}

// str parses a JSON string at the cursor (at its opening quote). Without
// escapes or invalid UTF-8 the result aliases the body; otherwise it is
// decoded into p.esc.
func (p *batchParser) str() ([]byte, error) {
	p.pos++
	start := p.pos
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return p.data[start : p.pos-1], nil
		case c == '\\':
			return p.strSlow(start)
		case c < 0x20:
			return nil, p.fail("control character in string")
		case c < utf8.RuneSelf:
			p.pos++
		default:
			r, size := utf8.DecodeRune(p.data[p.pos:])
			if r == utf8.RuneError && size == 1 {
				return p.strSlow(start)
			}
			p.pos += size
		}
	}
	return nil, p.fail("unterminated string")
}

// strSlow decodes the rest of a string from the first byte that needs
// decoding, following encoding/json's unquote: escapes are honoured, a
// \u high surrogate followed by a \u low surrogate is one rune, and an
// unpaired surrogate or an invalid UTF-8 byte becomes U+FFFD.
func (p *batchParser) strSlow(start int) ([]byte, error) {
	out := append(p.esc[:0], p.data[start:p.pos]...)
	defer func() { p.esc = out[:0] }()
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return out, nil
		case c == '\\':
			if p.pos+1 == len(p.data) {
				return nil, p.fail("unterminated string")
			}
			switch e := p.data[p.pos+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(p.data[p.pos:])
				if r < 0 {
					return nil, p.fail("bad \\u escape")
				}
				p.pos += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(p.data[p.pos:])); dec != utf8.RuneError {
						p.pos += 6
						out = utf8.AppendRune(out, dec)
						continue
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				return nil, p.fail("bad escape \\%c", e)
			}
			p.pos += 2
		case c < 0x20:
			return nil, p.fail("control character in string")
		case c < utf8.RuneSelf:
			out = append(out, c)
			p.pos++
		default:
			r, size := utf8.DecodeRune(p.data[p.pos:])
			out = utf8.AppendRune(out, r)
			p.pos += size
		}
	}
	return nil, p.fail("unterminated string")
}

// hex4 reads a \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// appendBatch appends json.Marshal(b)'s bytes to dst.
func appendBatch(dst []byte, b *Batch) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, b.ID)
	dst = append(dst, `,"tasks":`...)
	if b.Tasks == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, ts := range b.Tasks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"ops":`...)
			if ts.Ops == nil {
				dst = append(dst, "null"...)
			} else {
				dst = append(dst, '[')
				for j := range ts.Ops {
					if j > 0 {
						dst = append(dst, ',')
					}
					dst = appendOp(dst, &ts.Ops[j])
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if b.DeadlineMS != 0 {
		dst = append(dst, `,"deadline_ms":`...)
		dst = strconv.AppendInt(dst, b.DeadlineMS, 10)
	}
	return append(dst, '}')
}

// appendOp appends one op, omitting the omitempty fields at their zero
// value as json.Marshal does.
func appendOp(dst []byte, op *OpSpec) []byte {
	dst = append(dst, `{"op":`...)
	dst = appendString(dst, op.Op)
	if op.Loc != "" {
		dst = append(dst, `,"loc":`...)
		dst = appendString(dst, op.Loc)
	}
	if op.Delta != 0 {
		dst = append(dst, `,"delta":`...)
		dst = strconv.AppendInt(dst, op.Delta, 10)
	}
	if op.Key != "" {
		dst = append(dst, `,"key":`...)
		dst = appendString(dst, op.Key)
	}
	if op.Val != "" {
		dst = append(dst, `,"val":`...)
		dst = appendString(dst, op.Val)
	}
	return append(dst, '}')
}

// appendResult appends json.NewEncoder(w).Encode(r)'s bytes to dst,
// trailing newline included.
func appendResult(dst []byte, r *BatchResult) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, r.ID)
	dst = append(dst, `,"tenant":`...)
	dst = appendString(dst, r.Tenant)
	dst = append(dst, `,"tasks":`...)
	dst = strconv.AppendInt(dst, int64(r.Tasks), 10)
	dst = append(dst, `,"commits":`...)
	dst = strconv.AppendInt(dst, r.Commits, 10)
	dst = append(dst, `,"retries":`...)
	dst = strconv.AppendInt(dst, r.Retries, 10)
	dst = append(dst, `,"digest":`...)
	dst = appendString(dst, r.Digest)
	dst = append(dst, `,"applied":`...)
	dst = strconv.AppendInt(dst, r.Applied, 10)
	dst = append(dst, `,"elapsed_ms":`...)
	dst = strconv.AppendInt(dst, r.ElapsedMS, 10)
	return append(dst, "}\n"...)
}

const lowerHex = "0123456789abcdef"

// appendString appends s quoted as json.Marshal quotes it: HTML-escaped
// <, > and &, short escapes where JSON has them, \u00XX for the other
// control bytes, U+2028 and U+2029 escaped, and each invalid UTF-8 byte
// as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', lowerHex[c>>4], lowerHex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', lowerHex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
