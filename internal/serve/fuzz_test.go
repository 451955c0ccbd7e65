package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	janus "repro"
	"repro/internal/rec"
)

// fuzzRunWork caps the work units a fuzzed batch may spin when it is run:
// compile admits up to maxBatchWork (about 10 s), far too slow per input.
const fuzzRunWork = 1 << 20

// batchSeeds is the seed corpus of the submit path's fuzzers: valid
// batches, schema violations, an unknown field and a truncated body.
func batchSeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	for _, b := range []*Batch{
		{ID: "b1", Tasks: []TaskSpec{
			{Ops: []OpSpec{{Op: "add", Loc: "c0", Delta: 5}, {Op: "push", Loc: "stk", Delta: 7}}},
			{Ops: []OpSpec{{Op: "put", Loc: "kv", Key: "k", Val: "v"}, {Op: "work", Delta: 100}}},
			{Ops: []OpSpec{{Op: "sub", Loc: "c0", Delta: 2}, {Op: "get", Loc: "kv", Key: "k"}}},
		}},
		{ID: "pop1", Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "pop", Loc: "stk"}}}, {Ops: []OpSpec{{Op: "pop", Loc: "stk"}}}}},
		{ID: "x", Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "add", Loc: "nope", Delta: 1}}}}},
		{ID: "y", Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "push", Loc: "c0", Delta: 1}}}}},
		{ID: "z", Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "frob", Loc: "c0"}}}}},
		{ID: "w", Tasks: []TaskSpec{}},
		{ID: "", Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "add", Loc: "c0"}}}}},
		{ID: "dl", DeadlineMS: 20, Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "work", Delta: 300}, {Op: "add", Loc: "c0", Delta: 1}}}}},
		{ID: "huge", Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "work", Delta: 9_000_000_000_000_000_000}}}}},
		addBatch("a", 4, 3),
	} {
		body, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	return append(seeds,
		[]byte(`{"id":"u","tasks":[{"ops":[{"op":"add","loc":"c0"}]}],"extra":1}`),
		[]byte(`{"id":"d","tasks":[{"ops":[{"op":"del","loc":"kv","key":"k"},{"op":"has","loc":"kv","key":"k"},{"op":"size","loc":"stk"},{"op":"store","loc":"c1","delta":-3},{"op":"load","loc":"c1"}]}]}`),
		[]byte(`{`))
}

// FuzzCompileBatch drives the submit path's decode and compile with
// arbitrary bytes against DefaultSchema. The contract: every input is
// either refused with an error (which the handler answers with a 400
// bad_request) or compiles to tasks that ApplySequential runs without
// panicking — a task may still fail, as a pop of an empty stack does.
func FuzzCompileBatch(f *testing.F) {
	for _, seed := range batchSeeds(f) {
		f.Add(seed)
	}

	sch := DefaultSchema()
	idx := sch.index()
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := takeFrame(idx)
		defer fr.release()
		b, err := fr.read(bytes.NewReader(data), 1<<20)
		if err != nil {
			return
		}
		if _, err := fr.compile(b); err != nil {
			return
		}
		var work int64
		for _, ts := range b.Tasks {
			for _, op := range ts.Ops {
				if op.Op == "work" {
					work += op.Delta
				}
			}
		}
		if work > fuzzRunWork {
			return
		}
		_, err = ApplySequential(InitialState(sch), sch, b)
		var pe *janus.PanicError
		if errors.As(err, &pe) {
			t.Fatalf("compiled batch panicked: %v", pe)
		}
	})
}

// FuzzBatchCodec holds the batch codec to encoding/json on arbitrary
// bytes. The reference is json.Decoder with DisallowUnknownFields whose
// value must be followed by white space only. A body a frame's parse
// accepts, the reference accepts as an equal Batch; a body it refuses, the
// reference refuses too, unless the refusal is one of the two the codec
// adds (a repeated key, trailing bytes); and appendBatch of every
// accepted batch is json.Marshal's bytes, which parse back to the batch.
func FuzzBatchCodec(f *testing.F) {
	for _, seed := range batchSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range []string{
		// Escapes: HTML, short, \u, surrogate pairs, lone and reversed
		// surrogates, a high surrogate before a non-escape.
		`{"id":"<a&b>\"\\\/\b\f\n\r\t\u0000\u001f\u007f","tasks":[]}`,
		`{"id":"\ud83d\ude00\uD83D\uDE00","tasks":[{"ops":[{"op":"put","loc":"kv","key":"\u2028\u2029","val":"\ud800"}]}]}`,
		`{"id":"\udc00\ud800x\ud800A\ud800","tasks":null}`,
		`{"id":"\u00e9\u4e2d","tasks":[{"ops":[{"op":"add","loc":"c0","delta":1}]}]}`,
		`{"id":"bad \u12","tasks":[]}`,
		`{"id":"bad \x","tasks":[]}`,
		// Raw UTF-8: valid, invalid bytes, an encoded surrogate, U+2028,
		// a control byte.
		"{\"id\":\"\xc3\xa9\xe2\x80\xa8\xff\xfe\xed\xa0\x80\xf4\x90\x80\x80\",\"tasks\":[]}",
		"{\"id\":\"a\x01b\",\"tasks\":[]}",
		// null at every level.
		`null`,
		` null `,
		`{"id":null,"tasks":null,"deadline_ms":null}`,
		`{"id":"n","tasks":[null,{"ops":null},{"ops":[null,{"op":null,"loc":null,"delta":null,"key":null,"val":null}]}]}`,
		// Case folding, including the Kelvin sign and the long s, raw and
		// escaped, and a key repeated under folding.
		`{"ID":"f","TASKS":[{"Ops":[{"OP":"add","Loc":"c0","DELTA":2}]}],"Deadline_MS":5}`,
		"{\"id\":\"k\",\"ta\xc5\xbfks\":[{\"ops\":[{\"op\":\"put\",\"loc\":\"kv\",\"\xe2\x84\xaaey\":\"q\",\"val\":\"v\"}]}]}",
		`{"id":"k","tasks":[{"ops":[{"op":"get","loc":"kv","\u212aey":"q"}]}]}`,
		`{"id":"d","id":"e","tasks":[]}`,
		`{"id":"d","ID":"e","tasks":[]}`,
		`{"id":"d","tasks":[{"ops":[{"op":"add","op":"sub"}]}]}`,
		// Numbers at and past the int64 edges, and not integers.
		`{"id":"n","deadline_ms":9223372036854775807,"tasks":[{"ops":[{"op":"add","loc":"c0","delta":-9223372036854775808}]}]}`,
		`{"id":"n","deadline_ms":9223372036854775808,"tasks":[]}`,
		`{"id":"n","deadline_ms":-9223372036854775809,"tasks":[]}`,
		`{"id":"n","deadline_ms":-0,"tasks":[]}`,
		`{"id":"n","deadline_ms":1.0,"tasks":[]}`,
		`{"id":"n","deadline_ms":1e3,"tasks":[]}`,
		`{"id":"n","deadline_ms":01,"tasks":[]}`,
		`{"id":"n","deadline_ms":-,"tasks":[]}`,
		`{"id":"n","deadline_ms":"5","tasks":[]}`,
		`{"id":5,"tasks":[]}`,
		// Structure: white space, trailing bytes, a second batch, an
		// empty body, wrong types, a trailing comma.
		" \t\r\n{ \"id\" : \"s\" , \"tasks\" : [ { \"ops\" : [ ] } ] } \n",
		`{"id":"t","tasks":[]}x`,
		`{"id":"a","tasks":[]}{"id":"b","tasks":[]}`,
		``,
		`[]`,
		`{"id":"t","tasks":{}}`,
		`{"id":"t","tasks":[],}`,
		`{"id":"t","tasks":[{"ops":[{"op":"add"},]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := takeFrame(nil).parse(data)
		want, werr := referenceDecode(data)
		if err != nil {
			if werr == nil && !errors.Is(err, errRepeatedKey) && !errors.Is(err, errTrailing) {
				t.Fatalf("parse refused what encoding/json accepts as %+v: %v", want, err)
			}
			return
		}
		if werr != nil {
			t.Fatalf("parse accepted %+v, encoding/json refuses: %v", got, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parse gave %#v, encoding/json %#v", got, want)
		}
		enc := appendBatch(nil, got)
		ref, merr := json.Marshal(got)
		if merr != nil {
			t.Fatal(merr)
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("appendBatch wrote %q, json.Marshal %q", enc, ref)
		}
		again, err := takeFrame(nil).parse(enc)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("encoded batch parses to %#v (%v), want %#v", again, err, got)
		}
	})
}

// FuzzFrameReuse holds a reused frame to a fresh one: parsing and
// compiling b on a frame that last parsed, compiled and ran a must give
// what a fresh frame gives for b, the same batch (id, tasks, ops,
// deadline) or the same error text, and tasks that run b's ops.
func FuzzFrameReuse(f *testing.F) {
	seeds := batchSeeds(f)
	big, err := json.Marshal(fourByFour())
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, big)
	for i, a := range seeds {
		b := seeds[(i+1)%len(seeds)]
		f.Add(a, b)
		f.Add(b, a)
	}
	sch := DefaultSchema()
	idx := sch.index()
	// run compiles a parsed batch on fr and runs its tasks from the
	// initial state, returning what a batch under the work cap leaves.
	run := func(fr *frame, b *Batch, perr error) string {
		if perr != nil {
			return "parse: " + perr.Error()
		}
		tasks, err := fr.compile(b)
		if err != nil {
			return "compile: " + err.Error()
		}
		var work int64
		for _, ts := range b.Tasks {
			for _, op := range ts.Ops {
				if op.Op == "work" {
					work += op.Delta
				}
			}
		}
		if work > fuzzRunWork {
			return fmt.Sprintf("%d tasks, not run", len(tasks))
		}
		st, err := janus.Sequential(InitialState(sch), tasks)
		if err != nil {
			return "run: " + err.Error()
		}
		return rec.FormatDigest(rec.Digest(st))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		reused := &frame{idx: idx}
		pa, err := reused.parse(a)
		run(reused, pa, err)
		got, gerr := reused.parse(b)
		fresh := &frame{idx: idx}
		want, werr := fresh.parse(b)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("after %q, parse of %q gave %#v (%v), a fresh frame %#v (%v)", a, b, got, gerr, want, werr)
		}
		if g, w := run(reused, got, gerr), run(fresh, want, werr); g != w {
			t.Fatalf("after %q, %q compiled and ran to %s, on a fresh frame to %s", a, b, g, w)
		}
	})
}

// referenceDecode is the decoder the codec replaced, plus the check that
// nothing but white space follows the batch.
func referenceDecode(data []byte) (*Batch, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Batch
	if err := dec.Decode(&b); err != nil {
		return nil, err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, fmt.Errorf("%d bytes after the batch", len(rest))
	}
	return &b, nil
}
