package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	janus "repro"
)

// fuzzRunWork caps the work units a fuzzed batch may spin when it is run:
// compile admits up to maxBatchWork (about 10 s), far too slow per input.
const fuzzRunWork = 1 << 20

// FuzzCompileBatch drives the submit path's decode and compile with
// arbitrary bytes against DefaultSchema. The contract: every input is
// either refused with an error (which the handler answers with a 400
// bad_request) or compiles to tasks that ApplySequential runs without
// panicking — a task may still fail, as a pop of an empty stack does.
func FuzzCompileBatch(f *testing.F) {
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
		f.Add(body)
	}
	f.Add([]byte(`{"id":"u","tasks":[{"ops":[{"op":"add","loc":"c0"}]}],"extra":1}`))
	f.Add([]byte(`{"id":"d","tasks":[{"ops":[{"op":"del","loc":"kv","key":"k"},{"op":"has","loc":"kv","key":"k"},{"op":"size","loc":"stk"},{"op":"store","loc":"c1","delta":-3},{"op":"load","loc":"c1"}]}]}`))
	f.Add([]byte(`{`))

	sch := DefaultSchema()
	idx := sch.index()
	f.Fuzz(func(t *testing.T, data []byte) {
		r := httptest.NewRequest(http.MethodPost, "/submit", bytes.NewReader(data))
		b, err := decodeBatch(r, 1<<20)
		if err != nil {
			return
		}
		if _, err := compile(idx, b); err != nil {
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
