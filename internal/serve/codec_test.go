package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// fourByFour is the serving benchmark's batch shape: four tasks, each an
// add, a put, a get of the put key and an add to the work counter.
func fourByFour() *Batch {
	b := &Batch{ID: "serve-mem-t0-c1-12345"}
	for t := 0; t < 4; t++ {
		key := fmt.Sprintf("k%05d", 100+t)
		b.Tasks = append(b.Tasks, TaskSpec{Ops: []OpSpec{
			{Op: "add", Loc: fmt.Sprintf("c%d", t), Delta: int64(17 + t)},
			{Op: "put", Loc: "kv", Key: key, Val: fmt.Sprintf("v%09d", 123456789-t)},
			{Op: "get", Loc: "kv", Key: key},
			{Op: "add", Loc: "work", Delta: 1},
		}})
	}
	return b
}

// TestParseBatchAllocs pins the codec's allocations on the 4x4 batch: a
// parse on a warm frame makes the id and one string per key and value
// (13). The Batch and its slabs are the frame's, op names come from a
// table and locations from the schema index. appendBatch into a reused
// buffer makes none.
func TestParseBatchAllocs(t *testing.T) {
	b := fourByFour()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	f := takeFrame(DefaultSchema().index())
	if n := testing.AllocsPerRun(100, func() {
		if _, err := f.parse(body); err != nil {
			t.Fatal(err)
		}
	}); n > 13 {
		t.Errorf("parse of a %d-byte 4x4 batch: %.0f allocations, want <= 13", len(body), n)
	}
	buf := appendBatch(nil, b)
	if !bytes.Equal(buf, body) {
		t.Fatalf("appendBatch wrote %s, json.Marshal %s", buf, body)
	}
	if n := testing.AllocsPerRun(100, func() { buf = appendBatch(buf[:0], b) }); n != 0 {
		t.Errorf("appendBatch into a reused buffer: %.0f allocations, want 0", n)
	}
}

// TestAppendResultMatchesEncoder holds the success reply's encoder to
// json.Encoder's bytes, trailing newline included, on strings that need
// escaping and on the integers' edges.
func TestAppendResultMatchesEncoder(t *testing.T) {
	for _, r := range []BatchResult{
		{},
		{ID: "serve-mem-t0-c1-12345", Tenant: "t0", Tasks: 4, Commits: 4, Retries: 1, Digest: "0123456789abcdef", Applied: 77, ElapsedMS: 3},
		{ID: "<a&b>\"\\\u2028\x01\xff", Tenant: "é中", Tasks: -1, Commits: -1 << 63, Retries: 1<<63 - 1, Applied: -5, ElapsedMS: 1<<63 - 1},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		if got := appendResult(nil, &r); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appendResult wrote %q, json.Encoder %q", got, want.Bytes())
		}
	}
}

// BenchmarkDecodeBatch compares a frame's parse with the json.Unmarshal it
// replaced on the 4x4 batch.
func BenchmarkDecodeBatch(b *testing.B) {
	body, err := json.Marshal(fourByFour())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("frame.parse", func(b *testing.B) {
		f := takeFrame(DefaultSchema().index())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.parse(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out Batch
			if err := json.Unmarshal(body, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
