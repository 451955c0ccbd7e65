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

// TestParseBatchAllocs pins the codec's allocations on the 4x4 batch:
// parseBatch makes the Batch, one slab each of tasks and ops, the id, one
// string per distinct location and one per key and value (22); op names
// come from a table. appendBatch into a reused buffer makes none.
func TestParseBatchAllocs(t *testing.T) {
	b := fourByFour()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := parseBatch(body); err != nil {
			t.Fatal(err)
		}
	}); n > 22 {
		t.Errorf("parseBatch of a %d-byte 4x4 batch: %.0f allocations, want <= 22", len(body), n)
	}
	buf := appendBatch(nil, b)
	if !bytes.Equal(buf, body) {
		t.Fatalf("appendBatch wrote %s, json.Marshal %s", buf, body)
	}
	if n := testing.AllocsPerRun(100, func() { buf = appendBatch(buf[:0], b) }); n != 0 {
		t.Errorf("appendBatch into a reused buffer: %.0f allocations, want 0", n)
	}
}

// BenchmarkDecodeBatch compares parseBatch with the json.Unmarshal it
// replaced on the 4x4 batch.
func BenchmarkDecodeBatch(b *testing.B) {
	body, err := json.Marshal(fourByFour())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parseBatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parseBatch(body); err != nil {
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
