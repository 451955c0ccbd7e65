package rec

import (
	"io"
	"testing"

	"repro/internal/stm"
)

// BenchmarkRecord measures the cost of trace capture around a full stm
// run: "off" is the baseline (Config.Record nil — the production default),
// the others attach a live recorder. The off/on delta is the recording
// overhead committed to BENCH_replay.json; "off" also asserts the
// disabled path allocation count so a regression shows up as allocs, not
// just noise-prone ns.
func BenchmarkRecord(b *testing.B) {
	const nTasks = 64
	run := func(b *testing.B, r *Recorder) {
		initial := testState()
		tasks := testTasks(nTasks)
		var sink stm.CommitSink
		if r != nil {
			sink = r
		}
		_, _, err := stm.Run(stm.Config{
			Threads: 4, Record: sink,
		}, initial, tasks)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, nil)
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, New(testMeta(nTasks), testState(), Options{}))
		}
	})
	b.Run("on-dump", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := New(testMeta(nTasks), testState(), Options{})
			run(b, r)
			if _, err := r.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flight-ring", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, New(testMeta(nTasks), testState(), Options{ChunkBytes: 4 << 10, FlightChunks: 4}))
		}
	})
}
