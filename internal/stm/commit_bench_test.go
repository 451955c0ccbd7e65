package stm

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/adt"
	"repro/internal/state"
)

// commitBenchLocs is the number of distinct counters the disjoint-footprint
// commit workload spreads its writes over. With at least as many locations
// as workers, concurrently committing transactions virtually never share a
// location, so every cost the benchmark observes is protocol overhead —
// snapshot, validation, and above all the commit path itself.
const commitBenchLocs = 64

func commitBenchState() *state.State {
	st := state.New()
	for i := 0; i < commitBenchLocs; i++ {
		st.Set(state.Loc(fmt.Sprintf("c%02d", i)), state.Int(0))
	}
	return st
}

// benchCommitParallel drives b.N tiny transactions with pairwise-disjoint
// footprints through the runtime. Task bodies are four counter ops — small
// enough that commit, not execution, dominates — so ns/op tracks commit
// throughput. Before the striped-commit refactor every commit replayed
// under one global write lock (the paper's Figure 7 protocol verbatim)
// and each lost clock race burned an extra validation pass; the recorded
// before/after trajectory lives in BENCH_commit.json.
func benchCommitParallel(b *testing.B, cfg Config) {
	cfg.Threads = runtime.GOMAXPROCS(0)
	tasks := make([]adt.Task, b.N)
	for i := range tasks {
		c := adt.Counter{L: state.Loc(fmt.Sprintf("c%02d", i%commitBenchLocs))}
		tasks[i] = func(ex adt.Executor) error {
			for k := 0; k < 4; k++ {
				if err := c.Add(ex, 1); err != nil {
					return err
				}
			}
			return nil
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	_, stats, err := Run(cfg, commitBenchState(), tasks)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if stats.Commits != int64(b.N) {
		b.Fatalf("commits = %d, want %d", stats.Commits, b.N)
	}
	b.ReportMetric(float64(stats.Retries)/float64(b.N), "retries/txn")
}

// BenchmarkCommitParallel is the headline disjoint-footprint commit
// benchmark (write-set detection, unordered).
func BenchmarkCommitParallel(b *testing.B) {
	benchCommitParallel(b, Config{})
}

// BenchmarkCommitParallelOrdered pins the commit order to task order: the
// protocol's inherently serial mode, reported for contrast (commit-turn
// wakeup costs dominate).
func BenchmarkCommitParallelOrdered(b *testing.B) {
	benchCommitParallel(b, Config{Ordered: true})
}

// BenchmarkHistoryCompressed measures what an unbounded committed history
// retains with and without Config.HistoryCompress. Each transaction runs
// 32 counter ops — heavy enough that a full history entry's event log and
// arenas dominate — and the runtime is kept alive across a GC fence so
// hist-live-B is the retained history footprint, not transient garbage.
// ns/op shows what the demotion pass costs the publish path. The 10x-ops
// case pins the flat-memory acceptance bound: ten times the ops/txn over
// an unbounded (≥ any 10× MaxHistory window) history must retain no more
// than 1.5× the small-config full baseline per transaction — compressed
// records are O(locations), so op count stops mattering.
func BenchmarkHistoryCompressed(b *testing.B) {
	const opsPerTxn = 32
	for _, tc := range []struct {
		name     string
		compress bool
		ops      int
	}{
		{"full", false, opsPerTxn},
		{"compressed", true, opsPerTxn},
		{"compressed-10x-ops", true, 10 * opsPerTxn},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{
				Threads:         runtime.GOMAXPROCS(0),
				HistoryCompress: tc.compress,
			}
			tasks := make([]adt.Task, b.N)
			for i := range tasks {
				c := adt.Counter{L: state.Loc(fmt.Sprintf("c%02d", i%commitBenchLocs))}
				ops := tc.ops
				tasks[i] = func(ex adt.Executor) error {
					for k := 0; k < ops; k++ {
						if err := c.Add(ex, 1); err != nil {
							return err
						}
					}
					return nil
				}
			}
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&m0)
			b.ReportAllocs()
			b.ResetTimer() // note: also clears ReportMetric values
			r := New(cfg, commitBenchState())
			_, stats, err := r.run(tasks)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if stats.Commits != int64(b.N) {
				b.Fatalf("commits = %d, want %d", stats.Commits, b.N)
			}
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&m1)
			if m1.HeapAlloc > m0.HeapAlloc {
				b.ReportMetric(float64(m1.HeapAlloc-m0.HeapAlloc)/float64(b.N), "hist-live-B/txn")
			}
			b.ReportMetric(float64(stats.Demotions), "demotions")
			runtime.KeepAlive(r)
		})
	}
}
