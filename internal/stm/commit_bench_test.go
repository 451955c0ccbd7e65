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
