package stm

import (
	"runtime"
	"testing"

	"repro/internal/adt"
)

// benchHighContention runs N tasks that all mutate the same counter under
// write-set detection at 8 workers — every pair conflicts, so speculation
// is nearly worthless and the retry loop is the whole story. It reports
// retries/txn, which Theorem 4.1 bounds by the task count less one.
func benchHighContention(b *testing.B, cfg Config) {
	const n = 64
	var tasks []adt.Task
	for i := 1; i <= n; i++ {
		w := int64(i)
		tasks = append(tasks, func(ex adt.Executor) error {
			c := adt.Counter{L: "work"}
			if err := c.Add(ex, w); err != nil {
				return err
			}
			// Yield between the ops so other workers' commits land inside
			// the transaction window even on a single-CPU host.
			for j := 0; j < 4; j++ {
				runtime.Gosched()
			}
			return c.Add(ex, 1)
		})
	}
	cfg.Threads = 8
	var retries int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := Run(cfg, initialState(), tasks)
		if err != nil {
			b.Fatal(err)
		}
		retries += stats.Retries
	}
	b.ReportMetric(float64(retries)/float64(b.N*n), "retries/txn")
}

func BenchmarkHighContentionBaseline(b *testing.B) {
	benchHighContention(b, Config{})
}
