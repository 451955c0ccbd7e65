package janus

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§7). Each Figure benchmark runs the corresponding
// experiment on the virtual-time machine simulator (see DESIGN.md for why
// speedups are simulated on this host) and reports the paper's metric —
// speedup, retries per transaction, or unique-query miss rate — via
// b.ReportMetric, so `go test -bench .` regenerates every series.
//
//	go test -bench 'Figure9'  -benchtime 1x   # speedup series
//	go test -bench 'Figure10' -benchtime 1x   # retry ratios
//	go test -bench 'Figure11' -benchtime 1x   # cache miss rates
//	go test -bench 'Table'    -benchtime 1x   # Tables 5 and 6
//
// `janus bench` prints the same series as formatted tables.

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/workloads"
)

// benchSize selects the simulated input scale. Production matches the
// paper (Table 6); the suite stays under a few minutes of CPU.
const benchSize = workloads.Production

// benchSeed matches the harness's measured production input.
const benchSeed = 2024

var benchThreads = []int{1, 2, 4, 8}

// engineCache shares trained engines across benchmark iterations; keyed
// by workload name and abstraction setting.
var engineCache sync.Map

func trainedEngine(b *testing.B, w *workloads.Workload, disableAbs bool) *core.Engine {
	b.Helper()
	key := fmt.Sprintf("%s/%v", w.Name, disableAbs)
	if e, ok := engineCache.Load(key); ok {
		return e.(*core.Engine)
	}
	engine := core.NewEngine(core.Options{DisableAbstraction: disableAbs, Relax: w.Relaxations})
	if err := engine.TrainMany(w.NewState(), w.TrainingPayloads()); err != nil {
		b.Fatal(err)
	}
	engineCache.Store(key, engine)
	return engine
}

func simRun(b *testing.B, w *workloads.Workload, det conflict.Detector, threads int) stm.SimStats {
	b.Helper()
	_, stats, err := stm.Simulate(stm.SimConfig{
		Threads:  threads,
		Ordered:  w.Ordered,
		Detector: det,
	}, w.NewState(), w.Tasks(benchSize, benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	return stats
}

// BenchmarkFigure9 regenerates the Figure 9 speedup series: per
// benchmark, detector, and thread count, the speedup over the sequential
// baseline is reported as the "speedup" metric.
func BenchmarkFigure9(b *testing.B) {
	for _, w := range workloads.All() {
		for _, detName := range []string{"sequence", "write-set"} {
			for _, th := range benchThreads {
				b.Run(fmt.Sprintf("%s/%s/%dthr", w.Name, detName, th), func(b *testing.B) {
					engine := trainedEngine(b, w, false)
					var stats stm.SimStats
					for i := 0; i < b.N; i++ {
						det := conflict.Detector(conflict.NewWriteSet())
						if detName == "sequence" {
							det = engine.Detector()
						}
						stats = simRun(b, w, det, th)
					}
					b.ReportMetric(stats.Speedup, "speedup")
					b.ReportMetric(0, "ns/op")
				})
			}
		}
	}
}

// BenchmarkFigure10 regenerates the Figure 10 retry ratios, reported as
// the "retries/txn" metric.
func BenchmarkFigure10(b *testing.B) {
	for _, w := range workloads.All() {
		for _, detName := range []string{"sequence", "write-set"} {
			for _, th := range benchThreads {
				b.Run(fmt.Sprintf("%s/%s/%dthr", w.Name, detName, th), func(b *testing.B) {
					engine := trainedEngine(b, w, false)
					var stats stm.SimStats
					for i := 0; i < b.N; i++ {
						det := conflict.Detector(conflict.NewWriteSet())
						if detName == "sequence" {
							det = engine.Detector()
						}
						stats = simRun(b, w, det, th)
					}
					b.ReportMetric(stats.RetryRatio(), "retries/txn")
					b.ReportMetric(0, "ns/op")
				})
			}
		}
	}
}

// BenchmarkFigure11 regenerates the Figure 11 unique-query miss rates at
// 8 threads, with and without sequence abstraction, reported as the
// "missrate-%" metric.
func BenchmarkFigure11(b *testing.B) {
	for _, w := range workloads.All() {
		for _, mode := range []string{"abstraction", "no-abstraction"} {
			b.Run(fmt.Sprintf("%s/%s", w.Name, mode), func(b *testing.B) {
				disable := mode == "no-abstraction"
				var rate float64
				for i := 0; i < b.N; i++ {
					// A fresh engine per iteration: miss accounting is
					// cumulative per cache.
					engine := core.NewEngine(core.Options{DisableAbstraction: disable, Relax: w.Relaxations})
					if err := engine.TrainMany(w.NewState(), w.TrainingPayloads()); err != nil {
						b.Fatal(err)
					}
					tasks := w.Tasks(benchSize, benchSeed)
					for pass := 0; pass < 2; pass++ {
						if pass == 1 {
							engine.Cache().ResetStats()
						}
						if _, _, err := stm.Simulate(stm.SimConfig{
							Threads:  8,
							Ordered:  w.Ordered,
							Detector: engine.Detector(),
						}, w.NewState(), tasks); err != nil {
							b.Fatal(err)
						}
					}
					rate = engine.Cache().Stats().UniqueMissRate()
				}
				b.ReportMetric(rate*100, "missrate-%")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkTable5 regenerates the benchmark-characteristics table (static
// metadata; the benchmark measures its rendering).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table5(io.Discard)
	}
}

// BenchmarkTable6 regenerates the training/production input table.
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table6(io.Discard)
	}
}

// BenchmarkTrainingPhase measures the offline training cost itself (the
// §5.1 pipeline: profile, mine, prove, verify, cache) per benchmark —
// the "expensive work moved offline" that production lookups amortize.
func BenchmarkTrainingPhase(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				engine := core.NewEngine(core.Options{Relax: w.Relaxations})
				if err := engine.Train(w.NewState(), w.Tasks(workloads.Training, 1000)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
