package janus

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// simulator's cost calibration, log reclamation, privatization strategy,
// and ordered vs unordered commits.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/conflict"
	"repro/internal/relation"
	"repro/internal/state"
	"repro/internal/stm"
	"repro/internal/workloads"
)

// BenchmarkAblationCostModel varies the simulator's calibration constants
// (per-op cost and commit/replay cost, each ×0.5 and ×2) and reports the
// 8-thread speedups of both detectors on the best-case (jfilesync) and
// overhead-bound (jgrapht2) benchmarks. The qualitative Figure 9 claims —
// sequence-based beats write-set, write-set stays below 1x — hold at
// every calibration point; only magnitudes move.
func BenchmarkAblationCostModel(b *testing.B) {
	scales := []struct {
		name          string
		opMul, comMul float64
	}{
		{"baseline", 1, 1},
		{"cheap-ops", 0.5, 1},
		{"costly-ops", 2, 1},
		{"cheap-commit", 1, 0.5},
		{"costly-commit", 1, 2},
	}
	for _, wname := range []string{"jfilesync", "jgrapht2"} {
		w, err := workloads.ByName(wname)
		if err != nil {
			b.Fatal(err)
		}
		engine := trainedEngine(b, w, false)
		for _, sc := range scales {
			cost := stm.DefaultCost()
			cost.Op *= sc.opMul
			cost.CommitBase *= sc.comMul
			cost.ReplayWritePerOp *= sc.comMul
			cost.ReplayReadPerOp *= sc.comMul
			for _, detName := range []string{"sequence", "write-set"} {
				b.Run(fmt.Sprintf("%s/%s/%s", wname, sc.name, detName), func(b *testing.B) {
					var stats stm.SimStats
					for i := 0; i < b.N; i++ {
						det := conflict.Detector(conflict.NewWriteSet())
						if detName == "sequence" {
							det = engine.Detector()
						}
						var err error
						_, stats, err = stm.Simulate(stm.SimConfig{
							Threads:  8,
							Ordered:  w.Ordered,
							Detector: det,
							Cost:     &cost,
						}, w.NewState(), w.Tasks(workloads.Production, benchSeed))
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(stats.Speedup, "speedup")
					b.ReportMetric(0, "ns/op")
				})
			}
		}
	}
}

// BenchmarkAblationLogReclamation reports the committed history's peak
// length over a run of len(tasks) transactions. The paper's prototype kept
// every log (§7.2); the runtime no longer can — every commit reclaims — so
// there is one row, and the run length is the baseline it is read against.
func BenchmarkAblationLogReclamation(b *testing.B) {
	w, err := workloads.ByName("pmd")
	if err != nil {
		b.Fatal(err)
	}
	tasks := w.Tasks(workloads.Production, benchSeed)
	engine := trainedEngine(b, w, false)
	var maxHist int64
	for i := 0; i < b.N; i++ {
		_, stats, err := stm.Run(stm.Config{
			Threads:  4,
			Detector: engine.Detector(),
		}, w.NewState(), tasks)
		if err != nil {
			b.Fatal(err)
		}
		maxHist = max(maxHist, stats.MaxHist)
	}
	b.ReportMetric(float64(maxHist), "peak-history")
	b.ReportMetric(float64(len(tasks)), "transactions")
}

// BenchmarkAblationPrivatization compares the runtime's privatization —
// copy-on-access over structurally shared versions, the improvement §4.1
// proposes — with the paper prototype's, which copied the whole shared
// state at every transaction begin (§7.2: "in a naive fashion"). The
// runtime no longer has that mode; eagerCopy reproduces its cost here,
// test-only, as the baseline.
func BenchmarkAblationPrivatization(b *testing.B) {
	w, err := workloads.ByName("jgrapht2")
	if err != nil {
		b.Fatal(err)
	}
	tasks := w.Tasks(workloads.Small, benchSeed)
	engine := trainedEngine(b, w, false)
	for _, mode := range []struct {
		name  string
		tasks []Task
	}{
		{"copy", eagerCopy(w.NewState(), tasks)},
		{"persistent", tasks},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := stm.Run(stm.Config{
					Threads:  4,
					Detector: engine.Detector(),
				}, w.NewState(), mode.tasks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// eagerCopy wraps every task so that each execution attempt first deep-
// copies shared (a state of the run's size and shape), relations binding
// by binding: the begin cost of the prototype's CREATETRANSACTION.
func eagerCopy(shared *State, tasks []Task) []Task {
	type rel struct {
		loc   state.Loc
		pairs [][2]string
	}
	var rels []rel
	for _, l := range shared.Locs() {
		v, _ := shared.Get(l)
		if rv, ok := v.(state.Rel); ok {
			r := rel{loc: l}
			rv.R.Range(func(k, v string) bool {
				r.pairs = append(r.pairs, [2]string{k, v})
				return true
			})
			rels = append(rels, r)
		}
	}
	out := make([]Task, len(tasks))
	for i, task := range tasks {
		task := task
		out[i] = func(ex Executor) error {
			c := shared.Clone() // every location; relations only share structure
			for _, r := range rels {
				deep := relation.New()
				for _, kv := range r.pairs {
					deep.Put(kv[0], kv[1])
				}
				c.Set(r.loc, state.Rel{R: deep})
			}
			runtime.KeepAlive(c)
			return task(ex)
		}
	}
	return out
}

// BenchmarkAblationCommitOrder compares ordered and unordered commits on
// the coloring benchmark (which is legal under both).
func BenchmarkAblationCommitOrder(b *testing.B) {
	w, err := workloads.ByName("jgrapht1")
	if err != nil {
		b.Fatal(err)
	}
	engine := trainedEngine(b, w, false)
	for _, ordered := range []bool{false, true} {
		name := "unordered"
		if ordered {
			name = "ordered"
		}
		b.Run(name, func(b *testing.B) {
			var stats stm.SimStats
			for i := 0; i < b.N; i++ {
				var err error
				_, stats, err = stm.Simulate(stm.SimConfig{
					Threads:  8,
					Ordered:  ordered,
					Detector: engine.Detector(),
				}, w.NewState(), w.Tasks(workloads.Production, benchSeed))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(stats.Speedup, "speedup")
			b.ReportMetric(stats.RetryRatio(), "retries/txn")
			b.ReportMetric(0, "ns/op")
		})
	}
}
