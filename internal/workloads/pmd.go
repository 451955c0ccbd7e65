package workloads

import (
	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/state"
)

// PMD locations.
const (
	pmdFilename   = state.Loc("ctx.sourceCodeFilename")
	pmdFile       = state.Loc("ctx.sourceCodeFile")
	pmdAttributes = state.Loc("ctx.attributes")
	pmdViolations = state.Loc("metrics.violations")
	pmdAnalyzed   = state.Loc("metrics.analyzed")
)

// pmdCounterLabel is the attribute key GenericClassCounterRule stores
// under (Figure 4): every iteration overwrites it with a fresh counter
// object, the near-miss shared-as-local pattern that keeps ctx from being
// privatized.
const pmdCounterLabel = "COUNTER_LABEL"

// PMD reproduces the source-analyzer loop of Figure 4: each task
// overwrites the shared RuleContext's sourceCodeFilename/sourceCodeFile
// fields and the COUNTER attribute before reading them back
// (shared-as-local via the attribute table), analyzes its file, and
// accumulates violation counts (reduction). Write-set detection aborts
// every interleaved pair because all iterations update the same ctx
// fields; §5.3's WAW tolerance — inferable automatically here because the
// loop permits out-of-order execution — suppresses those conflicts.
func PMD() *Workload {
	return &Workload{
		Name:            "pmd",
		Version:         "4.2",
		Desc:            "Java source code analyzer",
		Patterns:        []string{"shared-as-local", "reduction"},
		TrainingInput:   "random Java source-file lists of length 5 and 10",
		ProductionInput: "random Java source-file lists of length 25 and 100",
		Ordered:         false,
		NewState:        pmdState,
		Tasks:           pmdTasks,
		Relaxations: conflict.NewRelaxations(
			nil,
			[]state.Loc{pmdFilename, pmdFile},
		),
		LocalWork: 5000,
	}
}

func pmdState() *state.State {
	st := state.New()
	st.Set(pmdFilename, state.Str(""))
	st.Set(pmdFile, state.Str(""))
	st.Set(pmdAttributes, adt.NewRelValue())
	st.Set(pmdViolations, state.Int(0))
	st.Set(pmdAnalyzed, state.Int(0))
	return st
}

func pmdTasks(size Size, seed int64) []adt.Task {
	var files int
	switch size {
	case Training:
		files = 5
		if seed%2 == 1 {
			files = 10
		}
	case Production:
		files = 100
		if seed%2 == 1 {
			files = 25
		}
	default:
		files = 10
	}
	r := rng(seed)
	w := PMD()
	tasks := make([]adt.Task, files)
	// Production sources are larger than the training ones, so more rule
	// passes touch the context per file (variable-length sequences).
	maxPasses := 4
	if size == Production {
		maxPasses = 8
	}
	// Per file, "file:<name>" (whose tail is the name itself) and the
	// task's counter-<id>: the strings the body stores, built here.
	const filePrefix = "file:"
	var n names
	for i := 0; i < files; i++ {
		n.buf = append(n.buf, filePrefix+"src/com/example/Class"...)
		n.num(i, 4)
		n.buf = append(n.buf, ".java"...)
		n.cut()
		n.buf = append(n.buf, "counter-"...)
		n.num(i+1, 0)
		n.cut()
	}
	strs := split[string](&n)
	for i := 0; i < files; i++ {
		file, counter := strs[2*i], strs[2*i+1]
		// The strings the body stores, boxed here once per task.
		name := state.Value(state.Str(file[len(filePrefix):]))
		fileVal := state.Value(state.Str(file))
		// Deterministic per-file "analysis findings".
		violations := int64(r.Intn(5))
		rulePasses := 2 + r.Intn(maxPasses)
		tasks[i] = func(ex adt.Executor) error {
			filename := adt.StrVar{L: pmdFilename}
			fileVar := adt.StrVar{L: pmdFile}
			attrs := adt.KVMap{L: pmdAttributes}

			// ctx.sourceCodeFilename = niceFileName; ctx.sourceCodeFile = new File(...)
			if err := filename.Store(ex, name); err != nil {
				return err
			}
			if err := fileVar.Store(ex, fileVal); err != nil {
				return err
			}
			// rs.start(ctx): setAttribute(COUNTER_LABEL, new AtomicLong())
			if err := attrs.Put(ex, pmdCounterLabel, counter); err != nil {
				return err
			}
			for pass := 0; pass < rulePasses; pass++ {
				// Rules read the context fields they just set.
				if _, err := filename.Load(ex); err != nil {
					return err
				}
				if _, _, err := attrs.Get(ex, pmdCounterLabel); err != nil {
					return err
				}
				adt.LocalWork(ex, int64(w.LocalWork/rulePasses))
			}
			// rs.end(ctx): the rule removes its COUNTER attribute,
			// restoring the key to absent — so the attribute sequence
			// (put; get×passes; remove) is an identity-to-absent pattern
			// whose commutativity the trained cache proves, at any pass
			// count under the Kleene-cross abstraction.
			if err := attrs.Remove(ex, pmdCounterLabel); err != nil {
				return err
			}
			// Accumulate findings (reduction).
			if violations > 0 {
				if err := (adt.Counter{L: pmdViolations}).Add(ex, violations); err != nil {
					return err
				}
			}
			return (adt.Counter{L: pmdAnalyzed}).Add(ex, 1)
		}
	}
	return tasks
}
