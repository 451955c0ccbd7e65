package workloads

import (
	"testing"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/stm"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("suite size = %d, want 5", len(all))
	}
	names := map[string]bool{}
	for _, w := range all {
		if w.Name == "" || w.Desc == "" || w.Version == "" {
			t.Errorf("workload %+v missing metadata", w)
		}
		if len(w.Patterns) == 0 {
			t.Errorf("%s: no patterns", w.Name)
		}
		if w.NewState == nil || w.Tasks == nil {
			t.Fatalf("%s: missing constructors", w.Name)
		}
		names[w.Name] = true
		got, err := ByName(w.Name)
		if err != nil || got.Name != w.Name {
			t.Errorf("ByName(%s) = %v, %v", w.Name, got, err)
		}
	}
	if len(names) != 5 {
		t.Errorf("duplicate names: %v", names)
	}
	if _, err := ByName("nope"); err == nil {
		t.Errorf("unknown name must error")
	}
}

func TestTrainingPayloads(t *testing.T) {
	w := JFileSync()
	payloads := w.TrainingPayloads()
	if len(payloads) != 5 {
		t.Fatalf("payloads = %d, want 5 (the paper's training runs)", len(payloads))
	}
	if len(payloads[0]) != 5 || len(payloads[1]) != 10 {
		t.Errorf("Table 6 training list lengths: got %d and %d, want 5 and 10",
			len(payloads[0]), len(payloads[1]))
	}
}

func TestTaskCountsMatchTable6(t *testing.T) {
	cases := []struct {
		w         *Workload
		trainEven int
		trainOdd  int
		prodEven  int
		prodOdd   int
	}{
		{JFileSync(), 5, 10, 100, 25},
		{JGraphT1(), 100, 100, 1000, 1000},
		{JGraphT2(), 100, 100, 1000, 1000},
		{PMD(), 5, 10, 100, 25},
		{Weka(), 100, 100, 1000, 1000},
	}
	for _, c := range cases {
		if got := len(c.w.Tasks(Training, 2)); got != c.trainEven {
			t.Errorf("%s training even = %d, want %d", c.w.Name, got, c.trainEven)
		}
		if got := len(c.w.Tasks(Training, 3)); got != c.trainOdd {
			t.Errorf("%s training odd = %d, want %d", c.w.Name, got, c.trainOdd)
		}
		if got := len(c.w.Tasks(Production, 2)); got != c.prodEven {
			t.Errorf("%s production even = %d, want %d", c.w.Name, got, c.prodEven)
		}
		if got := len(c.w.Tasks(Production, 3)); got != c.prodOdd {
			t.Errorf("%s production odd = %d, want %d", c.w.Name, got, c.prodOdd)
		}
	}
}

func TestTasksDeterministic(t *testing.T) {
	// The same seed must produce identical sequential outcomes (tasks are
	// re-runnable closures over immutable data).
	for _, w := range All() {
		a, err := stm.RunSequential(w.NewState(), w.Tasks(Small, 7))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, err := stm.RunSequential(w.NewState(), w.Tasks(Small, 7))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !a.Equal(b) {
			t.Errorf("%s: sequential runs with equal seeds differ", w.Name)
		}
	}
}

// TestParallelSequenceMatchesSequential is the end-to-end serializability
// check: for every workload, a parallel run under trained sequence-based
// detection must produce a final state consistent with the sequential
// baseline on the locations the benchmark's output lives in.
func TestParallelSequenceMatchesSequential(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			tasks := w.Tasks(Small, 7)
			seq, err := stm.RunSequential(w.NewState(), tasks)
			if err != nil {
				t.Fatal(err)
			}
			det := trainedDetector(t, w)
			par, stats, err := stm.Run(stm.Config{
				Threads: 4,
				// Weka's painting and JGraphT-1's coloring are
				// order-dependent (true of the real benchmarks too):
				// unordered commits realize a different — still correct —
				// serial order than the sequential baseline.
				// Exact-equality checks therefore pin the commit order;
				// TestJGraphT1UnorderedColoringValid covers the
				// unordered case by checking the coloring invariant.
				Ordered:  w.Ordered || w.Name == "weka" || w.Name == "jgrapht1",
				Detector: det,
			}, w.NewState(), tasks)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Commits != int64(len(tasks)) {
				t.Fatalf("commits = %d, want %d", stats.Commits, len(tasks))
			}
			checkOutputs(t, w.Name, seq, par)
		})
	}
}

// trainedDetector is the sequence detector trained on w's first two
// training payloads.
func trainedDetector(t *testing.T, w *Workload) *conflict.Sequence {
	t.Helper()
	e := core.NewEngine(core.Options{Relax: w.Relaxations})
	if err := e.TrainMany(w.NewState(), w.TrainingPayloads()[:2]); err != nil {
		t.Fatal(err)
	}
	return e.Detector()
}

// TestParallelWriteSetMatchesSequential checks the baseline detector too:
// conservative detection must still be serializable (just slower).
func TestParallelWriteSetMatchesSequential(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			tasks := w.Tasks(Small, 11)
			seq, err := stm.RunSequential(w.NewState(), tasks)
			if err != nil {
				t.Fatal(err)
			}
			par, _, err := stm.Run(stm.Config{
				Threads:  4,
				Ordered:  w.Ordered || w.Name == "weka" || w.Name == "jgrapht1", // see above
				Detector: conflict.NewWriteSet(),
			}, w.NewState(), tasks)
			if err != nil {
				t.Fatal(err)
			}
			checkOutputs(t, w.Name, seq, par)
		})
	}
}

// TestPoisonedRecycle repeats both oracle tests with recycled artifacts
// poisoned (conflict.PoisonRecycled): the paper's loops, with their real
// windows, must never read an artifact after the runtime took it back.
// maxhist=0 names the unbounded history, the one policy the runtime has;
// the cells kept that name when the history bound was removed.
func TestPoisonedRecycle(t *testing.T) {
	defer conflict.PoisonRecycled(true)()
	t.Run("sequence/maxhist=0", TestParallelSequenceMatchesSequential)
	t.Run("write-set/maxhist=0", TestParallelWriteSetMatchesSequential)
}

// checkOutputs compares the benchmark's semantically meaningful outputs
// between a sequential and a parallel run. Scratch locations
// (shared-as-local pads, spuriously-read caches) are excluded where the
// relaxation specification declares their final value immaterial.
func checkOutputs(t *testing.T, name string, seq, par *state.State) {
	t.Helper()
	skip := map[state.Loc]bool{}
	if w, err := ByName(name); err == nil && w.Relaxations != nil {
		for l := range w.Relaxations.RAW {
			skip[l] = true
		}
		for l := range w.Relaxations.WAW {
			skip[l] = true
		}
	}
	for _, loc := range seq.Locs() {
		if skip[loc] {
			continue
		}
		want, _ := seq.Get(loc)
		got, ok := par.Get(loc)
		if !ok {
			t.Errorf("%s: %s missing from parallel state", name, loc)
			continue
		}
		if !want.EqualValue(got) {
			t.Errorf("%s: %s = %v, sequential %v", name, loc, got, want)
		}
	}
}

// TestJGraphT1UnorderedColoringValid checks the semantic invariant of the
// out-of-order greedy coloring: every node is colored and no two adjacent
// nodes share a color, under both detectors.
func TestJGraphT1UnorderedColoringValid(t *testing.T) {
	w := JGraphT1()
	g := jgGraphFor(Small, 7)
	tasks := w.Tasks(Small, 7)
	for _, det := range []conflict.Detector{trainedDetector(t, w), conflict.NewWriteSet()} {
		final, _, err := stm.Run(stm.Config{
			Threads:  4,
			Ordered:  false,
			Detector: det,
		}, w.NewState(), tasks)
		if err != nil {
			t.Fatalf("%s: %v", det.Name(), err)
		}
		colors := make([]int64, g.n)
		for v := 0; v < g.n; v++ {
			val, ok := final.Get(jgLocs().color[v])
			if !ok {
				t.Fatalf("%s: node %d has no color location", det.Name(), v)
			}
			colors[v] = int64(val.(state.Int))
			if colors[v] <= 0 {
				t.Fatalf("%s: node %d uncolored", det.Name(), v)
			}
		}
		for v := 0; v < g.n; v++ {
			for _, nb := range g.neighbors[v] {
				if colors[v] == colors[nb] {
					t.Fatalf("%s: adjacent nodes %d and %d share color %d", det.Name(), v, nb, colors[v])
				}
			}
		}
	}
}

func TestSizeString(t *testing.T) {
	if Training.String() != "training" || Production.String() != "production" || Small.String() != "small" {
		t.Errorf("size strings wrong")
	}
}

func TestGraphGeneration(t *testing.T) {
	g := newGraph(50, 6, rng(3))
	degSum := 0
	for v, nbs := range g.neighbors {
		degSum += len(nbs)
		seen := map[int]bool{}
		for _, nb := range nbs {
			if nb == v {
				t.Fatalf("self loop at %d", v)
			}
			if seen[nb] {
				t.Fatalf("duplicate edge %d-%d", v, nb)
			}
			seen[nb] = true
		}
	}
	if avg := float64(degSum) / 50; avg < 5 || avg > 7 {
		t.Errorf("average degree = %v, want ≈6", avg)
	}
}

func TestLinePixelsSymmetric(t *testing.T) {
	a := linePixels(nil, 0, 0, 30, 12, 6)
	b := linePixels(nil, 30, 12, 0, 0, 6)
	if len(a) != 6 || len(b) != 6 {
		t.Fatalf("lengths: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pixels differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
