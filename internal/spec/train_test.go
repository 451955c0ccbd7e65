package spec

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/relation"
	"repro/internal/state"
)

func initialState() *state.State {
	st := state.New()
	st.Set("work", state.Int(0))
	st.Set("monitor", &state.IntList{})
	st.Set("canvas", adt.NewRelValue())
	st.Set("max", state.Int(1))
	return st
}

// identityTask mirrors Figure 1: accumulate into work, then restore.
func identityTask(w int64) adt.Task {
	return func(ex adt.Executor) error {
		c := adt.Counter{L: "work"}
		if err := c.Add(ex, w); err != nil {
			return err
		}
		return c.Sub(ex, w)
	}
}

// stackTask mirrors Figure 2's monitor: balanced push/pop.
func stackTask(w int64) adt.Task {
	return func(ex adt.Executor) error {
		s := adt.Stack{L: "monitor"}
		if err := s.Push(ex, w); err != nil {
			return err
		}
		_, err := s.Pop(ex)
		return err
	}
}

// drawTask mirrors Figure 5: all tasks draw the same color on a shared
// pixel.
func drawTask(color string) adt.Task {
	return func(ex adt.Executor) error {
		return adt.Canvas{L: "canvas"}.DrawPixel(ex, 1, 1, color)
	}
}

func TestProfilerRecordsTasks(t *testing.T) {
	st := initialState()
	p := NewProfiler(st)
	if err := p.Run([]adt.Task{identityTask(2), identityTask(3)}); err != nil {
		t.Fatal(err)
	}
	tr := p.Trace()
	if len(tr) != 4 {
		t.Fatalf("trace = %d ops, want 4", len(tr))
	}
	if tr[0].Task != 1 || tr[2].Task != 2 {
		t.Errorf("task ids wrong: %v %v", tr[0].Task, tr[2].Task)
	}
	if v, _ := st.Get("work"); !v.EqualValue(state.Int(0)) {
		t.Errorf("work after identity tasks = %v, want 0", v)
	}
	if tr[0].Seq != 0 || tr[3].Seq != 3 {
		t.Errorf("sequence numbers wrong")
	}
}

// TestProfilerExecAllocs pins the profiler's logging: events go into
// slabs that double, so an op whose footprint is one location and whose
// result is the value its location already holds costs less than one
// allocation per Exec, amortized. Logging each event in its own heap
// object costs one. Events logged before a slab filled keep their
// contents.
func TestProfilerExecAllocs(t *testing.T) {
	p := NewProfiler(initialState())
	p.task = 1
	load := adt.NumLoadOp{L: "work"}.Op()
	const runs = 10000
	if a := testing.AllocsPerRun(runs, func() {
		if _, err := p.Exec(load); err != nil {
			t.Fatal(err)
		}
	}); a >= 1 {
		t.Fatalf("%v allocations per Exec, want < 1", a)
	}
	for i, e := range p.Trace() {
		if e.Seq != i || e.Op != load || len(e.Accesses()) != 1 {
			t.Fatalf("event %d = %+v after the slab grew", i, *e)
		}
	}
}

func TestTrainIdentityPattern(t *testing.T) {
	c, rep, err := Train(initialState(), []adt.Task{identityTask(2), identityTask(5)}, Abstract)
	if err != nil {
		t.Fatal(err)
	}
	if rep.cached[condAlways]+rep.cached[condRegister] == 0 {
		t.Fatalf("identity pair must cache a condition; report: %s", rep)
	}
	// A production query with a different repetition count must hit and
	// report no conflict.
	pLong := NewProfiler(initialState())
	if err := pLong.Run([]adt.Task{func(ex adt.Executor) error {
		if err := identityTask(7)(ex); err != nil {
			return err
		}
		return identityTask(9)(ex)
	}}); err != nil {
		t.Fatal(err)
	}
	pShort := NewProfiler(initialState())
	if err := pShort.Run([]adt.Task{identityTask(3)}); err != nil {
		t.Fatal(err)
	}
	conflict, _, hit := lookup(c, pLong.Trace().Syms(), pShort.Trace().Syms())
	if !hit || conflict {
		t.Fatalf("Lookup(long identity, short identity) = conflict=%v hit=%v", conflict, hit)
	}
	st := c.Stats()
	if st.Lookups != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTrainStackPattern(t *testing.T) {
	c, rep, err := Train(initialState(), []adt.Task{stackTask(4), stackTask(6)}, Abstract)
	if err != nil {
		t.Fatal(err)
	}
	if rep.cached[condStackIdentity] == 0 {
		t.Fatalf("stack pair must cache a stack-identity condition; report: %s", rep)
	}
	if c.Len() == 0 {
		t.Fatal("cache empty")
	}
}

func TestTrainEqualWritesVerified(t *testing.T) {
	c, rep, err := Train(initialState(), []adt.Task{drawTask("white"), drawTask("white")}, Abstract)
	if err != nil {
		t.Fatal(err)
	}
	if rep.cached[condRegister] == 0 {
		t.Fatalf("equal-writes pair must cache; report: %s", rep)
	}
	if rep.EquivChecks == 0 {
		t.Fatalf("relational pair must get the content check; report: %s", rep)
	}
	if rep.EquivFailures != 0 {
		t.Fatalf("content check failed: %s", rep)
	}
	_ = c
}

func TestTrainDifferentWritesStillCachesRegisterCondition(t *testing.T) {
	// put(white) vs put(black): the register condition is cached (the
	// shape is decidable), and evaluating it on the conflicting instance
	// reports a conflict.
	c, _, err := Train(initialState(), []adt.Task{drawTask("white"), drawTask("black")}, Abstract)
	if err != nil {
		t.Fatal(err)
	}
	stA := initialState()
	pA := NewProfiler(stA)
	if err := drawTask("red")(pA); err != nil {
		t.Fatal(err)
	}
	stB := initialState()
	pB := NewProfiler(stB)
	if err := drawTask("blue")(pB); err != nil {
		t.Fatal(err)
	}
	conflict, _, hit := lookup(c, pA.Trace().Syms(), pB.Trace().Syms())
	if !hit {
		t.Fatalf("equal shape must hit")
	}
	if !conflict {
		t.Fatalf("different colors must conflict")
	}
	conflict, _, hit = lookup(c, pA.Trace().Syms(), pA.Trace().Syms())
	if !hit || conflict {
		t.Fatalf("same color must not conflict: conflict=%v hit=%v", conflict, hit)
	}
}

func TestConcreteModeMissesOnLengthChange(t *testing.T) {
	c, _, err := Train(initialState(), []adt.Task{identityTask(2), identityTask(5)}, Concrete)
	if err != nil {
		t.Fatal(err)
	}
	// Query with four ops (two identity pairs in one transaction).
	st := initialState()
	p := NewProfiler(st)
	double := func(ex adt.Executor) error {
		if err := identityTask(7)(ex); err != nil {
			return err
		}
		return identityTask(9)(ex)
	}
	if err := double(p); err != nil {
		t.Fatal(err)
	}
	stShort := initialState()
	pShort := NewProfiler(stShort)
	if err := identityTask(3)(pShort); err != nil {
		t.Fatal(err)
	}
	_, _, hit := lookup(c, p.Trace().Syms(), pShort.Trace().Syms())
	if hit {
		t.Fatalf("concrete mode must miss on a length change")
	}
	abstract, _, err := Train(initialState(), []adt.Task{identityTask(2), identityTask(5)}, Abstract)
	if err != nil {
		t.Fatal(err)
	}
	conflict, _, hit := lookup(abstract, p.Trace().Syms(), pShort.Trace().Syms())
	if !hit || conflict {
		t.Fatalf("abstract mode must hit and report commutativity; conflict=%v hit=%v", conflict, hit)
	}
}

// TestTrainManyMerges: caches trained on different payloads merge into one
// that holds both payloads' patterns, the way core.Engine trains on the
// paper's several training runs.
func TestTrainManyMerges(t *testing.T) {
	payloads := [][]adt.Task{
		{identityTask(2), identityTask(3)},
		{stackTask(1), stackTask(2)},
	}
	c := New(Abstract, false)
	for _, tasks := range payloads {
		ci, _, err := Train(initialState(), tasks, Abstract)
		if err != nil {
			t.Fatal(err)
		}
		c.Merge(ci)
	}
	if c.Len() < 2 {
		t.Fatalf("merged cache must hold both patterns, len=%d\n%s", c.Len(), c.Dump())
	}
}

func TestReportString(t *testing.T) {
	_, rep, err := Train(initialState(), []adt.Task{identityTask(1), identityTask(2)}, Concrete)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"trace=", "plocs=", "cached="} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

func TestLearnRespectsPairBound(t *testing.T) {
	// 92 tasks on one location make 92·91/2 = 4186 cross-task pairs, more
	// than the bound lets training consider.
	var tasks []adt.Task
	for i := 0; i < 92; i++ {
		tasks = append(tasks, identityTask(int64(i+1)))
	}
	if n := len(tasks) * (len(tasks) - 1) / 2; n <= maxPairsPerLoc {
		t.Fatalf("%d pairs do not exceed the bound %d", n, maxPairsPerLoc)
	}
	_, rep, err := Train(initialState(), tasks, Abstract)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SharedPLocs != 1 || rep.PairsConsidered != maxPairsPerLoc {
		t.Fatalf("shared plocs = %d, PairsConsidered = %d, want 1 and %d", rep.SharedPLocs, rep.PairsConsidered, maxPairsPerLoc)
	}
}

func TestTrainDoesNotMutateCallerState(t *testing.T) {
	st := initialState()
	if _, _, err := Train(st, []adt.Task{identityTask(2)}, Concrete); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get("work"); !v.EqualValue(state.Int(0)) {
		t.Errorf("caller state mutated: work=%v", v)
	}
}

func TestProfilerSkipsLocalWork(t *testing.T) {
	st := initialState()
	p := NewProfiler(st)
	var sink adt.CostSink = p
	sink.AddLocalWork(1 << 40) // must be free: no spinning
	task := func(ex adt.Executor) error {
		adt.LocalWork(ex, 1<<40) // would take hours if actually spun
		return (adt.Counter{L: "work"}).Add(ex, 1)
	}
	if err := p.Run([]adt.Task{task}); err != nil {
		t.Fatal(err)
	}
	if len(p.Trace()) != 1 {
		t.Fatalf("trace = %d ops", len(p.Trace()))
	}
}

func TestTrainingIsDeterministic(t *testing.T) {
	tasks := []adt.Task{identityTask(2), stackTask(4), drawTask("white"), drawTask("white")}
	a, _, err := Train(initialState(), tasks, Abstract)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Train(initialState(), tasks, Abstract)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dump() != b.Dump() {
		t.Fatalf("training runs differ:\n%s\nvs\n%s", a.Dump(), b.Dump())
	}
}

func TestTaskErrorSurfacesWithTaskNumber(t *testing.T) {
	bad := func(adt.Executor) error { return errSentinel }
	_, _, err := Train(initialState(), []adt.Task{identityTask(1), bad}, Concrete)
	if err == nil || !strings.Contains(err.Error(), "task 2") {
		t.Fatalf("err = %v", err)
	}
}

var errSentinel = errors.New("sentinel")

// TestSyntheticStatesBindEscapedKey: the bound-key variant binds the key
// the projection names, which is the raw key, so a key holding a
// separator is probed with its own tuple present — and so is the empty
// key, which names a binding, not the whole relation.
func TestSyntheticStatesBindEscapedKey(t *testing.T) {
	for _, key := range []string{"plain", "a,b", "a=b", `a\b`, ""} {
		p := adt.RelPutOp{L: "canvas", Key: key}.Op().AppendAccesses(nil, nil)[0].P
		states := syntheticStates(initialState(), p)
		bound := false
		for _, st := range states {
			v, _ := st.Get("canvas")
			_, ok := v.(state.Rel).R.Get(key)
			bound = bound || ok
		}
		if !bound {
			t.Errorf("key %q (projection %q): no synthetic state binds it", key, p)
		}
	}
}

// TestTrainChecksCustomPairs: a custom ADT's ops are the built-in
// relational ops over a KV relation, so training checks its pairs the way
// it checks a KVMap's: the route table's equal-writes pair gets the §6.2
// content check, and the bound-key probe binds the pair's own composite key.
func TestTrainChecksCustomPairs(t *testing.T) {
	initial := state.New()
	spec := adt.CustomSpec{Columns: []string{"src", "dst", "cost", "via"}, Domain: []string{"src", "dst"}}
	obj, err := adt.NewCustom(initial, "routes", spec)
	if err != nil {
		t.Fatal(err)
	}
	key := relation.Tuple{"src": "a", "dst": "b"}
	task := func(ex adt.Executor) error {
		if err := obj.Put(ex, relation.Tuple{"src": "a", "dst": "b", "cost": "3", "via": "r1"}); err != nil {
			return err
		}
		_, _, err := obj.Get(ex, key)
		return err
	}
	_, rep, err := Train(initial, []adt.Task{task, task}, Abstract)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EquivChecks == 0 || rep.EquivFailures != 0 {
		t.Fatalf("custom equal-writes pair: want the content check passed, report: %s", rep)
	}

	prof := NewProfiler(initial.Clone())
	if err := prof.Run([]adt.Task{task}); err != nil {
		t.Fatal(err)
	}
	p := prof.Trace()[0].Accesses()[0].P
	want := key.Key([]string{"dst", "src"})
	bound := false
	for _, st := range syntheticStates(initial, p) {
		v, _ := st.Get("routes")
		_, ok := v.(state.Rel).R.Get(want)
		bound = bound || ok
	}
	if !bound {
		t.Errorf("projection %q: no synthetic state binds the key %q", p, want)
	}
}
