package janus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/rec"
	"time"
)

func exampleState() *State {
	st := NewState()
	InitCounter(st, "work", 0)
	InitStack(st, "stack")
	InitStrVar(st, "name", "")
	InitBoolVar(st, "flag", false)
	InitBitSet(st, "bits")
	InitKVMap(st, "map")
	InitIntArray(st, "arr")
	InitCanvas(st, "canvas")
	return st
}

func identityTask(n int64) Task {
	return func(ex Executor) error {
		c := Counter{L: "work"}
		if err := c.Add(ex, n); err != nil {
			return err
		}
		return c.Sub(ex, n)
	}
}

func addTask(n int64) Task {
	return func(ex Executor) error {
		return Counter{L: "work"}.Add(ex, n)
	}
}

func TestInitHelpersBindLocations(t *testing.T) {
	st := exampleState()
	if st.Len() != 8 {
		t.Fatalf("Len = %d, want 8", st.Len())
	}
	seq, err := Sequential(st, []Task{func(ex Executor) error {
		if err := (Stack{L: "stack"}).Push(ex, 1); err != nil {
			return err
		}
		if err := (StrVar{L: "name"}).Store(ex, Str("x")); err != nil {
			return err
		}
		if err := (BoolVar{L: "flag"}).Store(ex, true); err != nil {
			return err
		}
		if err := (BitSet{L: "bits"}).Set(ex, 3); err != nil {
			return err
		}
		if err := (KVMap{L: "map"}).Put(ex, "k", "v"); err != nil {
			return err
		}
		if err := (IntArray{L: "arr"}).Set(ex, 0, 9); err != nil {
			return err
		}
		return (Canvas{L: "canvas"}).DrawPixel(ex, 1, 2, "red")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := seq.Get("name"); !ok || v.String() != "x" {
		t.Errorf("name = %v", v)
	}
}

func TestTrainThenRun(t *testing.T) {
	st := exampleState()
	var tasks []Task
	for i := 1; i <= 10; i++ {
		tasks = append(tasks, identityTask(int64(i)))
	}
	r := New(Config{Threads: 4, Detection: DetectSequence})
	if err := r.Train(st, tasks[:3]); err != nil {
		t.Fatal(err)
	}
	if len(r.TrainingReports()) != 1 {
		t.Fatalf("reports = %d", len(r.TrainingReports()))
	}
	final, stats, err := r.Run(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := final.Get("work"); v.String() != "0" {
		t.Fatalf("work = %v", v)
	}
	if stats.Run.Commits != 10 {
		t.Fatalf("commits = %d", stats.Run.Commits)
	}
	if stats.Run.Retries != 0 {
		t.Fatalf("identity tasks must not retry under sequence detection, got %d", stats.Run.Retries)
	}
}

func TestFreezeAfterTraining(t *testing.T) {
	st := exampleState()
	var tasks []Task
	for i := 1; i <= 10; i++ {
		tasks = append(tasks, identityTask(int64(i)))
	}
	r := New(Config{Threads: 4, Detection: DetectSequence})
	if err := r.Train(st, tasks[:3]); err != nil {
		t.Fatal(err)
	}
	entries := r.CacheStats().Entries
	if entries == 0 {
		t.Fatal("training produced no cache entries")
	}
	var spec bytes.Buffer
	if err := r.SaveSpec(&spec); err != nil {
		t.Fatal(err)
	}
	r.Freeze()
	_, stats, err := r.Run(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Run.Commits != 10 || stats.Run.Retries != 0 {
		t.Fatalf("frozen run: commits=%d retries=%d", stats.Run.Commits, stats.Run.Retries)
	}
	if err := r.LoadSpec(bytes.NewReader(spec.Bytes())); err == nil {
		t.Fatal("LoadSpec into a frozen runner must fail")
	}
	if got := r.CacheStats().Entries; got != entries {
		t.Fatalf("frozen cache contents changed: %d -> %d entries", entries, got)
	}

	// LearnOnline runners must stay writable: Freeze is a no-op there.
	lo := New(Config{Threads: 2, Detection: DetectSequence, LearnOnline: true})
	lo.Freeze()
	if err := lo.LoadSpec(bytes.NewReader(spec.Bytes())); err != nil {
		t.Fatalf("LoadSpec after no-op Freeze: %v", err)
	}
	if _, _, err := lo.Run(exampleState(), tasks[:4]); err != nil {
		t.Fatal(err)
	}
}

func TestRunInOrderPreservesOrder(t *testing.T) {
	st := exampleState()
	push := func(v int64) Task {
		return func(ex Executor) error { return Stack{L: "stack"}.Push(ex, v) }
	}
	tasks := []Task{push(1), push(2), push(3), push(4)}
	r := New(Config{Threads: 4, Detection: DetectWriteSet})
	final, _, err := r.RunInOrder(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := final.Get("stack")
	if v.String() != "[1 2 3 4]" {
		t.Fatalf("stack = %v", v)
	}
}

func TestWriteSetConfigUsesBaselineDetector(t *testing.T) {
	st := exampleState()
	r := New(Config{Threads: 2, Detection: DetectWriteSet})
	_, stats, err := r.Run(st, []Task{addTask(1), addTask(2)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detector.Detections == 0 {
		t.Fatalf("write-set detector not consulted")
	}
}

func TestCacheStatsAndReset(t *testing.T) {
	st := exampleState()
	var tasks []Task
	for i := 1; i <= 6; i++ {
		tasks = append(tasks, identityTask(int64(i)))
	}
	r := New(Config{Threads: 1})
	if err := r.Train(st, tasks[:2]); err != nil {
		t.Fatal(err)
	}
	if r.CacheStats().Entries == 0 {
		t.Fatalf("training produced no cache entries")
	}
	r.ResetCacheStats()
	if s := r.CacheStats(); s.Lookups != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
}

func TestDisableAbstraction(t *testing.T) {
	st := exampleState()
	abs := New(Config{})
	conc := New(Config{DisableAbstraction: true})
	// Three tasks whose identity sequences have different lengths (1, 2,
	// and 3 add/sub pairs): under abstraction all collapse to one
	// pattern, so the three trained pairs share a single cache entry;
	// without it each length combination is a separate entry.
	repeated := func(n int) Task {
		return func(ex Executor) error {
			for i := 1; i <= n; i++ {
				if err := identityTask(int64(i))(ex); err != nil {
					return err
				}
			}
			return nil
		}
	}
	payload := []Task{repeated(1), repeated(2), repeated(3)}
	for _, r := range []*Runner{abs, conc} {
		if err := r.Train(st, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Both runners learned from the same payload; the abstract one has a
	// single unified identity pattern, the concrete one separates by
	// length.
	if abs.CacheStats().Entries >= conc.CacheStats().Entries {
		t.Fatalf("abstraction must unify entries: %d vs %d",
			abs.CacheStats().Entries, conc.CacheStats().Entries)
	}
}

func TestRelaxationsViaConfig(t *testing.T) {
	st := exampleState()
	scribble := func(v string) Task {
		boxed := Value(Str(v))
		return func(ex Executor) error {
			s := StrVar{L: "name"}
			if err := s.Store(ex, boxed); err != nil {
				return err
			}
			_, err := s.Load(ex)
			return err
		}
	}
	tasks := []Task{scribble("a"), scribble("b"), scribble("c"), scribble("d")}
	r := New(Config{
		Threads: 4,
		Relax:   NewRelaxations(nil, []Loc{"name"}),
	})
	_, stats, err := r.Run(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Run.Retries != 0 {
		t.Fatalf("WAW-relaxed scratch writes must not retry, got %d", stats.Run.Retries)
	}
}

func TestMaxRetriesSurfaceInConfig(t *testing.T) {
	st := exampleState()
	r := New(Config{Threads: 1, MaxRetries: 2})
	if _, _, err := r.Run(st, []Task{addTask(1)}); err != nil {
		t.Fatalf("single task cannot exceed retries: %v", err)
	}
}

func TestDetectionString(t *testing.T) {
	if DetectSequence.String() != "sequence" || DetectWriteSet.String() != "write-set" {
		t.Errorf("detection strings wrong")
	}
}

func TestSequentialDoesNotMutateInput(t *testing.T) {
	st := exampleState()
	if _, err := Sequential(st, []Task{addTask(5)}); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get("work"); v.String() != "0" {
		t.Fatalf("input state mutated: %v", v)
	}
}

func TestLearnOnlineRunnerConverges(t *testing.T) {
	st := exampleState()
	var tasks []Task
	for i := 1; i <= 12; i++ {
		n := int64(i)
		tasks = append(tasks, func(ex Executor) error {
			c := Counter{L: "work"}
			if err := c.Add(ex, n); err != nil {
				return err
			}
			// Yield so transactions overlap even on a single-core host,
			// forcing real conflict queries.
			time.Sleep(200 * time.Microsecond)
			return c.Sub(ex, n)
		})
	}
	// No Train call at all: the runner learns conditions at runtime.
	r := New(Config{Threads: 4, LearnOnline: true})
	final, stats, err := r.Run(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := final.Get("work"); v.String() != "0" {
		t.Fatalf("work = %v", v)
	}
	if stats.Run.Retries != 0 {
		t.Fatalf("online learning must admit identity pairs immediately, got %d retries", stats.Run.Retries)
	}
	if stats.Detector.PairQueries > 0 && r.CacheStats().Entries == 0 {
		t.Fatalf("online learning must populate the cache (queries=%d)", stats.Detector.PairQueries)
	}
}

// TestCommitOrderRuleOrderedEqualsSequential: tasks that store a string
// and read it back are admitted in commit order whatever they stored, and
// an ordered run reaches the sequential state.
func TestCommitOrderRuleOrderedEqualsSequential(t *testing.T) {
	st := exampleState()
	scribble := func(v string) Task {
		boxed := Value(Str(v))
		return func(ex Executor) error {
			s := StrVar{L: "name"}
			if err := s.Store(ex, boxed); err != nil {
				return err
			}
			_, err := s.Load(ex)
			return err
		}
	}
	tasks := []Task{scribble("a"), scribble("b"), scribble("c"), scribble("d")}
	want, err := Sequential(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	r := New(Config{Threads: 4})
	final, stats, err := r.RunInOrder(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Run.Retries != 0 {
		t.Fatalf("the commit-order rule must suppress the WAW aborts, got %d retries", stats.Run.Retries)
	}
	if !final.Equal(want) {
		t.Fatalf("ordered run must equal the sequential state:\ngot  %s\nwant %s", final, want)
	}
}

// TestCommitOrderRuleUnorderedIsSerial: unordered, the same tasks end in
// one task's store, and every task reads back its own.
func TestCommitOrderRuleUnorderedIsSerial(t *testing.T) {
	st := exampleState()
	scribble := func(v string) Task {
		boxed := Value(Str(v))
		return func(ex Executor) error {
			s := StrVar{L: "name"}
			if err := s.Store(ex, boxed); err != nil {
				return err
			}
			got, err := s.Load(ex)
			if err != nil {
				return err
			}
			if got != v {
				t.Errorf("task read %q after storing %q", got, v)
			}
			return nil
		}
	}
	vals := []string{"a", "b", "c", "d", "e"}
	var tasks []Task
	for _, v := range vals {
		tasks = append(tasks, scribble(v))
	}
	r := New(Config{Threads: 4})
	final, _, err := r.Run(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := final.Get("name")
	ok := false
	for _, v := range vals {
		if got.String() == v {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("final name %v is not any task's store", got)
	}
}

// TestCommitOrderRuleRemoveOfAbsentReads: a remove that finds its key
// absent reads the key (Table 3), and the commit installs it as a read, so
// the commit-order rule must not admit it past a committed put of that key
// as if it were a blind store. Task 2 removes k and then lets task 1 put
// it; in order, task 1 commits first and task 2 must retry.
func TestCommitOrderRuleRemoveOfAbsentReads(t *testing.T) {
	st := NewState()
	InitKVMap(st, "m")
	ready := make(chan struct{})
	var once sync.Once
	tasks := []Task{
		func(ex Executor) error {
			<-ready
			return KVMap{L: "m"}.Put(ex, "k", "v")
		},
		func(ex Executor) error {
			err := KVMap{L: "m"}.Remove(ex, "k")
			once.Do(func() { close(ready) })
			return err
		},
	}
	// The sequential order puts k and then removes it.
	want := NewState()
	InitKVMap(want, "m")
	final, stats, err := New(Config{Threads: 2}).RunInOrder(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Equal(want) {
		t.Fatalf("final %s, sequential %s (%d retries)", final, want, stats.Run.Retries)
	}
}

func TestSpecSaveLoadAcrossRunners(t *testing.T) {
	st := exampleState()
	var tasks []Task
	for i := 1; i <= 8; i++ {
		tasks = append(tasks, identityTask(int64(i)))
	}
	trainer := New(Config{})
	if err := trainer.Train(st, tasks[:3]); err != nil {
		t.Fatal(err)
	}
	var spec bytes.Buffer
	if err := trainer.SaveSpec(&spec); err != nil {
		t.Fatal(err)
	}
	// A fresh production runner loads the shipped spec instead of
	// training.
	prod := New(Config{Threads: 4})
	if err := prod.LoadSpec(bytes.NewReader(spec.Bytes())); err != nil {
		t.Fatal(err)
	}
	if prod.CacheStats().Entries == 0 {
		t.Fatalf("loaded spec is empty")
	}
	final, stats, err := prod.Run(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := final.Get("work"); v.String() != "0" {
		t.Fatalf("work = %v", v)
	}
	if stats.Run.Retries != 0 {
		t.Fatalf("loaded spec must admit identity pairs, got %d retries", stats.Run.Retries)
	}
	// Mode mismatch is rejected.
	other := New(Config{DisableAbstraction: true})
	if err := other.LoadSpec(bytes.NewReader(spec.Bytes())); err == nil {
		t.Fatalf("abstraction-mode mismatch must be rejected")
	}
}

// TestLenientLoadRejectsStrippedEnvelope: a trained spec stripped of its
// header (the magic and the format byte) must not load under either
// policy — the lenient one degrades the runner to write-set detection.
func TestLenientLoadRejectsStrippedEnvelope(t *testing.T) {
	stripped := trainedSpec(t)[9:]
	var fe *FrameError
	if err := New(Config{}).LoadSpec(bytes.NewReader(stripped)); !errors.As(err, &fe) || fe.Reason != fsio.BadMagic {
		t.Fatalf("strict load of a stripped spec = %v, want *FrameError (%s)", err, fsio.BadMagic)
	}
	r := New(Config{Threads: 2})
	if err := r.LoadSpecPolicy(bytes.NewReader(stripped), SpecLenient); err != nil {
		t.Fatalf("lenient load failed the call: %v", err)
	}
	if !r.SpecRejected() || r.CacheStats().Entries != 0 {
		t.Fatalf("stripped spec loaded: rejected=%v entries=%d", r.SpecRejected(), r.CacheStats().Entries)
	}
	_, stats, err := r.Run(exampleState(), []Task{identityTask(1), identityTask(2)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detector.PairQueries != 0 {
		t.Fatalf("degraded runner still ran the sequence detector: %+v", stats.Detector)
	}
}

func TestInitCustomADT(t *testing.T) {
	st := NewState()
	spec := CustomSpec{Columns: []string{"host", "port", "status"}, Domain: []string{"host", "port"}}
	obj, err := InitCustom(st, "endpoints", spec)
	if err != nil {
		t.Fatal(err)
	}
	task := func(status string) Task {
		return func(ex Executor) error {
			if err := obj.Put(ex, Tuple{"host": "db", "port": "5432", "status": status}); err != nil {
				return err
			}
			_, _, err := obj.Get(ex, Tuple{"host": "db", "port": "5432"})
			return err
		}
	}
	tasks := []Task{task("up"), task("up"), task("up"), task("up")}
	r := New(Config{Threads: 4})
	if err := r.Train(st, tasks[:2]); err != nil {
		t.Fatal(err)
	}
	final, stats, err := r.Run(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Run.Retries != 0 {
		t.Fatalf("equal-writes custom ADT must not retry, got %d", stats.Run.Retries)
	}
	seqFinal, err := Sequential(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Equal(seqFinal) {
		t.Fatalf("custom ADT run diverged from sequential")
	}
	if _, err := InitCustom(st, "bad", CustomSpec{}); err == nil {
		t.Fatalf("invalid spec must be rejected")
	}
}

// TestCustomADTRecordsAndReplays: a custom ADT's handle issues the
// built-in relational ops, so a recorded run over one is lossless and its
// sequential replay, checking every observed value, reproduces the final
// state's digest.
func TestCustomADTRecordsAndReplays(t *testing.T) {
	st := NewState()
	spec := CustomSpec{Columns: []string{"src", "dst", "cost"}, Domain: []string{"src", "dst"}}
	obj, err := InitCustom(st, "routes", spec)
	if err != nil {
		t.Fatal(err)
	}
	var tasks []Task
	for i := 0; i < 24; i++ {
		tasks = append(tasks, func(ex Executor) error {
			k := Tuple{"src": fmt.Sprint(i % 3), "dst": "d,=" + fmt.Sprint(i%4)}
			if _, _, err := obj.Get(ex, k); err != nil {
				return err
			}
			if i%5 == 4 {
				return obj.Delete(ex, k)
			}
			k["cost"] = fmt.Sprint(i)
			return obj.Put(ex, k)
		})
	}
	r := rec.New(rec.Meta{Workload: "custom", Threads: 4, Tasks: len(tasks)}, st, rec.Options{})
	final, _, err := New(Config{Threads: 4, Record: r}).Run(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	r.Close(rec.Digest(final))
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := rec.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Lossy {
		t.Fatalf("a custom-ADT trace is lossy: %s", tr.LossyDetail)
	}
	if tr.DigestKind != rec.DigestFinal || tr.Digest != rec.Digest(final) {
		t.Fatalf("recorded digest %s %016x, final state's %016x", tr.DigestKind, tr.Digest, rec.Digest(final))
	}
	replayed, _, err := tr.VerifySequential(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Digest(replayed); got != tr.Digest {
		t.Fatalf("sequential replay digest %016x, recorded %016x", got, tr.Digest)
	}
}

// TestTracedRunFillsTrace runs a contended parallel workload with a
// Trace attached and checks the end-to-end observability path: the
// caller reads the events from its own trace, task spans are attributed
// to workers, aborts carry a reason and location, the abort-reason
// breakdown in stm.Stats agrees with the trace, and the Chrome exporter
// accepts it.
func TestTracedRunFillsTrace(t *testing.T) {
	st := exampleState()
	var tasks []Task
	for i := 1; i <= 32; i++ {
		tasks = append(tasks, addTask(int64(i)))
	}
	tr := NewTrace(0)
	r := New(Config{Threads: 4, Detection: DetectWriteSet, Trace: tr})
	_, stats, err := r.Run(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("traced run left its trace empty")
	}
	var taskSpans, aborts int64
	for _, e := range events {
		switch e.Type {
		case obs.EvTask:
			taskSpans++
			if e.Worker < 0 || e.Dur <= 0 {
				t.Fatalf("task span missing attribution: %+v", e)
			}
		case obs.EvTxAbort:
			aborts++
			if e.Reason == "" || e.Loc == "" {
				t.Fatalf("abort without reason/location: %+v", e)
			}
		}
	}
	if taskSpans != int64(stats.Run.Commits) {
		t.Fatalf("task spans = %d, commits = %d", taskSpans, stats.Run.Commits)
	}
	var reasonTotal int64
	for _, n := range stats.Run.AbortReasons {
		reasonTotal += n
	}
	if reasonTotal != stats.Run.Conflicts {
		t.Fatalf("abort reasons sum to %d, conflicts = %d", reasonTotal, stats.Run.Conflicts)
	}
	if aborts != stats.Run.Conflicts {
		t.Fatalf("abort events = %d, conflicts = %d", aborts, stats.Run.Conflicts)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty Chrome trace")
	}
}

func TestRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := New(Config{Detection: DetectWriteSet})
	_, _, err := r.RunCtx(ctx, exampleState(), []Task{addTask(1), addTask(2)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_, _, err = r.RunInOrderCtx(ctx, exampleState(), []Task{addTask(1)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ordered err = %v, want context.Canceled", err)
	}
	// An unexpired context runs to completion.
	live, liveCancel := context.WithTimeout(context.Background(), time.Minute)
	defer liveCancel()
	final, stats, err := r.RunCtx(live, exampleState(), []Task{addTask(1), addTask(2)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Run.Commits != 2 {
		t.Fatalf("commits = %d, want 2", stats.Run.Commits)
	}
	if v, _ := final.Get("work"); v.String() != "3" {
		t.Fatalf("work = %v, want 3", v)
	}
}

func TestPanicSurfacesAsError(t *testing.T) {
	r := New(Config{Detection: DetectWriteSet})
	_, _, err := r.Run(exampleState(), []Task{
		addTask(1),
		func(Executor) error { panic("client bug") },
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Task != 2 || pe.Value != "client bug" {
		t.Fatalf("PanicError = %+v", pe)
	}
}
