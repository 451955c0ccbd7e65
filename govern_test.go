package janus

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"runtime"
	"testing"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// trainedSpec trains a throwaway runner on identity tasks and returns the
// serialized spec artifact.
func trainedSpec(t *testing.T) []byte {
	t.Helper()
	st := exampleState()
	var tasks []Task
	for i := 1; i <= 4; i++ {
		tasks = append(tasks, identityTask(int64(i)))
	}
	r := New(Config{})
	if err := r.Train(st, tasks); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SaveSpec(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadSpecStrictRejectsCorruptArtifact(t *testing.T) {
	spec := trainedSpec(t)
	corrupted := chaos.CorruptSpec(spec, 7, 2)
	r := New(Config{})
	err := r.LoadSpec(bytes.NewReader(corrupted))
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("LoadSpec(corrupt) = %v, want *SpecError", err)
	}
	if r.SpecRejected() {
		t.Fatal("strict rejection must not mark the runner as leniently degraded")
	}
	// The pristine artifact still loads into the same runner.
	if err := r.LoadSpec(bytes.NewReader(spec)); err != nil {
		t.Fatalf("pristine spec rejected after a failed load: %v", err)
	}
}

// TestLoadSpecLenientDegradesAndRuns is the deployment-fault acceptance
// path: a bit-flipped artifact under SpecLenient does not fail the load —
// the rejection is recorded, a spec.rejected event lands on the trace, and
// the runner completes its runs correctly on write-set detection.
func TestLoadSpecLenientDegradesAndRuns(t *testing.T) {
	spec := trainedSpec(t)
	corrupted := chaos.CorruptSpec(spec, 11, 1)
	trace := NewTrace(256)
	r := New(Config{Threads: 4, Trace: trace})
	if err := r.LoadSpecPolicy(bytes.NewReader(corrupted), SpecLenient); err != nil {
		t.Fatalf("lenient load failed the call: %v", err)
	}
	if !r.SpecRejected() {
		t.Fatal("SpecRejected() = false after a lenient rejection")
	}
	rejected := 0
	for _, e := range trace.Events() {
		if e.Type == obs.EvSpecRejected {
			rejected++
		}
	}
	if rejected != 1 {
		t.Fatalf("spec.rejected events = %d, want 1", rejected)
	}
	var tasks []Task
	for i := 1; i <= 12; i++ {
		tasks = append(tasks, identityTask(int64(i)))
	}
	st := exampleState()
	final, _, err := r.Run(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := final.Get("work"); v.String() != "0" {
		t.Fatalf("degraded run: work = %v, want 0", v)
	}
}

func TestLoadSpecLenientPassesThroughNonSpecErrors(t *testing.T) {
	spec := trainedSpec(t)
	r := New(Config{})
	r.Freeze()
	err := r.LoadSpecPolicy(bytes.NewReader(spec), SpecLenient)
	if !errors.Is(err, ErrSpecFrozen) {
		t.Fatalf("lenient post-Freeze load = %v, want ErrSpecFrozen", err)
	}
	var se *SpecError
	if errors.As(err, &se) {
		t.Fatal("ErrSpecFrozen must not masquerade as a *SpecError")
	}
	if r.SpecRejected() {
		t.Fatal("a contract violation must not count as an artifact rejection")
	}
}

// TestGovernedRunPopulatesHealth: Config.Govern attaches the health
// governor and RunStats.Health carries its end-of-run snapshot; without
// Govern the field stays nil.
func TestGovernedRunPopulatesHealth(t *testing.T) {
	st := exampleState()
	var tasks []Task
	for i := 1; i <= 10; i++ {
		tasks = append(tasks, identityTask(int64(i)))
	}
	r := New(Config{Threads: 4, Govern: true})
	if err := r.Train(st, tasks[:3]); err != nil {
		t.Fatal(err)
	}
	final, stats, err := r.Run(st, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := final.Get("work"); v.String() != "0" {
		t.Fatalf("work = %v, want 0", v)
	}
	if stats.Health == nil {
		t.Fatal("RunStats.Health = nil on a governed run")
	}
	if stats.Health.State == "" {
		t.Fatal("Health.State is empty")
	}

	plain := New(Config{Threads: 4})
	if _, stats, err = plain.Run(exampleState(), tasks); err != nil {
		t.Fatal(err)
	}
	if stats.Health != nil {
		t.Fatal("RunStats.Health must be nil without Config.Govern")
	}
}

// TestGovernedUntrainedRunDemotes: an untrained governed runner under
// contention is a natural miss storm — every pair query misses — so the
// governor must demote, the transition must be visible both in
// RunStats.Health and as a governor.demote trace event, and the run must
// still be correct. Demotion needs concurrent overlap, so a few fresh
// attempts are allowed before declaring failure.
func TestGovernedUntrainedRunDemotes(t *testing.T) {
	// Yield mid-transaction so concurrent commits land inside each task's
	// window even on a loaded host — plain identity tasks finish too fast
	// to ever overlap.
	yieldingIdentity := func(n int64) Task {
		return func(ex Executor) error {
			c := Counter{L: "work"}
			if err := c.Add(ex, n); err != nil {
				return err
			}
			runtime.Gosched()
			return c.Sub(ex, n)
		}
	}
	var tasks []Task
	for i := 1; i <= 100; i++ {
		tasks = append(tasks, yieldingIdentity(int64(i)))
	}
	for attempt := 0; attempt < 10; attempt++ {
		trace := NewTrace(4096)
		r := New(Config{
			Threads: 8, Govern: true, Trace: trace, MaxRetries: 1000,
			Governor: GovernorConfig{Window: 2, DemoteAbortRate: 1.1, TripAbortRate: 1.1},
		})
		st := exampleState()
		final, stats, err := r.Run(st, tasks)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := final.Get("work"); v.String() != "0" {
			t.Fatalf("work = %v, want 0", v)
		}
		if stats.Health.Demotions == 0 {
			continue // no concurrent overlap this attempt; try again
		}
		demoteEvents := 0
		for _, e := range trace.Events() {
			if e.Type == obs.EvGovDemote {
				demoteEvents++
			}
		}
		if demoteEvents == 0 {
			t.Fatalf("governor demoted (%d) but no governor.demote event in the timeline",
				stats.Health.Demotions)
		}
		if stats.Health.State == "healthy" && stats.Health.Restores == 0 {
			t.Fatalf("inconsistent health snapshot: %+v", stats.Health)
		}
		return
	}
	t.Fatal("untrained governed runner never demoted across 10 contended runs")
}

// TestPersistentGovernorPublishedOnce: a governed runner publishes its
// governor when it builds it, not on every run — a run takes no
// process-wide lock for it, and the "janus.health" expvar does not flip to
// whichever runner ran last.
func TestPersistentGovernorPublishedOnce(t *testing.T) {
	var tasks []Task
	for i := 1; i <= 8; i++ {
		tasks = append(tasks, identityTask(int64(i)))
	}
	first := New(Config{Threads: 2, Govern: true})
	if _, _, err := first.Run(exampleState(), tasks); err != nil {
		t.Fatal(err)
	}
	if first.Governor().Stats().Detections == 0 {
		t.Fatal("the first runner's governor answered no detection; the test cannot tell the two apart")
	}
	second := New(Config{Threads: 2, Govern: true})
	second.Governor() // built, and published, here
	if _, _, err := first.Run(exampleState(), tasks); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Detections int64 `json:"detections"`
	}
	if err := json.Unmarshal([]byte(expvar.Get("janus.health").String()), &got); err != nil {
		t.Fatal(err)
	}
	if got.Detections != 0 {
		t.Fatalf("janus.health shows %d detections: a run of the first runner re-published its governor over the second's", got.Detections)
	}
}

// TestRunBoundKnobs: the public MaxTxnOps knob reaches the runtime — a
// transaction past its op budget fails the run with *OplogBudgetError.
func TestRunBoundKnobs(t *testing.T) {
	hungry := func(ex Executor) error {
		for i := 0; i < 6; i++ {
			if err := (Counter{L: "work"}).Add(ex, 1); err != nil {
				return err
			}
		}
		return nil
	}
	r := New(Config{Threads: 1, Detection: DetectWriteSet, MaxTxnOps: 3})
	_, _, err := r.Run(exampleState(), []Task{hungry})
	var be *OplogBudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *OplogBudgetError", err)
	}
	if be.Budget != 3 {
		t.Fatalf("budget = %d, want 3", be.Budget)
	}
}
