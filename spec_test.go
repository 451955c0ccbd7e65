package janus

import (
	"bytes"
	"errors"
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
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("LoadSpec(corrupt) = %v, want *FrameError", err)
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
	var fe *FrameError
	if errors.As(err, &fe) {
		t.Fatal("ErrSpecFrozen must not masquerade as a *FrameError")
	}
	if r.SpecRejected() {
		t.Fatal("a contract violation must not count as an artifact rejection")
	}
}
