package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/state"
	"repro/internal/stm"
)

func initialState() *state.State {
	st := state.New()
	st.Set("work", state.Int(0))
	return st
}

func identityTask(n int64) adt.Task {
	return func(ex adt.Executor) error {
		c := adt.Counter{L: "work"}
		if err := c.Add(ex, n); err != nil {
			return err
		}
		return c.Sub(ex, n)
	}
}

func TestEngineTrainAndDetect(t *testing.T) {
	e := NewEngine(Options{})
	if err := e.Train(initialState(), []adt.Task{identityTask(1), identityTask(2)}); err != nil {
		t.Fatal(err)
	}
	if e.Cache().Len() == 0 {
		t.Fatalf("training produced no entries")
	}
	if len(e.Reports()) != 1 {
		t.Fatalf("reports = %d", len(e.Reports()))
	}
	det := e.Detector()
	if det.Name() != "sequence" {
		t.Fatalf("detector = %q", det.Name())
	}
	// Detectors are independent per run: their stats do not bleed.
	det2 := e.Detector()
	if det2 == det {
		t.Fatalf("Detector must mint a fresh instance")
	}
}

func TestEngineTrainMany(t *testing.T) {
	e := NewEngine(Options{})
	payloads := [][]adt.Task{
		{identityTask(1), identityTask(2)},
		{identityTask(3), identityTask(4)},
	}
	if err := e.TrainMany(initialState(), payloads); err != nil {
		t.Fatal(err)
	}
	if len(e.Reports()) != 2 {
		t.Fatalf("reports = %d", len(e.Reports()))
	}
}

func TestEngineTrainErrorWrapsPayloadIndex(t *testing.T) {
	e := NewEngine(Options{})
	bad := func(adt.Executor) error { return errBoom }
	err := e.TrainMany(initialState(), [][]adt.Task{
		{identityTask(1)},
		{bad},
	})
	if err == nil || !strings.Contains(err.Error(), "payload 1") {
		t.Fatalf("err = %v", err)
	}
}

type boomErr struct{}

func (boomErr) Error() string { return "boom" }

var errBoom = boomErr{}

func TestEngineOptionsPropagate(t *testing.T) {
	relax := conflict.NewRelaxations([]state.Loc{"x"}, nil)
	e := NewEngine(Options{LearnOnline: true, Relax: relax})
	det := e.Detector()
	if det.Cache != e.Cache() {
		t.Fatalf("options not propagated: %+v", det)
	}
	// LearnOnline builds a learning cache, which Freeze leaves writable.
	e.Freeze()
	if det.Cache.Frozen() {
		t.Fatalf("LearnOnline not propagated: Freeze froze the learning cache")
	}
	if !det.Relax.TolerateRAW("x") {
		t.Fatalf("relaxations not propagated")
	}
}

func TestEngineSpecRoundTrip(t *testing.T) {
	src := NewEngine(Options{})
	if err := src.Train(initialState(), []adt.Task{identityTask(1), identityTask(2)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveSpec(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewEngine(Options{})
	if err := dst.LoadSpec(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Cache().Len() != src.Cache().Len() {
		t.Fatalf("loaded %d entries, want %d", dst.Cache().Len(), src.Cache().Len())
	}
	// Abstraction-mode mismatch is rejected.
	other := NewEngine(Options{DisableAbstraction: true})
	if err := other.LoadSpec(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatalf("mode mismatch must fail")
	}
}

// TestEngineEndToEnd drives the engine through the runtime: trained
// detection admits identity tasks that the baseline aborts.
func TestEngineEndToEnd(t *testing.T) {
	var tasks []adt.Task
	for i := 1; i <= 10; i++ {
		tasks = append(tasks, identityTask(int64(i)))
	}
	e := NewEngine(Options{})
	if err := e.Train(initialState(), tasks[:3]); err != nil {
		t.Fatal(err)
	}
	final, stats, err := stm.Run(stm.Config{Threads: 4, Detector: e.Detector()}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries != 0 {
		t.Fatalf("retries = %d", stats.Retries)
	}
	if v, _ := final.Get("work"); !v.EqualValue(state.Int(0)) {
		t.Fatalf("work = %v", v)
	}
}
