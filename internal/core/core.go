// Package core assembles the paper's primary contribution — sequence-based
// conflict detection via hindsight — into a single engine: offline
// training populates a commutativity specification keyed by Kleene-cross
// sequence abstractions (internal/spec), and the engine manufactures
// conflict detectors (internal/conflict) that answer per-location sequence
// queries from it, falling back to write-set detection on misses.
//
// The protocol runtime (internal/stm) and the public API (package janus)
// are both clients of this engine; so is the benchmark harness, which uses
// it to reproduce Figures 9–11.
package core

import (
	"fmt"
	"io"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/spec"
	"repro/internal/state"
)

// Options configure an Engine.
type Options struct {
	// DisableAbstraction turns off §5.2 sequence abstraction (cache keys
	// require exact shape matches) — the Figure 11 ablation knob.
	DisableAbstraction bool
	// LearnOnline proves and caches conditions for missed shape pairs at
	// runtime (online training via memoization, §5.3).
	LearnOnline bool
	// Relax is the §5.3 consistency-relaxation specification; may be nil.
	Relax *conflict.Relaxations
}

// Engine is a trained JANUS detection engine.
type Engine struct {
	opts    Options
	cache   *spec.Cache
	reports []*spec.Report
}

// NewEngine builds an untrained engine.
func NewEngine(opts Options) *Engine {
	return &Engine{opts: opts, cache: spec.New(opts.mode(), opts.LearnOnline)}
}

func (o Options) mode() spec.Mode {
	if o.DisableAbstraction {
		return spec.Concrete
	}
	return spec.Abstract
}

// Train profiles one sequential run of the payload from initial and folds
// the learned conditions into the engine's cache.
func (e *Engine) Train(initial *state.State, tasks []adt.Task) error {
	c, rep, err := spec.Train(initial, tasks, e.opts.mode())
	if err != nil {
		return fmt.Errorf("core: training: %w", err)
	}
	e.cache.Merge(c)
	e.reports = append(e.reports, rep)
	return nil
}

// TrainMany profiles several payloads (the paper's five training runs).
func (e *Engine) TrainMany(initial *state.State, payloads [][]adt.Task) error {
	for i, tasks := range payloads {
		if err := e.Train(initial, tasks); err != nil {
			return fmt.Errorf("core: payload %d: %w", i, err)
		}
	}
	return nil
}

// Detector manufactures a sequence-based detector over the trained cache.
// Each run should use a fresh detector so its statistics are per-run.
func (e *Engine) Detector() *conflict.Sequence {
	return conflict.NewSequence(e.cache, e.opts.Relax)
}

// Freeze switches the trained cache into read-only production mode:
// lookups stop taking shard locks, and further Train/LoadSpec calls fail
// or no-op (see spec.Cache.Freeze, a no-op on the learning cache
// LearnOnline builds).
func (e *Engine) Freeze() { e.cache.Freeze() }

// Cache exposes the trained commutativity specification.
func (e *Engine) Cache() *spec.Cache { return e.cache }

// SaveSpec serializes the trained commutativity specification.
func (e *Engine) SaveSpec(w io.Writer) error { return e.cache.Save(w) }

// LoadSpec merges a previously saved specification (Figure 6's deployment
// flow: train offline, ship the spec, load in production).
func (e *Engine) LoadSpec(r io.Reader) error { return e.cache.Load(r) }

// Reports returns the per-payload training summaries.
func (e *Engine) Reports() []*spec.Report { return e.reports }
