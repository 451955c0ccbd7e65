// Package health closes the feedback loop the paper's §5.3 projection
// leaves open: sequence-based detection is only profitable while the
// trained commutativity cache keeps answering. Under a miss storm (inputs
// the training runs never covered, a rejected spec artifact, injected
// faults) every query burns a fallback write-set check ON TOP of the
// sequence machinery, and under pathological contention the run churns
// through abort/retry cycles regardless of which detector it asks. The
// Governor watches run-scope rates over sliding windows and degrades the
// runtime gracefully instead of letting it silently thrash — the same
// adaptive-mode idea feedback-directed STM contention managers use
// (cf. Herlihy et al.'s polite/karma managers), applied to detector
// selection.
//
// The state machine has three states with hysteresis:
//
//	healthy  — every detection goes through the primary (sequence)
//	           detector. Window rates above the demotion thresholds
//	           (cache miss+fallback ratio, aborts per detection) demote.
//	degraded — detections are answered by the cheap write-set fallback;
//	           the sequence machinery is bypassed entirely. Periodic
//	           promotion probes route a single detection through the
//	           primary to sample whether the cache is answering again;
//	           enough consecutive clean probes restore healthy. Windows
//	           whose abort rate stays above the trip threshold trip.
//	tripped  — the runtime executes transactions serially (irrevocable,
//	           no validation) via stm's escalation path; after a budget
//	           of serial commits the governor drops back to degraded and
//	           probing resumes.
//
// Demotion thresholds are deliberately higher than restoration ones
// (demote at ≥ DemoteMissRate, restore only when probes observe
// ≤ RestoreMissRate < DemoteMissRate), so the governor cannot oscillate
// on a rate hovering at one boundary.
//
// Both detectors the governor multiplexes are sound, and the serial path
// is trivially serializable, so every transition preserves the Theorem
// 4.1 guarantees: the governor trades throughput for robustness, never
// correctness — the chaos soak tests assert exactly that.
package health

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conflict"
	"repro/internal/obs"
	"repro/internal/state"
)

// State is the governor's operating mode.
type State int32

// Governor states, in degradation order.
const (
	// Healthy routes every detection through the primary detector.
	Healthy State = iota
	// Degraded routes detections through the write-set fallback, with
	// periodic promotion probes of the primary.
	Degraded
	// Tripped forces serial (irrevocable) execution; no validation runs
	// at all until the serial-commit budget drains.
	Tripped
)

// String renders the state as it appears in stats and reports.
func (s State) String() string {
	switch s {
	case Degraded:
		return "degraded"
	case Tripped:
		return "tripped"
	default:
		return "healthy"
	}
}

// Config tunes the governor. The zero value selects the defaults noted
// per field; every threshold is a rate in [0, 1].
type Config struct {
	// Window is the number of detections per evaluation window
	// (default 32). Rates are computed when a window fills.
	Window int
	// DemoteMissRate demotes healthy→degraded when a window's cache
	// fallback ratio (fallbacks / pair queries) reaches it (default 0.5).
	DemoteMissRate float64
	// DemoteAbortRate demotes healthy→degraded when a window's abort
	// ratio (conflicts / detections) reaches it (default 0.75).
	DemoteAbortRate float64
	// TripAbortRate counts a degraded window as bad when its abort ratio
	// reaches it (default 0.9); TripWindows consecutive bad windows trip
	// degraded→tripped (default 2).
	TripAbortRate float64
	TripWindows   int
	// ProbeEvery is the number of degraded-mode detections between
	// promotion probes (default 16).
	ProbeEvery int
	// RestoreMissRate is the probe fallback-ratio ceiling for a probe to
	// count as clean (default 0.25; must stay below DemoteMissRate for
	// hysteresis). RestoreProbes consecutive clean probes restore
	// degraded→healthy (default 2).
	RestoreMissRate float64
	RestoreProbes   int
	// RecoverCommits is the serial-commit budget of the tripped state:
	// after this many commits the governor drops back to degraded and
	// probing resumes (default 32).
	RecoverCommits int
	// Tracer receives governor.demote / governor.probe /
	// governor.restore events when non-nil.
	Tracer obs.Tracer
	// OnTransition runs on every state change with the old state, the
	// new state, and the same detail string the governor event carries —
	// the incident hook the flight recorder (internal/rec) uses to dump a
	// trace on demotion or trip. It is called with the governor's
	// transition lock held: implementations must return promptly and must
	// not call back into the governor.
	OnTransition func(from, to State, detail string)
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.DemoteMissRate <= 0 {
		c.DemoteMissRate = 0.5
	}
	if c.DemoteAbortRate <= 0 {
		c.DemoteAbortRate = 0.75
	}
	if c.TripAbortRate <= 0 {
		c.TripAbortRate = 0.9
	}
	if c.TripWindows <= 0 {
		c.TripWindows = 2
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 16
	}
	if c.RestoreMissRate <= 0 {
		c.RestoreMissRate = 0.25
	}
	if c.RestoreMissRate >= c.DemoteMissRate {
		// Enforce the documented hysteresis invariant: a probe must be
		// judged by a stricter ceiling than the rate that demoted, or the
		// governor oscillates between healthy and degraded.
		c.RestoreMissRate = c.DemoteMissRate / 2
	}
	if c.RestoreProbes <= 0 {
		c.RestoreProbes = 2
	}
	if c.RecoverCommits <= 0 {
		c.RecoverCommits = 32
	}
	return c
}

// Stats is a snapshot of the governor's counters and last-window rates.
type Stats struct {
	// State is the current operating mode.
	State string `json:"state"`
	// Demotions counts healthy→degraded transitions, Trips
	// degraded→tripped, Probes promotion probes attempted, Restores
	// promotions (tripped→degraded and degraded→healthy both count).
	Demotions int64 `json:"demotions"`
	Trips     int64 `json:"trips"`
	Probes    int64 `json:"probes"`
	Restores  int64 `json:"restores"`
	// Windows counts completed evaluation windows; LastAbortRate and
	// LastMissRate are the most recent completed window's rates (miss
	// rate is NaN-free: -1 when the window made no pair queries).
	Windows       int64   `json:"windows"`
	LastAbortRate float64 `json:"last_abort_rate"`
	LastMissRate  float64 `json:"last_miss_rate"`
	// Detections counts every detection the governor answered;
	// FallbackDetections the subset answered by the write-set fallback.
	Detections         int64 `json:"detections"`
	FallbackDetections int64 `json:"fallback_detections"`
	// Protocol-side signals observed via the stm hook points.
	CommitWaits  int64 `json:"commit_waits"`
	CommitWaitNs int64 `json:"commit_wait_ns"`
	BackoffWaits int64 `json:"backoff_waits"`
	BackoffNs    int64 `json:"backoff_ns"`
	Escalations  int64 `json:"escalations"`
}

// Governor multiplexes a primary (sequence) detector and a write-set
// fallback behind the conflict.Detector interface, driving the
// healthy/degraded/tripped state machine from sliding-window rates. It
// also implements the stm runtime's Governor hook (SerialOnly plus the
// Observe* signal sinks), so one value closes the whole loop. All methods
// are safe for concurrent use.
type Governor struct {
	cfg      Config
	primary  conflict.Detector
	fallback conflict.Detector
	// seq is the primary when it is a sequence detector — the source of
	// the cache fallback-ratio signal; nil otherwise (miss-rate signals
	// then stay silent and only abort rates drive transitions).
	seq *conflict.Sequence

	state atomic.Int32

	detections   atomic.Int64
	fallbackDets atomic.Int64

	// Window accumulation. winDet triggers rollover when it reaches
	// cfg.Window; winAborts is swapped out at the boundary. Counts
	// straddling a rollover may land in either window — the rates steer
	// a controller, they are not ledgers.
	winDet    atomic.Int64
	winAborts atomic.Int64

	// mu serializes state transitions and window rollovers.
	mu           sync.Mutex
	winFallbacks int64 // primary fallback count at window start
	winQueries   int64 // primary pair-query count at window start
	badWindows   int   // consecutive degraded windows ≥ TripAbortRate
	cleanProbes  int   // consecutive clean promotion probes

	// probeGate admits one promotion probe at a time, so the primary's
	// stats delta across the probe is attributable to it (in degraded
	// mode nothing else touches the primary).
	probeGate  atomic.Int32
	sinceProbe atomic.Int64

	serialCommits atomic.Int64 // commits observed while tripped

	demotions atomic.Int64
	trips     atomic.Int64
	probes    atomic.Int64
	restores  atomic.Int64
	windows   atomic.Int64
	lastAbort atomic.Uint64 // float64 bits
	lastMiss  atomic.Uint64 // float64 bits

	commitWaits  atomic.Int64
	commitWaitNs atomic.Int64
	backoffWaits atomic.Int64
	backoffNs    atomic.Int64
	escalations  atomic.Int64
}

// NewGovernor builds a governor over the given primary detector and
// write-set fallback. fallback may be nil, in which case a fresh
// conflict.WriteSet is used.
func NewGovernor(primary conflict.Detector, fallback conflict.Detector, cfg Config) *Governor {
	if fallback == nil {
		fallback = conflict.NewWriteSet()
	}
	g := &Governor{cfg: cfg.withDefaults(), primary: primary, fallback: fallback}
	g.seq, _ = primary.(*conflict.Sequence)
	g.lastMiss.Store(math.Float64bits(-1))
	return g
}

// State returns the current operating mode.
func (g *Governor) State() State { return State(g.state.Load()) }

// Primary returns the wrapped primary detector (stats reporting).
func (g *Governor) Primary() conflict.Detector { return g.primary }

// Fallback returns the wrapped fallback detector.
func (g *Governor) Fallback() conflict.Detector { return g.fallback }

// Name implements conflict.Detector.
func (g *Governor) Name() string { return "governed-" + g.primary.Name() }

// DetectPrepared implements conflict.Detector: healthy detections go to
// the primary, degraded ones to the fallback (except promotion probes),
// and the verdict feeds the window accounting that drives transitions.
// Tripped transactions run serially and never validate, so a detection
// arriving while tripped (a straggler that raced the trip) is answered
// by the fallback.
func (g *Governor) DetectPrepared(ctx obs.Ctx, snapshot *state.State, txn *conflict.Prepared, committed []*conflict.Prepared) conflict.Verdict {
	return g.govern(func(d conflict.Detector) conflict.Verdict {
		return d.DetectPrepared(ctx, snapshot, txn, committed)
	})
}

// govern runs one detection through the state machine: route is invoked
// with whichever detector the current state selects, and the verdict
// feeds the window accounting that drives transitions.
func (g *Governor) govern(route func(conflict.Detector) conflict.Verdict) conflict.Verdict {
	g.detections.Add(1)
	var v conflict.Verdict
	switch g.State() {
	case Healthy:
		v = route(g.primary)
	case Degraded:
		if g.sinceProbe.Add(1)%int64(g.cfg.ProbeEvery) == 0 {
			v = g.probe(route)
		} else {
			g.fallbackDets.Add(1)
			v = route(g.fallback)
		}
	default: // Tripped
		g.fallbackDets.Add(1)
		v = route(g.fallback)
	}
	if v.Conflict {
		g.winAborts.Add(1)
	}
	if g.winDet.Add(1)%int64(g.cfg.Window) == 0 {
		g.rollWindow()
	}
	return v
}

// probe routes one degraded detection through the primary and classifies
// the outcome by the primary's fallback-ratio delta across the call. The
// gate guarantees at most one probe is in flight, so the delta is
// attributable; detections that lose the gate race fall back normally.
func (g *Governor) probe(route func(conflict.Detector) conflict.Verdict) conflict.Verdict {
	if !g.probeGate.CompareAndSwap(0, 1) {
		g.fallbackDets.Add(1)
		return route(g.fallback)
	}
	defer g.probeGate.Store(0)
	var before conflict.Stats
	if g.seq != nil {
		before = g.seq.Stats()
	}
	v := route(g.primary)
	g.probes.Add(1)
	verdict, informative := true, false
	if g.seq != nil {
		after := g.seq.Stats()
		dq := after.PairQueries - before.PairQueries
		df := after.Fallbacks - before.Fallbacks
		if dq > 0 {
			informative = true
			verdict = float64(df)/float64(dq) <= g.cfg.RestoreMissRate
		}
	}
	// A probe whose detection made no pair queries (empty history,
	// disjoint footprints) learned nothing about the cache; it neither
	// extends nor resets the clean streak.
	if informative {
		g.mu.Lock()
		if g.State() == Degraded {
			if verdict {
				g.cleanProbes++
				if g.cleanProbes >= g.cfg.RestoreProbes {
					g.transitionLocked(Healthy, fmt.Sprintf("degraded→healthy after %d clean probes", g.cleanProbes))
				}
			} else {
				g.cleanProbes = 0
			}
		}
		g.mu.Unlock()
	}
	g.event(obs.EvGovProbe, probeDetail(informative, verdict))
	return v
}

func probeDetail(informative, clean bool) string {
	switch {
	case !informative:
		return "uninformative"
	case clean:
		return "clean"
	default:
		return "dirty"
	}
}

// rollWindow closes one evaluation window: compute its rates, record
// them, and apply the demotion/trip rules for the current state.
func (g *Governor) rollWindow() {
	g.mu.Lock()
	defer g.mu.Unlock()
	aborts := g.winAborts.Swap(0)
	abortRate := float64(aborts) / float64(g.cfg.Window)
	missRate := -1.0
	if g.seq != nil {
		s := g.seq.Stats()
		dq := s.PairQueries - g.winQueries
		df := s.Fallbacks - g.winFallbacks
		g.winQueries, g.winFallbacks = s.PairQueries, s.Fallbacks
		if dq > 0 {
			missRate = float64(df) / float64(dq)
		}
	}
	g.windows.Add(1)
	g.lastAbort.Store(math.Float64bits(abortRate))
	g.lastMiss.Store(math.Float64bits(missRate))
	switch g.State() {
	case Healthy:
		if missRate >= g.cfg.DemoteMissRate || abortRate >= g.cfg.DemoteAbortRate {
			g.transitionLocked(Degraded, fmt.Sprintf("healthy→degraded miss=%.2f abort=%.2f", missRate, abortRate))
		}
	case Degraded:
		if abortRate >= g.cfg.TripAbortRate {
			g.badWindows++
			if g.badWindows >= g.cfg.TripWindows {
				g.transitionLocked(Tripped, fmt.Sprintf("degraded→tripped abort=%.2f over %d windows", abortRate, g.badWindows))
			}
		} else {
			g.badWindows = 0
		}
	}
}

// transitionLocked performs a state change (g.mu held), resetting the
// per-state bookkeeping and emitting the matching governor event.
func (g *Governor) transitionLocked(to State, detail string) {
	from := g.State()
	if from == to {
		return
	}
	g.state.Store(int32(to))
	g.badWindows, g.cleanProbes = 0, 0
	g.serialCommits.Store(0)
	var ev obs.EventType
	switch {
	case to > from:
		ev = obs.EvGovDemote
		if to == Tripped {
			g.trips.Add(1)
		} else {
			g.demotions.Add(1)
		}
	default:
		ev = obs.EvGovRestore
		g.restores.Add(1)
	}
	g.event(ev, detail)
	if g.cfg.OnTransition != nil {
		g.cfg.OnTransition(from, to, detail)
	}
}

// event emits a governor event on lane -1 (untracked — transitions are
// run-scoped, not attributable to one worker).
func (g *Governor) event(t obs.EventType, detail string) {
	if g.cfg.Tracer == nil {
		return
	}
	g.cfg.Tracer.Emit(obs.Event{Type: t, When: g.cfg.Tracer.Now(), Worker: -1, Detail: detail})
}

// --- stm.Governor hook ---

// SerialOnly reports whether the run is tripped: the stm runtime then
// escalates every transaction to irrevocable serial execution.
func (g *Governor) SerialOnly() bool { return g.State() == Tripped }

// ObserveCommit records one committed transaction. Under the striped
// commit path footprint-disjoint transactions publish concurrently, so
// calls arrive from many workers at once with no external ordering; the
// atomic counter and the state re-check under g.mu keep the budget exact
// regardless. While tripped, it drains the serial-commit budget; once
// RecoverCommits commits land the governor drops back to degraded and
// probing resumes.
func (g *Governor) ObserveCommit() {
	if g.State() != Tripped {
		return
	}
	if g.serialCommits.Add(1) < int64(g.cfg.RecoverCommits) {
		return
	}
	g.mu.Lock()
	if g.State() == Tripped {
		g.transitionLocked(Degraded, fmt.Sprintf("tripped→degraded after %d serial commits", g.cfg.RecoverCommits))
	}
	g.mu.Unlock()
}

// ObserveCommitWait records time spent waiting for a commit turn or for
// history backpressure to clear.
func (g *Governor) ObserveCommitWait(d time.Duration) {
	g.commitWaits.Add(1)
	g.commitWaitNs.Add(int64(d))
}

// ObserveBackoff records one contention-management backoff sleep.
func (g *Governor) ObserveBackoff(d time.Duration) {
	g.backoffWaits.Add(1)
	g.backoffNs.Add(int64(d))
}

// ObserveEscalation records one serial escalation (SerializeAfter or
// SerialOnly).
func (g *Governor) ObserveEscalation() { g.escalations.Add(1) }

// Stats snapshots the governor.
func (g *Governor) Stats() Stats {
	return Stats{
		State:              g.State().String(),
		Demotions:          g.demotions.Load(),
		Trips:              g.trips.Load(),
		Probes:             g.probes.Load(),
		Restores:           g.restores.Load(),
		Windows:            g.windows.Load(),
		LastAbortRate:      math.Float64frombits(g.lastAbort.Load()),
		LastMissRate:       math.Float64frombits(g.lastMiss.Load()),
		Detections:         g.detections.Load(),
		FallbackDetections: g.fallbackDets.Load(),
		CommitWaits:        g.commitWaits.Load(),
		CommitWaitNs:       g.commitWaitNs.Load(),
		BackoffWaits:       g.backoffWaits.Load(),
		BackoffNs:          g.backoffNs.Load(),
		Escalations:        g.escalations.Load(),
	}
}

// Vars renders the snapshot as an expvar-friendly map.
func (g *Governor) Vars() map[string]any {
	s := g.Stats()
	return map[string]any{
		"state":               s.State,
		"demotions":           s.Demotions,
		"trips":               s.Trips,
		"probes":              s.Probes,
		"restores":            s.Restores,
		"windows":             s.Windows,
		"last_abort_rate":     s.LastAbortRate,
		"last_miss_rate":      s.LastMissRate,
		"detections":          s.Detections,
		"fallback_detections": s.FallbackDetections,
		"commit_waits":        s.CommitWaits,
		"commit_wait_ns":      s.CommitWaitNs,
		"backoff_waits":       s.BackoffWaits,
		"backoff_ns":          s.BackoffNs,
		"escalations":         s.Escalations,
	}
}
