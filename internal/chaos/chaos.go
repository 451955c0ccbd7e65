// Package chaos is the fault-injection harness for the JANUS runtime: it
// manufactures the adversarial schedules and degraded conditions that
// ordinary test workloads almost never produce — forced aborts, stretched
// commit windows, commutativity-cache misses, task panics — and threads
// them through the runtime's hook points (stm.Config.Hooks,
// conflict.Sequence.ForceMiss) so the protocol's guarantees can be
// asserted *under* fault, not just in the sunny case. The serializability
// oracle is stm.RunSequential: whatever the injector does, a run that
// completes must produce a final state some serial execution could have
// produced (exactly the sequential state for order-insensitive workloads
// and for ordered mode).
//
// Every injection decision is a pure function of (seed, site, task,
// attempt) — a splitmix64 hash, not a shared PRNG — so a given seed
// injects the same faults at the same protocol points regardless of how
// the scheduler interleaves workers, runs are reproducible for debugging,
// and no injector state ever synchronizes two goroutines that the real
// runtime would not have synchronized (the injector cannot mask races
// from the race detector).
package chaos

import (
	"sync/atomic"
	"time"

	"repro/internal/adt"
	"repro/internal/stm"
)

// Config parameterizes an Injector. Probabilities are in [0, 1]; a zero
// field disables that fault class.
type Config struct {
	// Seed selects the deterministic fault pattern; two injectors with
	// equal configs make identical decisions.
	Seed int64
	// AbortProb is the per-validation-pass probability of a forced abort.
	AbortProb float64
	// AbortMaxPerTask bounds forced aborts per task so injected
	// contention cannot defeat Theorem 4.1's termination guarantee
	// (0 means 3). Attempts beyond the bound are never forced to abort.
	AbortMaxPerTask int
	// DelayProb is the probability a commit picks up an injected delay;
	// MaxDelay bounds the delay drawn (0 disables delays).
	DelayProb float64
	MaxDelay  time.Duration
	// MissProb is the probability a commutativity-cache lookup is forced
	// to miss, driving detection onto its fallback paths.
	MissProb float64
	// StormStart/StormLen configure a miss storm: ForceMiss consultations
	// numbered [StormStart, StormStart+StormLen) — counted 1-based across
	// the whole run — all miss, modelling a contiguous burst of untrained
	// inputs, each answered by the per-pair write-set fallback. StormLen 0
	// disables the storm. Unlike the other fault classes the storm is
	// temporal by construction (it targets a phase of the run, not a
	// (task, attempt) pair), so it is driven by a shared counter rather
	// than a pure hash; the counter is an atomic increment and introduces
	// no synchronization the runtime's cache-lookup path does not already
	// have.
	StormStart int64
	StormLen   int64
	// PanicProb is the per-task probability WrapPanics replaces the task
	// body with a panic.
	PanicProb float64
}

// Stats counts the faults actually injected (all fields are totals since
// New).
type Stats struct {
	ForcedAborts int64
	WindowDelays int64
	CommitDelays int64
	ForcedMisses int64
	// StormMisses is the subset of ForcedMisses injected by the
	// StormStart/StormLen window.
	StormMisses int64
	Panics      int64
}

// Injector makes seeded, deterministic fault decisions. All methods are
// safe for concurrent use; the only mutable state is the fault counters.
type Injector struct {
	cfg     Config
	aborts  atomic.Int64
	windows atomic.Int64
	commits atomic.Int64
	misses  atomic.Int64
	storm   atomic.Int64
	panics  atomic.Int64
	// lookups numbers ForceMiss consultations for the miss-storm window.
	lookups atomic.Int64
}

// New builds an injector; zero-probability fault classes stay silent.
func New(cfg Config) *Injector {
	if cfg.AbortMaxPerTask <= 0 {
		cfg.AbortMaxPerTask = 3
	}
	return &Injector{cfg: cfg}
}

// Stats snapshots the injected-fault counters.
func (i *Injector) Stats() Stats {
	return Stats{
		ForcedAborts: i.aborts.Load(),
		WindowDelays: i.windows.Load(),
		CommitDelays: i.commits.Load(),
		ForcedMisses: i.misses.Load(),
		StormMisses:  i.storm.Load(),
		Panics:       i.panics.Load(),
	}
}

// Decision-site salts: distinct streams per fault class, so enabling one
// class never perturbs another's decisions under the same seed.
const (
	siteAbort uint64 = iota + 1
	siteWindowDelay
	siteCommitDelay
	siteMiss
	sitePanic
	siteCorrupt
)

// mix64 is the splitmix64 finalizer (full avalanche).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash collapses (seed, site, task, attempt) into one uniform word.
func (i *Injector) hash(site uint64, task, attempt int) uint64 {
	return mix64(mix64(uint64(i.cfg.Seed)^site<<56) ^ uint64(task)<<20 ^ uint64(attempt))
}

// roll maps the hash to [0, 1).
func (i *Injector) roll(site uint64, task, attempt int) float64 {
	return float64(i.hash(site, task, attempt)>>11) / float64(uint64(1)<<53)
}

// ForceAbort implements stm.Hooks.ForceAbort: a seeded coin per
// (task, attempt), silenced beyond AbortMaxPerTask attempts.
func (i *Injector) ForceAbort(task, attempt int) bool {
	if i.cfg.AbortProb <= 0 || attempt > i.cfg.AbortMaxPerTask {
		return false
	}
	if i.roll(siteAbort, task, attempt) >= i.cfg.AbortProb {
		return false
	}
	i.aborts.Add(1)
	return true
}

// delay draws a deterministic duration in (0, MaxDelay] for a site that
// passed its probability roll.
func (i *Injector) delay(site uint64, task int) time.Duration {
	return 1 + time.Duration(i.hash(site, task, 1)%uint64(i.cfg.MaxDelay))
}

// WindowDelay implements stm.Hooks.WindowDelay: sleep between a
// successful validation and the commit attempt, widening the race window
// the commit-time clock re-check guards.
func (i *Injector) WindowDelay(task int) {
	if i.cfg.MaxDelay <= 0 || i.roll(siteWindowDelay, task, 0) >= i.cfg.DelayProb {
		return
	}
	i.windows.Add(1)
	time.Sleep(i.delay(siteWindowDelay, task))
}

// CommitDelay implements stm.Hooks.CommitDelay: sleep inside the commit
// critical section, stretching the serial window every other transaction
// races against.
func (i *Injector) CommitDelay(task int) {
	if i.cfg.MaxDelay <= 0 || i.roll(siteCommitDelay, task, 0) >= i.cfg.DelayProb {
		return
	}
	i.commits.Add(1)
	time.Sleep(i.delay(siteCommitDelay, task))
}

// ForceMiss implements conflict.Sequence.ForceMiss: a seeded coin per
// (task, attempt) that pretends the commutativity cache has no entry,
// driving the detector onto its write-set fallback path. A configured
// miss storm (StormStart/StormLen) overrides the coin for a contiguous
// burst of consultations.
func (i *Injector) ForceMiss(task, attempt int) bool {
	if i.cfg.StormLen > 0 {
		n := i.lookups.Add(1)
		if n >= i.cfg.StormStart && n < i.cfg.StormStart+i.cfg.StormLen {
			i.misses.Add(1)
			i.storm.Add(1)
			return true
		}
	}
	if i.cfg.MissProb <= 0 || i.roll(siteMiss, task, attempt) >= i.cfg.MissProb {
		return false
	}
	i.misses.Add(1)
	return true
}

// Hooks bundles the stm-side injection points for stm.Config.Hooks.
func (i *Injector) Hooks() *stm.Hooks {
	return &stm.Hooks{
		ForceAbort:  i.ForceAbort,
		WindowDelay: i.WindowDelay,
		CommitDelay: i.CommitDelay,
	}
}

// CorruptSpec returns a copy of a serialized spec artifact with `flips`
// deterministic single-bit flips at seeded positions past its header (the
// 8-byte magic and the format byte). Each flip lands in the spec's frame —
// its length, payload or CRC — so the file still names itself a spec and
// only the frame's checks can catch it.
func CorruptSpec(spec []byte, seed int64, flips int) []byte {
	const header = 9
	out := append([]byte(nil), spec...)
	if len(out) <= header {
		return out
	}
	for n := 0; n < flips; n++ {
		h := mix64(uint64(seed) ^ siteCorrupt<<56 ^ uint64(n)<<20)
		out[header+int(h%uint64(len(out)-header))] ^= 1 << (h >> 61)
	}
	return out
}

// WrapPanics returns a task list where each task selected by the seeded
// PanicProb coin panics when executed (every attempt — one injected panic
// is expected to fail the whole run with a *stm.PanicError). The returned
// count is how many tasks were armed.
func (i *Injector) WrapPanics(tasks []adt.Task) ([]adt.Task, int) {
	out := make([]adt.Task, len(tasks))
	armed := 0
	for idx, t := range tasks {
		if i.cfg.PanicProb > 0 && i.roll(sitePanic, idx+1, 0) < i.cfg.PanicProb {
			armed++
			out[idx] = func(adt.Executor) error {
				i.panics.Add(1)
				panic("chaos: injected task panic")
			}
		} else {
			out[idx] = t
		}
	}
	return out, armed
}
