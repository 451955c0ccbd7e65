package health

import (
	"expvar"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/cache"
	"repro/internal/commute"
	"repro/internal/conflict"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/seqabs"
	"repro/internal/state"
)

func baseState() *state.State {
	st := state.New()
	st.Set("work", state.Int(0))
	st.Set("max", state.Int(1))
	return st
}

// record executes ops on a clone of st and returns the log (mirrors the
// conflict package's test helper).
func record(t *testing.T, st *state.State, task int, ops ...oplog.Op) oplog.Log {
	t.Helper()
	work := st.Clone()
	var l oplog.Log
	for i, op := range ops {
		acc := op.Accesses(work)
		v, err := op.Apply(work)
		if err != nil {
			t.Fatalf("apply %v: %v", op, err)
		}
		l = append(l, &oplog.Event{Op: op, Task: task, Seq: i, Acc: acc, Observed: v})
	}
	return l
}

// idSyms is the abstract shape of an add/undo identity pair; a cache entry
// for (idSyms, idSyms) makes that detection a hit.
func idSyms(n string) []oplog.Sym {
	return []oplog.Sym{
		{Kind: adt.KindNumAdd, Arg: n}, {Kind: adt.KindNumAdd, Arg: "-" + n},
	}
}

// trainedCache answers the identity pair with "commutes as registers".
func trainedCache() *cache.Cache {
	c := cache.New(seqabs.Abstract)
	c.Put(idSyms("1"), idSyms("2"), commute.CondRegister)
	return c
}

// idPair returns (txn, committed) logs whose detection makes exactly one
// pair query on "work".
func idPair(t *testing.T, st *state.State) (oplog.Log, []oplog.Log) {
	t.Helper()
	id1 := record(t, st, 1, adt.NumAddOp{L: "work", Delta: 5}, adt.NumAddOp{L: "work", Delta: -5})
	id2 := record(t, st, 2, adt.NumAddOp{L: "work", Delta: 7}, adt.NumAddOp{L: "work", Delta: -7})
	return id1, []oplog.Log{id2}
}

// detect prepares both sides, as the runtime does, and runs one governed
// detection.
func detect(g *Governor, st *state.State, txn oplog.Log, committed ...oplog.Log) conflict.Verdict {
	prepC := make([]*conflict.Prepared, len(committed))
	for i, l := range committed {
		prepC[i] = conflict.Prepare(l)
	}
	return g.DetectPrepared(obs.Ctx{}, st, conflict.Prepare(txn), prepC)
}

// disjointPair returns logs over non-overlapping locations: detecting them
// makes zero pair queries, so a probe on them is uninformative.
func disjointPair(t *testing.T, st *state.State) (oplog.Log, []oplog.Log) {
	t.Helper()
	a := record(t, st, 1, adt.NumAddOp{L: "work", Delta: 1})
	b := record(t, st, 2, adt.NumAddOp{L: "max", Delta: 1})
	return a, []oplog.Log{b}
}

// recTracer records governor events.
type recTracer struct {
	mu     sync.Mutex
	events []obs.Event
	clock  atomic.Int64
}

func (r *recTracer) Emit(e obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recTracer) Now() int64 { return r.clock.Add(1) }

func (r *recTracer) count(t obs.EventType) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Type == t {
			n++
		}
	}
	return n
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Healthy: "healthy", Degraded: "degraded", Tripped: "tripped"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Window != 32 || c.DemoteMissRate != 0.5 || c.DemoteAbortRate != 0.75 ||
		c.TripAbortRate != 0.9 || c.TripWindows != 2 || c.ProbeEvery != 16 ||
		c.RestoreMissRate != 0.25 || c.RestoreProbes != 2 || c.RecoverCommits != 32 {
		t.Errorf("defaults = %+v", c)
	}
	if c.RestoreMissRate >= c.DemoteMissRate {
		t.Error("hysteresis violated: RestoreMissRate must stay below DemoteMissRate")
	}
}

// TestConfigHysteresisClamp: a config whose restore ceiling is at or above
// the demote threshold would oscillate; withDefaults must re-establish the
// documented RestoreMissRate < DemoteMissRate invariant.
func TestConfigHysteresisClamp(t *testing.T) {
	cases := []Config{
		{DemoteMissRate: 0.4, RestoreMissRate: 0.4}, // equal
		{DemoteMissRate: 0.3, RestoreMissRate: 0.9}, // inverted
		{DemoteMissRate: 0.2},                       // default restore (0.25) above demote
	}
	for _, in := range cases {
		c := in.withDefaults()
		if c.RestoreMissRate >= c.DemoteMissRate {
			t.Errorf("withDefaults(%+v): RestoreMissRate %v >= DemoteMissRate %v",
				in, c.RestoreMissRate, c.DemoteMissRate)
		}
	}
}

func TestNewGovernorNilFallback(t *testing.T) {
	g := NewGovernor(conflict.NewSequence(trainedCache(), nil), nil, Config{})
	if g.Fallback() == nil {
		t.Fatal("nil fallback was not replaced with a write-set detector")
	}
	if g.Name() != "governed-sequence" {
		t.Errorf("Name = %q", g.Name())
	}
	if g.State() != Healthy {
		t.Errorf("initial state = %v, want healthy", g.State())
	}
}

// TestDemoteOnMissRate: a window of pure cache misses (empty cache, every
// query burns a fallback) must demote healthy→degraded on the miss-rate
// threshold alone.
func TestDemoteOnMissRate(t *testing.T) {
	st := baseState()
	tr := &recTracer{}
	g := NewGovernor(conflict.NewSequence(cache.New(seqabs.Abstract), nil), nil, Config{
		Window: 4, DemoteAbortRate: 1.1, TripAbortRate: 1.1, Tracer: tr,
	})
	txn, committed := idPair(t, st)
	for i := 0; i < 4; i++ {
		detect(g, st, txn, committed...)
	}
	if g.State() != Degraded {
		t.Fatalf("state = %v after a 100%% miss window, want degraded", g.State())
	}
	s := g.Stats()
	if s.Demotions != 1 || s.Windows != 1 {
		t.Errorf("stats = %+v, want 1 demotion over 1 window", s)
	}
	if s.LastMissRate != 1.0 {
		t.Errorf("LastMissRate = %v, want 1.0", s.LastMissRate)
	}
	if tr.count(obs.EvGovDemote) != 1 {
		t.Errorf("governor.demote events = %d, want 1", tr.count(obs.EvGovDemote))
	}
}

// TestDemoteOnAbortRate: with a non-sequence primary (no miss-rate signal
// at all) a window of conflicts must still demote on the abort ratio.
func TestDemoteOnAbortRate(t *testing.T) {
	st := baseState()
	g := NewGovernor(conflict.NewWriteSet(), nil, Config{Window: 4, TripAbortRate: 1.1})
	add1 := record(t, st, 1, adt.NumAddOp{L: "work", Delta: 1})
	add2 := record(t, st, 2, adt.NumAddOp{L: "work", Delta: 1})
	for i := 0; i < 4; i++ {
		if v := detect(g, st, add1, add2); !v.Conflict {
			t.Fatal("write-write overlap must conflict")
		}
	}
	if g.State() != Degraded {
		t.Fatalf("state = %v after a 100%% abort window, want degraded", g.State())
	}
	if s := g.Stats(); s.LastAbortRate != 1.0 || s.LastMissRate != -1 {
		t.Errorf("stats = %+v, want abort rate 1.0 and silent (-1) miss rate", s)
	}
}

// TestTripAndRecover walks the full degradation ladder: abort churn
// demotes, TripWindows consecutive bad degraded windows trip, SerialOnly
// turns on, and draining the RecoverCommits budget drops back to degraded.
func TestTripAndRecover(t *testing.T) {
	st := baseState()
	tr := &recTracer{}
	g := NewGovernor(conflict.NewWriteSet(), nil, Config{
		Window: 4, TripWindows: 2, ProbeEvery: 1000, RecoverCommits: 3, Tracer: tr,
	})
	add1 := record(t, st, 1, adt.NumAddOp{L: "work", Delta: 1})
	add2 := record(t, st, 2, adt.NumAddOp{L: "work", Delta: 1})
	conflicting := func(n int) {
		for i := 0; i < n; i++ {
			detect(g, st, add1, add2)
		}
	}
	conflicting(4) // window 1: demote
	if g.State() != Degraded {
		t.Fatalf("state = %v after window 1, want degraded", g.State())
	}
	conflicting(4) // window 2: bad window 1 of 2
	if g.State() != Degraded {
		t.Fatalf("state = %v after one bad window, want still degraded (TripWindows=2)", g.State())
	}
	conflicting(4) // window 3: bad window 2 of 2 → trip
	if g.State() != Tripped {
		t.Fatalf("state = %v after two bad windows, want tripped", g.State())
	}
	if !g.SerialOnly() {
		t.Fatal("SerialOnly() = false while tripped")
	}
	for i := 0; i < 3; i++ {
		g.ObserveCommit()
	}
	if g.State() != Degraded {
		t.Fatalf("state = %v after draining the serial budget, want degraded", g.State())
	}
	if g.SerialOnly() {
		t.Fatal("SerialOnly() = true after recovery")
	}
	s := g.Stats()
	if s.Demotions != 1 || s.Trips != 1 || s.Restores != 1 {
		t.Errorf("stats = %+v, want 1 demotion, 1 trip, 1 restore", s)
	}
	if tr.count(obs.EvGovDemote) != 2 { // healthy→degraded and degraded→tripped
		t.Errorf("governor.demote events = %d, want 2", tr.count(obs.EvGovDemote))
	}
	if tr.count(obs.EvGovRestore) != 1 {
		t.Errorf("governor.restore events = %d, want 1", tr.count(obs.EvGovRestore))
	}
}

// TestProbeRestores: once demoted by a (switchable) miss storm, promotion
// probes that observe the cache answering again must restore healthy after
// RestoreProbes consecutive clean probes.
func TestProbeRestores(t *testing.T) {
	st := baseState()
	tr := &recTracer{}
	var storm atomic.Bool
	storm.Store(true)
	primary := conflict.NewSequence(trainedCache(), nil)
	primary.ForceMiss = func(task, attempt int) bool { return storm.Load() }
	g := NewGovernor(primary, nil, Config{
		Window: 2, DemoteAbortRate: 1.1, TripAbortRate: 1.1,
		ProbeEvery: 2, RestoreProbes: 2, Tracer: tr,
	})
	txn, committed := idPair(t, st)
	detect(g, st, txn, committed...)
	detect(g, st, txn, committed...)
	if g.State() != Degraded {
		t.Fatalf("state = %v after the storm window, want degraded", g.State())
	}
	storm.Store(false) // cache answers again; probes should notice
	for i := 0; i < 8 && g.State() != Healthy; i++ {
		detect(g, st, txn, committed...)
	}
	if g.State() != Healthy {
		t.Fatalf("state = %v after clean probes, want healthy", g.State())
	}
	s := g.Stats()
	if s.Probes < 2 {
		t.Errorf("Probes = %d, want ≥ 2", s.Probes)
	}
	if s.Restores != 1 {
		t.Errorf("Restores = %d, want 1", s.Restores)
	}
	if s.FallbackDetections == 0 {
		t.Error("no detections were answered by the fallback while degraded")
	}
	if tr.count(obs.EvGovProbe) != int(s.Probes) {
		t.Errorf("governor.probe events = %d, want %d", tr.count(obs.EvGovProbe), s.Probes)
	}
	if tr.count(obs.EvGovRestore) != 1 {
		t.Errorf("governor.restore events = %d, want 1", tr.count(obs.EvGovRestore))
	}
}

// TestProbeUninformativeKeepsStreak: a probe whose detection makes no pair
// queries learns nothing about the cache and must neither extend nor reset
// the clean-probe streak: clean, uninformative, clean still restores with
// RestoreProbes=2.
func TestProbeUninformativeKeepsStreak(t *testing.T) {
	st := baseState()
	var storm atomic.Bool
	storm.Store(true)
	primary := conflict.NewSequence(trainedCache(), nil)
	primary.ForceMiss = func(task, attempt int) bool { return storm.Load() }
	g := NewGovernor(primary, nil, Config{
		Window: 2, DemoteAbortRate: 1.1, TripAbortRate: 1.1,
		ProbeEvery: 1, RestoreProbes: 2,
	})
	txn, committed := idPair(t, st)
	noTxn, noCommitted := disjointPair(t, st)
	detect(g, st, txn, committed...)
	detect(g, st, txn, committed...)
	if g.State() != Degraded {
		t.Fatalf("state = %v after the storm window, want degraded", g.State())
	}
	storm.Store(false)
	detect(g, st, txn, committed...) // probe: clean (streak 1)
	detect(g, st, noTxn, noCommitted...)
	if g.State() != Degraded {
		t.Fatal("an uninformative probe must not restore on its own")
	}
	detect(g, st, txn, committed...) // probe: clean (streak 2) → restore
	if g.State() != Healthy {
		t.Fatalf("state = %v, want healthy: the uninformative probe reset the clean streak", g.State())
	}
}

// TestObserveSignals: the protocol-side sinks must accumulate counts and
// total durations.
func TestObserveSignals(t *testing.T) {
	g := NewGovernor(conflict.NewWriteSet(), nil, Config{})
	g.ObserveCommitWait(3 * time.Millisecond)
	g.ObserveCommitWait(2 * time.Millisecond)
	g.ObserveBackoff(time.Millisecond)
	g.ObserveEscalation()
	s := g.Stats()
	if s.CommitWaits != 2 || s.CommitWaitNs != int64(5*time.Millisecond) {
		t.Errorf("commit waits = %d/%dns, want 2/%dns", s.CommitWaits, s.CommitWaitNs, 5*time.Millisecond)
	}
	if s.BackoffWaits != 1 || s.BackoffNs != int64(time.Millisecond) {
		t.Errorf("backoff = %d/%dns", s.BackoffWaits, s.BackoffNs)
	}
	if s.Escalations != 1 {
		t.Errorf("Escalations = %d, want 1", s.Escalations)
	}
	// A commit observed while not tripped must not transition anything.
	g.ObserveCommit()
	if g.State() != Healthy {
		t.Errorf("state = %v after healthy commit, want healthy", g.State())
	}
}

// TestVarsAndPublish: Vars mirrors Stats, and re-publishing under the same
// expvar name swaps the snapshot source instead of panicking.
func TestVarsAndPublish(t *testing.T) {
	g1 := NewGovernor(conflict.NewWriteSet(), nil, Config{})
	vars := g1.Vars()
	if vars["state"] != "healthy" {
		t.Errorf(`Vars()["state"] = %v, want "healthy"`, vars["state"])
	}
	for _, k := range []string{"demotions", "trips", "probes", "restores", "windows",
		"detections", "fallback_detections", "commit_waits", "backoff_waits", "escalations"} {
		if _, ok := vars[k]; !ok {
			t.Errorf("Vars() missing %q", k)
		}
	}

	const name = "janus.health.test"
	obs.PublishVars(name, func() any { return g1.Vars() })
	g2 := NewGovernor(conflict.NewWriteSet(), nil, Config{})
	g2.state.Store(int32(Tripped))                         // white-box: make g2 distinguishable
	obs.PublishVars(name, func() any { return g2.Vars() }) // must swap, not panic
	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("expvar %q not published", name)
	}
	if !strings.Contains(v.String(), "tripped") {
		t.Errorf("expvar after swap = %s, want g2's tripped state", v.String())
	}
}

// TestPublishForeignExpvarName: a name someone else already registered
// with expvar directly (another package, a test, a user's own expvar.Func)
// must not crash the process — expvar.Publish panics on duplicates, and a
// daemon registering per-tenant governors cannot afford that. The registry
// must detect the foreign registration, skip the second expvar.Publish,
// and still record the governor for swap semantics.
func TestPublishForeignExpvarName(t *testing.T) {
	const name = "janus.health.foreign"
	expvar.Publish(name, expvar.Func(func() any { return "foreign" }))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Publish panicked on foreign expvar name: %v", r)
		}
	}()
	g := NewGovernor(conflict.NewWriteSet(), nil, Config{})
	obs.PublishVars(name, func() any { return g.Vars() })
	obs.PublishVars(name, func() any { return g.Vars() }) // second call exercises the recorded-name path too
	// The foreign registration wins the expvar slot; the registry must not
	// have replaced or broken it.
	if v := expvar.Get(name); v == nil || !strings.Contains(v.String(), "foreign") {
		t.Errorf("expvar %q = %v, want the original foreign registration", name, v)
	}
}

// TestProbeGateSerializesProbes: concurrent degraded detections must never
// let two probes race the primary's stats window (the gate makes losers
// fall back); under -race this also proves the probe path is data-race
// free.
func TestProbeGateSerializesProbes(t *testing.T) {
	st := baseState()
	primary := conflict.NewSequence(trainedCache(), nil)
	g := NewGovernor(primary, nil, Config{
		Window: 1 << 20, ProbeEvery: 1, RestoreProbes: 1 << 20, TripAbortRate: 1.1,
	})
	g.state.Store(int32(Degraded)) // white-box: start degraded
	txn, committed := idPair(t, st)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				detect(g, st, txn, committed...)
			}
		}()
	}
	wg.Wait()
	s := g.Stats()
	if s.Detections != 800 {
		t.Errorf("Detections = %d, want 800", s.Detections)
	}
	if s.Probes == 0 {
		t.Error("no probes ran")
	}
	if s.Probes+s.FallbackDetections != s.Detections {
		t.Errorf("probes (%d) + fallbacks (%d) != detections (%d)",
			s.Probes, s.FallbackDetections, s.Detections)
	}
}

// TestOnTransitionHook pins the flight-recorder hook contract: every
// state change invokes OnTransition exactly once with the correct
// from/to pair and a non-empty detail, demotions and restores alike.
func TestOnTransitionHook(t *testing.T) {
	st := baseState()
	type hop struct {
		from, to State
		detail   string
	}
	var hops []hop
	g := NewGovernor(conflict.NewWriteSet(), nil, Config{
		Window: 4, TripWindows: 2, ProbeEvery: 1000, RecoverCommits: 3,
		OnTransition: func(from, to State, detail string) {
			hops = append(hops, hop{from, to, detail})
		},
	})
	add1 := record(t, st, 1, adt.NumAddOp{L: "work", Delta: 1})
	add2 := record(t, st, 2, adt.NumAddOp{L: "work", Delta: 1})
	conflicting := func(n int) {
		for i := 0; i < n; i++ {
			detect(g, st, add1, add2)
		}
	}
	conflicting(12) // demote, then (two bad windows later) trip
	for i := 0; i < 3; i++ {
		g.ObserveCommit() // drain the serial budget: tripped → degraded
	}
	want := []hop{
		{Healthy, Degraded, ""},
		{Degraded, Tripped, ""},
		{Tripped, Degraded, ""},
	}
	if len(hops) != len(want) {
		t.Fatalf("OnTransition fired %d times (%+v), want %d", len(hops), hops, len(want))
	}
	for i, h := range hops {
		if h.from != want[i].from || h.to != want[i].to {
			t.Errorf("transition %d: %v→%v, want %v→%v", i, h.from, h.to, want[i].from, want[i].to)
		}
		if h.detail == "" {
			t.Errorf("transition %d (%v→%v) carried no detail", i, h.from, h.to)
		}
	}
}
