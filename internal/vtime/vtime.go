// Package vtime executes the JANUS protocol on a simulated T-thread
// machine under deterministic virtual time — the testbed substitute for
// the paper's 4-core/8-thread Nehalem (see DESIGN.md).
//
// The simulator is a discrete-event reenactment of Figure 7, not a
// statistical model: every transaction attempt really executes its task
// against a privatized snapshot, producing a real operation log; conflict
// detection really runs the configured detector (write-set or trained
// sequence-based) against the real committed history; aborted attempts
// really re-execute. Only *time* is synthetic: each action is charged
// calibrated cost units, commits serialize on the write lock, and the
// run's makespan is the latest commit completion. Speedup is the
// sequential baseline's cost divided by the makespan.
//
// Because aborts, wasted re-execution, detection work, and commit
// serialization all emerge from the actual protocol and detector code,
// the Figure 9/10 phenomena (write-set slowdown, sequence-based speedup,
// retry-rate gap, the overhead-bound JGraphT-2 plateau) are reproduced
// mechanically rather than assumed.
package vtime

import (
	"container/heap"
	"fmt"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/persist"
	"repro/internal/state"
)

// Cost calibrates virtual-time charges, in abstract units (≈ nanoseconds
// of the paper-era testbed; only ratios matter).
type Cost struct {
	// Op is the cost of one logged shared-state operation during
	// transactional execution (instrumentation, footprint recording,
	// private-state application).
	Op float64
	// SeqOp is the cost of the same operation in the unsynchronized
	// sequential baseline (a plain memory/ADT operation).
	SeqOp float64
	// LocalUnit is the cost of one adt.LocalWork unit in either mode.
	LocalUnit float64
	// Begin is CREATETRANSACTION's fixed cost.
	Begin float64
	// FaultPerLoc is charged per shared location faulted into the
	// transaction's private state (copy-on-access privatization).
	FaultPerLoc float64
	// DetectPerOp is charged per operation examined by conflict
	// detection (the transaction's log plus its conflict history).
	DetectPerOp float64
	// CommitBase and the replay costs are charged inside the write lock,
	// serializing committers: replay re-executes writes at full cost and
	// skips reads cheaply.
	CommitBase       float64
	ReplayWritePerOp float64
	ReplayReadPerOp  float64
}

// DefaultCost is calibrated so that a logged transactional operation costs
// ~10x a plain one (instrumentation + privatization bookkeeping), matching
// the single-thread overhead regime the paper reports (1-thread speedups
// below 1).
func DefaultCost() Cost {
	return Cost{
		Op:               300,
		SeqOp:            30,
		LocalUnit:        1,
		Begin:            500,
		FaultPerLoc:      100,
		DetectPerOp:      20,
		CommitBase:       300,
		ReplayWritePerOp: 300,
		ReplayReadPerOp:  30,
	}
}

// Machine models the simulated host's compute capacity: Cores physical
// cores, each multiplexing two hardware threads, with an SMT sibling
// contributing SMTBonus of a core's throughput — the paper's testbed is
// a 4-core Nehalem with 2-way SMT (§7.1). T software threads yield an
// effective concurrency of round(min(T, Cores) + SMTBonus·max(0,
// min(T, 2·Cores) − Cores)) simultaneously executing transactions; the
// simulated scheduler never runs more attempts in parallel than that.
type Machine struct {
	Cores    int
	SMTBonus float64
}

// DefaultMachine is the paper's 4-core, 8-hardware-thread testbed.
func DefaultMachine() Machine { return Machine{Cores: 4, SMTBonus: 0.25} }

// effective returns the number of concurrently executing transactions T
// software threads achieve on this machine.
func (m Machine) effective(threads int) int {
	if m.Cores <= 0 || threads <= m.Cores {
		return threads
	}
	hw := threads
	if hw > 2*m.Cores {
		hw = 2 * m.Cores
	}
	eff := int(float64(m.Cores) + m.SMTBonus*float64(hw-m.Cores) + 0.5)
	if eff < 1 {
		eff = 1
	}
	return eff
}

// Config parameterizes a simulated run.
type Config struct {
	// Threads is the simulated hardware thread count.
	Threads int
	// Ordered makes commits follow task order.
	Ordered bool
	// Detector is the conflict-detection algorithm (nil = write-set).
	Detector conflict.Detector
	// Cost is the calibration; the zero value means DefaultCost.
	Cost *Cost
	// Machine models compute capacity; the zero value means
	// DefaultMachine.
	Machine *Machine
	// RecordTimeline captures per-task scheduling records in
	// Stats.Timeline (first start, commit completion, attempts).
	RecordTimeline bool
	// MaxRetries guards against livelock (0 = unlimited).
	MaxRetries int
}

// Stats reports a simulated run.
type Stats struct {
	Tasks     int
	Commits   int64
	Retries   int64
	Conflicts int64
	// AbortReasons breaks Conflicts down by the detector check that
	// failed (reason name → count); nil when no conflicts occurred.
	AbortReasons map[string]int64
	// Makespan is the virtual completion time of the parallel run.
	Makespan float64
	// SeqCost is the virtual cost of the sequential baseline.
	SeqCost float64
	// Speedup = SeqCost / Makespan.
	Speedup float64
	// Timeline holds per-task scheduling records in commit order when
	// Config.RecordTimeline is set.
	Timeline []TaskTiming
}

// TaskTiming is one task's simulated schedule.
type TaskTiming struct {
	Task     int
	Start    float64 // first attempt's begin time
	Commit   float64 // commit completion time
	Attempts int     // executions (1 + retries)
}

// RetryRatio returns retries per transaction (Figure 10).
func (s Stats) RetryRatio() float64 {
	if s.Tasks == 0 {
		return 0
	}
	return float64(s.Retries) / float64(s.Tasks)
}

// txExec is the simulated transaction executor: it applies ops to a
// faulting private state, logs them, and accounts costs.
type txExec struct {
	tid     int
	priv    *state.State
	snap    *state.State
	log     oplog.Log
	local   int64
	touched map[state.Loc]struct{}
}

// Exec implements adt.Executor.
func (t *txExec) Exec(op oplog.Op) (state.Value, error) {
	acc := op.Accesses(t.priv)
	v, err := op.Apply(t.priv)
	if err != nil {
		return nil, err
	}
	for _, a := range acc {
		t.touched[a.P.Loc()] = struct{}{}
	}
	t.log = append(t.log, &oplog.Event{
		Op: op, Task: t.tid, Seq: len(t.log), Acc: acc, Observed: v,
	})
	return v, nil
}

// AddLocalWork implements adt.CostSink.
func (t *txExec) AddLocalWork(units int64) { t.local += units }

// event is one pending try-commit in the simulation.
type event struct {
	time     float64
	seq      int
	tid      int
	tx       *txExec
	beginVer int64
	retries  int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type histEntry struct {
	ver  int64
	prep *conflict.Prepared
}

type runner struct {
	cfg      Config
	cost     Cost
	workers  int
	detector conflict.Detector
	tasks    []adt.Task

	version *persist.Map[state.Value]
	clock   int64
	history []histEntry

	events     eventHeap
	seq        int
	parked     map[int]*event // ordered mode: tid → waiting event
	nextTask   int
	commitFree float64
	makespan   float64
	stats      Stats
	starts     map[int]float64 // first attempt begin per task
	attempts   map[int]int
}

// Run simulates the parallel execution of tasks from the initial state.
// It returns the final committed state and the run statistics, including
// the sequential-baseline cost and the resulting speedup.
func Run(cfg Config, initial *state.State, tasks []adt.Task) (*state.State, Stats, error) {
	if cfg.Threads <= 0 {
		return nil, Stats{}, fmt.Errorf("vtime: Threads must be positive")
	}
	cost := DefaultCost()
	if cfg.Cost != nil {
		cost = *cfg.Cost
	}
	det := cfg.Detector
	if det == nil {
		det = conflict.NewWriteSet()
	}
	machine := DefaultMachine()
	if cfg.Machine != nil {
		machine = *cfg.Machine
	}
	r := &runner{
		cfg:      cfg,
		cost:     cost,
		workers:  machine.effective(cfg.Threads),
		detector: det,
		tasks:    tasks,
		clock:    1,
		parked:   make(map[int]*event),
		starts:   make(map[int]float64),
		attempts: make(map[int]int),
	}
	r.stats.Tasks = len(tasks)

	seqCost, err := r.sequentialCost(initial)
	if err != nil {
		return nil, Stats{}, err
	}
	r.stats.SeqCost = seqCost

	m := persist.NewMap[state.Value]()
	for _, loc := range initial.Locs() {
		v, _ := initial.Get(loc)
		m = m.Set(string(loc), v.CloneValue())
	}
	r.version = m

	// Seed the workers (bounded by the machine's effective concurrency).
	for w := 0; w < r.workers && r.nextTask < len(tasks); w++ {
		if err := r.startAttempt(r.nextTask+1, 0, 0); err != nil {
			return nil, Stats{}, err
		}
		r.nextTask++
	}

	for len(r.events) > 0 {
		e := heap.Pop(&r.events).(*event)
		if err := r.process(e); err != nil {
			return nil, Stats{}, err
		}
	}
	if int64(r.stats.Tasks) != r.stats.Commits {
		return nil, Stats{}, fmt.Errorf("vtime: %d tasks but %d commits (ordered deadlock?)", r.stats.Tasks, r.stats.Commits)
	}
	if r.makespan > 0 {
		r.stats.Speedup = r.stats.SeqCost / r.makespan
	}
	r.stats.Makespan = r.makespan

	final := state.New()
	r.version.Range(func(k string, v state.Value) bool {
		final.Set(state.Loc(k), v.CloneValue())
		return true
	})
	return final, r.stats, nil
}

// sequentialCost executes the tasks unsynchronized against a scratch
// state, charging baseline costs.
func (r *runner) sequentialCost(initial *state.State) (float64, error) {
	st := initial.Clone()
	total := 0.0
	for i, task := range r.tasks {
		ex := &txExec{tid: i + 1, priv: st, touched: make(map[state.Loc]struct{})}
		if err := task(ex); err != nil {
			return 0, fmt.Errorf("vtime: sequential task %d: %w", i+1, err)
		}
		total += float64(len(ex.log))*r.cost.SeqOp + float64(ex.local)*r.cost.LocalUnit
	}
	return total, nil
}

// startAttempt executes one transaction attempt beginning at virtual time
// `at` and schedules its try-commit event.
func (r *runner) startAttempt(tid int, at float64, retries int) error {
	if retries == 0 {
		r.starts[tid] = at
	}
	r.attempts[tid]++
	ver := r.version
	fault := func(l state.Loc) (state.Value, bool) { return ver.Get(string(l)) }
	tx := &txExec{
		tid:     tid,
		priv:    state.NewFaulting(fault),
		snap:    state.NewFaulting(fault),
		touched: make(map[state.Loc]struct{}),
	}
	if err := r.tasks[tid-1](tx); err != nil {
		return fmt.Errorf("vtime: task %d: %w", tid, err)
	}
	dur := r.cost.Begin +
		float64(len(tx.touched))*r.cost.FaultPerLoc +
		float64(len(tx.log))*r.cost.Op +
		float64(tx.local)*r.cost.LocalUnit
	r.seq++
	heap.Push(&r.events, &event{
		time: at + dur, seq: r.seq, tid: tid, tx: tx,
		beginVer: r.clock, retries: retries,
	})
	return nil
}

// window returns the artifacts of the logs committed after beginVer, one
// per transaction in commit order.
func (r *runner) window(beginVer int64) []*conflict.Prepared {
	var out []*conflict.Prepared
	for _, h := range r.history {
		if h.ver > beginVer {
			out = append(out, h.prep)
		}
	}
	return out
}

func (r *runner) process(e *event) error {
	if r.cfg.Ordered && r.clock != int64(e.tid) {
		// Execution finished but predecessors have not committed; the
		// worker parks until the clock reaches this task (Figure 7's
		// ordered wait).
		r.parked[e.tid] = e
		return nil
	}
	committed := r.window(e.beginVer)
	windowOps := 0
	for _, c := range committed {
		windowOps += c.Ops()
	}
	detectCost := r.cost.DetectPerOp * float64(len(e.tx.log)+windowOps)
	t := e.time + detectCost
	prep := conflict.Prepare(e.tx.log)
	if v := r.detector.DetectPrepared(obs.Ctx{}, e.tx.snap, prep, committed); v.Conflict {
		prep.Recycle()
		r.stats.Conflicts++
		r.stats.Retries++
		if r.stats.AbortReasons == nil {
			r.stats.AbortReasons = make(map[string]int64)
		}
		r.stats.AbortReasons[v.Reason.String()]++
		if r.cfg.MaxRetries > 0 && e.retries+1 >= r.cfg.MaxRetries {
			return fmt.Errorf("vtime: task %d exceeded %d retries", e.tid, r.cfg.MaxRetries)
		}
		return r.startAttempt(e.tid, t, e.retries+1)
	}
	// Commit: serialized on the write lock.
	start := t
	if r.commitFree > start {
		start = r.commitFree
	}
	var replay float64
	for _, ev := range e.tx.log {
		wrote := false
		for _, a := range ev.Acc {
			if a.Write {
				wrote = true
				break
			}
		}
		if wrote {
			replay += r.cost.ReplayWritePerOp
		} else {
			replay += r.cost.ReplayReadPerOp
		}
	}
	done := start + r.cost.CommitBase + replay
	r.commitFree = done
	if err := r.publish(e.tx.log); err != nil {
		return err
	}
	r.clock++
	r.history = append(r.history, histEntry{ver: r.clock, prep: prep})
	if done > r.makespan {
		r.makespan = done
	}
	r.stats.Commits++
	if r.cfg.RecordTimeline {
		r.stats.Timeline = append(r.stats.Timeline, TaskTiming{
			Task:     e.tid,
			Start:    r.starts[e.tid],
			Commit:   done,
			Attempts: r.attempts[e.tid],
		})
	}
	// The committing worker picks up the next pending task.
	if r.nextTask < len(r.tasks) {
		r.nextTask++
		if err := r.startAttempt(r.nextTask, done, 0); err != nil {
			return err
		}
	}
	// Wake the ordered successor, if it is already parked.
	if r.cfg.Ordered {
		if next, ok := r.parked[int(r.clock)]; ok {
			delete(r.parked, int(r.clock))
			if next.time < done {
				next.time = done
			}
			r.seq++
			next.seq = r.seq
			heap.Push(&r.events, next)
		}
	}
	return nil
}

// publish replays the committed log onto a faulting overlay of the
// current version and publishes the written locations.
func (r *runner) publish(log oplog.Log) error {
	ver := r.version
	tmp := state.NewFaulting(func(l state.Loc) (state.Value, bool) {
		return ver.Get(string(l))
	})
	if err := log.Replay(tmp); err != nil {
		return err
	}
	written := make(map[state.Loc]struct{})
	for _, e := range log {
		for _, a := range e.Acc {
			if a.Write {
				written[a.P.Loc()] = struct{}{}
			}
		}
	}
	for loc := range written {
		if v, ok := tmp.Get(loc); ok {
			ver = ver.Set(string(loc), v.CloneValue())
		}
	}
	r.version = ver
	return nil
}
