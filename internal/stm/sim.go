// The discrete-event driver: the protocol of this package on a simulated
// T-thread machine under deterministic virtual time — the testbed
// substitute for the paper's 4-core/8-thread Nehalem (see DESIGN.md).
//
// There is one protocol and this file is its second driver. run starts a
// goroutine per worker and lets the Go scheduler decide when each half of
// an attempt happens; Simulate keeps a single-threaded event heap and
// decides it itself: a transaction's execute half runs at the attempt's
// virtual begin, its finish half at the virtual end of its body (ordered
// tasks park until the published watermark reaches their turn). Both halves are the ones attempt
// calls, so every attempt really executes its task against a privatized
// view, detection really runs the configured detector against the real
// committed history, commits really plan stripes, install, replay and
// publish, and aborted attempts really re-execute. Single-threaded, none
// of the runtime's locks or waits ever block. The driver decides only
// when a half runs and what it costs: each action is charged calibrated
// cost units, read off what the half left behind (the log, the fetched
// window, the stripe set, the install plan), and the run's makespan is the
// latest commit completion. Speedup is the sequential baseline's cost
// divided by the makespan.
//
// What it cannot reach is anything below a half: lock-level interleavings,
// lost commit races, cancellation mid-wait. Those belong to the staged tests
// and `make stress`.
package stm

import (
	"container/heap"
	"fmt"
	"slices"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/obs"
	"repro/internal/oplog"
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
	// transaction's private state (copy-on-access privatization), and per
	// written location a commit merges back into the committed store.
	FaultPerLoc float64
	// DetectPerOp is charged per operation examined by conflict
	// detection (the transaction's log plus its conflict history).
	DetectPerOp float64
	// CommitBase and the replay costs are charged under the commit's
	// footprint stripes, serializing only committers that share one: the
	// replay re-executes, of the ops it re-applies, writes at full cost and
	// reads cheaply.
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

// SimConfig parameterizes a simulated run.
type SimConfig struct {
	// Threads is the simulated hardware thread count.
	Threads int
	// Ordered makes commits follow task order.
	Ordered bool
	// Detector is the conflict-detection algorithm (nil = write-set).
	Detector conflict.Detector
	// Cost is the calibration; nil means DefaultCost.
	Cost *Cost
	// Machine models compute capacity; nil means DefaultMachine.
	Machine *Machine
	// RecordTimeline captures per-task scheduling records in
	// SimStats.Timeline (first start, commit completion, attempts).
	RecordTimeline bool
	// MaxRetries guards against livelock (0 = unlimited).
	MaxRetries int
}

// SimStats reports a simulated run: the runtime's own counters plus the
// virtual clock's readings.
type SimStats struct {
	Stats
	// Makespan is the virtual completion time of the parallel run.
	Makespan float64
	// SeqCost is the virtual cost of the sequential baseline.
	SeqCost float64
	// Speedup = SeqCost / Makespan.
	Speedup float64
	// Timeline holds per-task scheduling records in commit order when
	// SimConfig.RecordTimeline is set.
	Timeline []TaskTiming
}

// TaskTiming is one task's simulated schedule.
type TaskTiming struct {
	Task     int
	Start    float64 // first attempt's begin time
	Commit   float64 // commit completion time
	Attempts int     // executions (1 + retries)
}

// costedTx is the executor a simulated task body runs against: the
// transaction, plus adt.CostSink so local work is charged to virtual time
// instead of spinning the CPU.
type costedTx struct {
	*Tx
	local int64
}

// AddLocalWork implements adt.CostSink.
func (c *costedTx) AddLocalWork(units int64) { c.local += units }

// seqCoster is the sequential baseline's executor: ops apply unlogged, and
// it counts them and the local work.
type seqCoster struct {
	directExec
	ops, local int64
}

// Exec implements adt.Executor.
func (s *seqCoster) Exec(op oplog.Op) (state.Value, error) {
	s.ops++
	return s.directExec.Exec(op)
}

// AddLocalWork implements adt.CostSink.
func (s *seqCoster) AddLocalWork(units int64) { s.local += units }

// simEvent is one executed attempt waiting for its finish half.
type simEvent struct {
	time    float64 // virtual end of the body
	seq     int     // tie-break: scheduling order
	tx      *Tx
	ops     int     // logged operations (an aborted finish recycles the log)
	first   float64 // virtual begin of the task's first attempt
	retries int     // aborted attempts before this one
}

type simHeap []*simEvent

func (h simHeap) Len() int { return len(h) }
func (h simHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h simHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *simHeap) Push(x any)   { *h = append(*h, x.(*simEvent)) }
func (h *simHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// sim is one simulated run: the runtime it drives and the virtual clock's
// bookkeeping.
type sim struct {
	r     *Runtime
	cfg   SimConfig
	cost  Cost
	tasks []adt.Task

	events   simHeap
	seq      int
	parked   map[int]*simEvent // ordered mode: tid → executed, awaiting its turn
	nextTask int
	// Virtual release times of the commit path's resources: each stripe's
	// last writer and last reader, and the publication turn.
	stripeWrite, stripeRead [commitStripes]float64
	turnFree                float64
	makespan                float64
	timeline                []TaskTiming
}

// Simulate runs the tasks from the initial state on the simulated machine.
// It returns the final committed state and the run statistics, including
// the sequential-baseline cost and the resulting speedup.
func Simulate(cfg SimConfig, initial *state.State, tasks []adt.Task) (*state.State, SimStats, error) {
	if cfg.Threads <= 0 {
		return nil, SimStats{}, fmt.Errorf("stm: simulated Threads must be positive")
	}
	s := &sim{
		r: New(Config{
			Threads:    cfg.Threads,
			Ordered:    cfg.Ordered,
			Detector:   cfg.Detector,
			MaxRetries: cfg.MaxRetries,
		}, initial),
		cfg:    cfg,
		cost:   DefaultCost(),
		tasks:  tasks,
		parked: make(map[int]*simEvent),
	}
	if cfg.Cost != nil {
		s.cost = *cfg.Cost
	}
	machine := DefaultMachine()
	if cfg.Machine != nil {
		machine = *cfg.Machine
	}
	s.r.start(len(tasks))

	seqCost, err := s.sequentialCost(initial)
	if err != nil {
		return nil, SimStats{}, err
	}

	// Seed the workers (bounded by the machine's effective concurrency).
	for w := machine.effective(cfg.Threads); w > 0 && s.nextTask < len(tasks); w-- {
		s.nextTask++
		if err := s.start(s.nextTask, 0, 0, 0); err != nil {
			return nil, SimStats{}, err
		}
	}
	for len(s.events) > 0 {
		if err := s.process(heap.Pop(&s.events).(*simEvent)); err != nil {
			return nil, SimStats{}, err
		}
	}

	s.r.end()
	stats := SimStats{Stats: s.r.statsSnapshot(), Makespan: s.makespan, SeqCost: seqCost, Timeline: s.timeline}
	if int64(stats.Tasks) != stats.Commits {
		return nil, SimStats{}, fmt.Errorf("stm: simulated %d tasks but %d commits (ordered deadlock?)", stats.Tasks, stats.Commits)
	}
	if s.makespan > 0 {
		stats.Speedup = seqCost / s.makespan
	}
	return s.r.State(), stats, nil
}

// sequentialCost executes the tasks unsynchronized against a scratch
// state, charging baseline costs.
func (s *sim) sequentialCost(initial *state.State) (float64, error) {
	ex := &seqCoster{directExec: directExec{st: initial.Clone()}}
	for i, task := range s.tasks {
		if err := runTaskBody(task, ex, i+1); err != nil {
			return 0, fmt.Errorf("stm: sequential task %d: %w", i+1, err)
		}
	}
	return float64(ex.ops)*s.cost.SeqOp + float64(ex.local)*s.cost.LocalUnit, nil
}

// start runs the execute half of one attempt of task tid beginning at
// virtual time at — its retries-th retry, the first attempt having begun
// at first — and schedules its finish half for the body's end.
func (s *sim) start(tid int, at, first float64, retries int) error {
	var body costedTx
	task := s.tasks[tid-1]
	tx, err := s.r.execute(obs.Ctx{Task: int32(tid), Attempt: int32(retries + 1)}, func(ex adt.Executor) error {
		body.Tx = ex.(*Tx)
		return task(&body)
	}, tid)
	if err != nil {
		return fmt.Errorf("stm: task %d: %w", tid, err)
	}
	ops := tx.prep.Ops()
	dur := s.cost.Begin +
		float64(len(tx.prep.Footprint()))*s.cost.FaultPerLoc +
		float64(ops)*s.cost.Op +
		float64(body.local)*s.cost.LocalUnit
	s.seq++
	heap.Push(&s.events, &simEvent{time: at + dur, seq: s.seq, tx: tx, ops: ops, first: first, retries: retries})
	return nil
}

// process runs the finish half of an executed attempt at its virtual
// time and charges what it did.
func (s *sim) process(e *simEvent) error {
	r, tid := s.r, e.tx.tid
	if s.cfg.Ordered && r.published.Load() != r.turn(tid) {
		// Execution finished but predecessors have not published; the
		// worker parks until the watermark reaches this task (Figure 7's
		// ordered wait). finish would block here, with nobody to wake it.
		s.parked[tid] = e
		return nil
	}
	committed := r.finish(obs.Ctx{Task: int32(tid), Attempt: int32(e.retries + 1)}, e.tx)
	if err := r.runErr(); err != nil {
		return err
	}
	windowOps := 0
	for _, c := range e.tx.window {
		windowOps += c.Ops()
	}
	t := e.time + s.cost.DetectPerOp*float64(e.ops+windowOps)
	if !committed {
		if !r.noteRetry(tid, e.retries+1) {
			return r.runErr()
		}
		return s.start(tid, t, e.first, e.retries+1)
	}
	r.noteCommit()

	done := s.commitDone(e.tx, e.tx.prep.Footprint(), t)
	if done > s.makespan {
		s.makespan = done
	}
	if s.cfg.RecordTimeline {
		s.timeline = append(s.timeline, TaskTiming{
			Task: tid, Start: e.first, Commit: done, Attempts: e.retries + 1,
		})
	}
	// The committing worker picks up the next pending task.
	if s.nextTask < len(s.tasks) {
		s.nextTask++
		if err := s.start(s.nextTask, done, done, 0); err != nil {
			return err
		}
	}
	// Wake the ordered successor, if it is already parked.
	if next, ok := s.parked[tid+1]; ok {
		delete(s.parked, tid+1)
		if next.time < done {
			next.time = done
		}
		s.seq++
		next.seq = s.seq
		heap.Push(&s.events, next)
	}
	return nil
}

// commitDone charges the commit finish just performed, entered at virtual
// time t, and returns its completion. It follows commit step by step and
// reads each step off what commit left in the transaction: wait for the
// planned stripes (a reader behind the last writer, a writer behind
// everyone); under them pay CommitBase and the replay — only the ops
// commit re-applied; then publish in ticket order, which is the order
// finish halves run in, paying one FaultPerLoc per written location
// merged into the committed store; the stripes go free when that is done.
func (s *sim) commitDone(tx *Tx, foot []conflict.FootprintLoc, t float64) float64 {
	for _, st := range tx.stripes {
		free := s.stripeWrite[st.idx]
		if st.write && s.stripeRead[st.idx] > free {
			free = s.stripeRead[st.idx]
		}
		if free > t {
			t = free
		}
	}
	t += s.cost.CommitBase

	written := 0
	for _, f := range foot {
		if f.Write {
			written++
		}
	}
	if tx.overlay != nil {
		// Every written location dirty: commit replayed the whole log.
		// Otherwise it re-applied the ops on dirty locations.
		dirty := tx.dirtyLocs(foot)
		all := len(dirty) == written
		for _, ev := range tx.prep.Log() {
			if !all && !touches(ev, dirty) {
				continue
			}
			if writes(ev) {
				t += s.cost.ReplayWritePerOp
			} else {
				t += s.cost.ReplayReadPerOp
			}
		}
	}

	if s.turnFree > t {
		t = s.turnFree
	}
	t += float64(written) * s.cost.FaultPerLoc
	s.turnFree = t
	for _, st := range tx.stripes {
		if st.write {
			s.stripeWrite[st.idx] = t
		} else if t > s.stripeRead[st.idx] {
			s.stripeRead[st.idx] = t
		}
	}
	return t
}

// touches reports whether a logged op accesses one of locs.
func touches(e *oplog.Event, locs []state.Loc) bool {
	for _, a := range e.Accesses() {
		if slices.Contains(locs, a.P.Loc) {
			return true
		}
	}
	return false
}

// writes reports whether a logged op wrote any location.
func writes(e *oplog.Event) bool {
	for _, a := range e.Accesses() {
		if a.Write {
			return true
		}
	}
	return false
}
