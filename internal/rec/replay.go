package rec

import (
	"fmt"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/fsio"
	"repro/internal/state"
	"repro/internal/stm"
)

// Replay turns a decoded trace back into executable work. Each recorded
// transaction becomes a task that re-issues its op log verbatim; because
// the recorded schedule was serializable, applying the logs in commit
// order over the initial state reconstructs the recorded final state
// exactly — that is what ReplaySequential does and what the footer
// digest is checked against. Replay (parallel) re-runs the same tasks
// through the stm with the recorded commit order pinned, exercising the
// full protocol on a production-shaped schedule while keeping the
// outcome deterministic.

// checkReplayable rejects replay of traces that skipped unencodable
// transactions (Lossy) or evicted chunks (Torn).
func (t *Trace) checkReplayable() error {
	if t.Lossy {
		return &fsio.FrameError{Reason: fsio.Lossy, Detail: t.LossyDetail}
	}
	if t.Truncated {
		return fsio.Errorf(fsio.Torn, "flight dump evicted %d chunks; retained %d of %d commits", t.EvictedChunks, len(t.Txns), t.Commits)
	}
	return nil
}

// Tasks converts the trace's transactions (in commit order) into adt
// tasks that re-issue the recorded op logs. They do not check what the ops
// observe: parallel replay is free to interleave reads differently from
// the recorded run (VerifySequential is the check).
func (t *Trace) Tasks() []adt.Task {
	out := make([]adt.Task, len(t.Txns))
	for i, txn := range t.Txns {
		txn := txn
		out[i] = func(ex adt.Executor) error {
			for j, op := range txn.Ops {
				if _, err := ex.Exec(op); err != nil {
					return fmt.Errorf("rec: replaying task %d op %d (%s): %w", txn.Task, j, op.Sym().Kind, err)
				}
			}
			return nil
		}
	}
	return out
}

// valueEqual compares an executed op's result with the recorded one.
func valueEqual(a, b state.Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.EqualValue(b)
}

// applyInCommitOrder replays committed op logs over st in commit order.
// txns must already be sorted by CommitTime (decodeTrace guarantees it).
func applyInCommitOrder(st *state.State, txns []TxnRecord) error {
	for _, txn := range txns {
		for j, op := range txn.Ops {
			if _, err := op.Apply(st); err != nil {
				return fmt.Errorf("rec: applying task %d op %d (%s): %w", txn.Task, j, op.Sym().Kind, err)
			}
		}
	}
	return nil
}

// ReplaySequential applies the recorded logs in commit order over the
// initial state — the deterministic oracle replay. VerifySequential also
// checks what each op observed.
func (t *Trace) ReplaySequential() (*state.State, error) {
	if err := t.checkReplayable(); err != nil {
		return nil, err
	}
	st := t.Initial.Clone()
	if err := applyInCommitOrder(st, t.Txns); err != nil {
		return nil, err
	}
	return st, nil
}

// VerifySequential is the oracle replay checking every op result against
// the recorded observation, except a read of a location relax tolerates
// read-after-write conflicts on: the recorded run may commit a transaction
// whose read a concurrent commit had already overwritten (the stale read
// the relaxation admits), so the commit-order replay may observe another
// value there. skipped counts the reads left unchecked; with a nil relax
// every op is checked.
func (t *Trace) VerifySequential(relax *conflict.Relaxations) (st *state.State, skipped int, err error) {
	if err := t.checkReplayable(); err != nil {
		return nil, 0, err
	}
	st = t.Initial.Clone()
	for _, txn := range t.Txns {
		for j, op := range txn.Ops {
			got, err := op.Apply(st)
			if err != nil {
				return nil, skipped, fmt.Errorf("rec: applying task %d op %d (%s): %w", txn.Task, j, op.Sym().Kind, err)
			}
			if op.IsRead() && relax.TolerateRAW(op.L) {
				skipped++
				continue
			}
			if !valueEqual(got, txn.Observed[j]) {
				return nil, skipped, fmt.Errorf("rec: task %d op %d (%s): observed %v, recorded %v",
					txn.Task, j, op.Sym().Kind, got, txn.Observed[j])
			}
		}
	}
	return st, skipped, nil
}

// Replay re-executes the trace through the stm with write-set detection.
// The tasks are arranged in the
// RECORDED commit order and run under ordered commit, which is what makes
// parallel replay deterministic: execution still interleaves freely
// across workers, but every transaction commits at exactly the position
// it committed in production — hindsight turned into a schedule. (Replays
// of unordered captures would otherwise be free to commit non-commuting
// transactions in a fresh order and legitimately land on a different
// serializable state.) threads overrides the recorded worker count
// when > 0.
func (t *Trace) Replay(threads int) (*state.State, stm.Stats, error) {
	if err := t.checkReplayable(); err != nil {
		return nil, stm.Stats{}, err
	}
	if threads <= 0 {
		threads = t.Meta.Threads
	}
	cfg := stm.Config{
		Threads:  threads,
		Ordered:  true,
		Detector: conflict.NewWriteSet(),
	}
	return stm.Run(cfg, t.Initial, t.Tasks())
}
