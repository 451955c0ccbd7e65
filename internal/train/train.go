// Package train implements the offline training phase of JANUS (§5.1 and
// Figure 6): the application is exercised sequentially on training inputs
// with no synchronization, the trace is decomposed per projection location
// with the detector's own oplog.Decomposer, the per-location dependent
// sequences are mined at task boundaries, symbolic
// commutativity conditions are proved for pairs of sequences, verified —
// concretely against the Figure 8 checks and, for relational pairs, with
// the SAT-backed Table 4 content-formula equivalence — and cached under
// their §5.2 regular abstractions.
package train

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/adt"
	"repro/internal/cache"
	"repro/internal/commute"
	"repro/internal/logic"
	"repro/internal/oplog"
	"repro/internal/relation"
	"repro/internal/seqabs"
	"repro/internal/state"
)

// Profiler executes tasks sequentially against a live state, recording the
// training trace with task identities and footprints.
type Profiler struct {
	st    *state.State
	trace oplog.Log
	task  int
	acc   []oplog.Access // footprint buffer, reused by every Exec
}

// NewProfiler profiles against st (mutated in place).
func NewProfiler(st *state.State) *Profiler { return &Profiler{st: st} }

// AddLocalWork implements adt.CostSink: training only needs the trace,
// so the tasks' local computation is skipped.
func (p *Profiler) AddLocalWork(int64) {}

// Exec implements adt.Executor.
func (p *Profiler) Exec(op oplog.Op) (state.Value, error) {
	p.acc = op.AppendAccesses(p.acc[:0], p.st)
	v, err := op.Apply(p.st)
	if err != nil {
		return nil, err
	}
	ev := oplog.NewEvent(op, p.task, len(p.trace), p.acc, v)
	p.trace = append(p.trace, &ev)
	return v, nil
}

// Run executes the tasks one at a time (single-threaded, no
// synchronization), numbering them from 1.
func (p *Profiler) Run(tasks []adt.Task) error {
	for i, t := range tasks {
		p.task = i + 1
		if err := t(p); err != nil {
			return fmt.Errorf("train: task %d: %w", i+1, err)
		}
	}
	return nil
}

// Trace returns the recorded trace.
func (p *Profiler) Trace() oplog.Log { return p.trace }

// Mine partitions a sequential trace at task boundaries and decomposes
// each task's slice per projection location (§5.1 "Mining Sequences"):
// a location's maximal dependence path, cut at task boundaries, is the
// run of the tasks' subsequences at it, which is what oplog.Decomposer
// produces for each slice — the same decomposition the detector queries
// at runtime. Each location's sequences are in trace order; every event
// carries its Task, so a sequence is a plain log.
func Mine(trace oplog.Log) map[oplog.PLoc][]oplog.Log {
	out := make(map[oplog.PLoc][]oplog.Log)
	var d oplog.Decomposer
	for start := 0; start < len(trace); {
		end := start + 1
		for end < len(trace) && trace[end].Task == trace[start].Task {
			end++
		}
		for _, ps := range d.Decompose(trace[start:end]) {
			out[ps.P] = append(out[ps.P], slices.Clone(ps.Seq))
		}
		start = end
	}
	return out
}

// SharedPLocs returns the projection locations of a mined trace that more
// than one task accessed — the only ones that can ever appear in a
// conflict query — ordered by location, then key.
func SharedPLocs(mined map[oplog.PLoc][]oplog.Log) []oplog.PLoc {
	var out []oplog.PLoc
	for p, seqs := range mined {
		for _, s := range seqs[1:] {
			if s[0].Task != seqs[0][0].Task {
				out = append(out, p)
				break
			}
		}
	}
	slices.SortFunc(out, func(a, b oplog.PLoc) int {
		return cmp.Or(cmp.Compare(a.Loc, b.Loc), cmp.Compare(a.Key, b.Key))
	})
	return out
}

// Options configure training.
type Options struct {
	// Mode selects the cache key abstraction (Figure 11 knob).
	Mode seqabs.Mode
	// MaxPairsPerLoc bounds the quadratic pair enumeration per location;
	// 0 means DefaultMaxPairsPerLoc.
	MaxPairsPerLoc int
}

// DefaultMaxPairsPerLoc bounds pair enumeration per location. Dedup by
// shape key happens first, so the bound only guards pathological traces.
const DefaultMaxPairsPerLoc = 4096

// Report summarizes a training run.
type Report struct {
	TracedOps       int
	PLocs           int
	SharedPLocs     int
	PairsConsidered int
	UniquePairs     int
	Cached          map[commute.ConditionKind]int
	Rejected        int // pairs no theory covers
	VerifyDropped   int // proved pairs dropped by verification
	SATChecks       int
	SATFailures     int
}

// String renders the report.
func (r *Report) String() string {
	return fmt.Sprintf(
		"trace=%d ops, plocs=%d (%d shared), pairs=%d (%d unique), cached={always:%d register:%d stack:%d}, rejected=%d, verify-dropped=%d, sat=%d/%d",
		r.TracedOps, r.PLocs, r.SharedPLocs, r.PairsConsidered, r.UniquePairs,
		r.Cached[commute.CondAlways], r.Cached[commute.CondRegister], r.Cached[commute.CondStackIdentity],
		r.Rejected, r.VerifyDropped, r.SATFailures, r.SATChecks,
	)
}

// Train profiles one sequential run of tasks from the given initial state
// (cloned; the caller's state is not mutated) and builds the
// commutativity cache.
func Train(initial *state.State, tasks []adt.Task, opts Options) (*cache.Cache, *Report, error) {
	st := initial.Clone()
	p := NewProfiler(st)
	if err := p.Run(tasks); err != nil {
		return nil, nil, err
	}
	c := cache.New(opts.Mode)
	rep, err := Learn(c, initial, p.Trace(), opts)
	if err != nil {
		return nil, nil, err
	}
	return c, rep, nil
}

// Learn mines a recorded trace and populates the cache. initial is the
// state the trace started from (used to type synthetic verification
// states).
func Learn(c *cache.Cache, initial *state.State, trace oplog.Log, opts Options) (*Report, error) {
	rep := &Report{
		TracedOps: len(trace),
		Cached:    make(map[commute.ConditionKind]int),
	}
	mined := Mine(trace)
	rep.PLocs = len(mined)
	shared := SharedPLocs(mined)
	rep.SharedPLocs = len(shared)
	maxPairs := opts.MaxPairsPerLoc
	if maxPairs == 0 {
		maxPairs = DefaultMaxPairsPerLoc
	}
	// Each sequence is rendered once per location: its descriptors and its
	// cache key. A pair's key is the two joined into one reused buffer,
	// as the runtime's LookupDetailKeys joins them, and a key string is
	// built only for a pair not seen before.
	seen := make(map[string]struct{})
	var buf []byte
	for _, p := range shared {
		seqs := mined[p]
		syms := make([][]oplog.Sym, len(seqs))
		keys := make([][]byte, len(seqs))
		for i, seq := range seqs {
			syms[i] = seq.Syms()
			keys[i] = c.AppendSeqKey(nil, syms[i])
		}
		pairs := 0
		for i := 0; i < len(seqs) && pairs < maxPairs; i++ {
			for j := i + 1; j < len(seqs) && pairs < maxPairs; j++ {
				if seqs[i][0].Task == seqs[j][0].Task {
					continue
				}
				pairs++
				rep.PairsConsidered++
				buf = seqabs.AppendJoinedKeys(buf[:0], keys[i], keys[j])
				if _, dup := seen[string(buf)]; dup {
					continue
				}
				seen[string(buf)] = struct{}{}
				rep.UniquePairs++
				s1, s2 := syms[i], syms[j]
				kind := commute.Prove(s1, s2)
				if kind == commute.CondNone {
					rep.Rejected++
					continue
				}
				ok, err := verifyPair(rep, initial, p, seqs[i], seqs[j], kind)
				if err != nil {
					return nil, err
				}
				if !ok {
					rep.VerifyDropped++
					continue
				}
				c.Put(s1, s2, kind)
				rep.Cached[kind]++
			}
		}
	}
	return rep, nil
}

// verifyPair cross-checks the proved condition kind against the concrete
// Figure 8 judgment on synthetic entry states, and against the SAT-backed
// content-formula equivalence for relational pairs. A proved "no conflict"
// that any verifier contradicts drops the entry (soundness guard); a
// proved "conflict" needs no verification (conservative answers are always
// sound).
func verifyPair(rep *Report, initial *state.State, p oplog.PLoc, e1, e2 oplog.Log, kind commute.ConditionKind) (bool, error) {
	conflict, ok := commute.Evaluate(kind, e1.Syms(), e2.Syms())
	if !ok {
		return false, nil
	}
	if conflict {
		return true, nil
	}
	for _, entry := range syntheticStates(initial, p) {
		concrete, err := commute.ConflictConcrete(entry, p, e1, e2)
		if err != nil {
			// Synthetic state does not support the ops (e.g. pop from an
			// empty stack): skip this sample rather than reject.
			continue
		}
		if concrete {
			return false, nil
		}
	}
	if relationalOnly(e1) && relationalOnly(e2) {
		agree, err := satVerify(rep, initial, p, e1, e2)
		if err != nil || !agree {
			return false, err
		}
	}
	return true, nil
}

// syntheticStates builds small entry states exercising the pair's
// location: the training initial value plus type-derived variants.
func syntheticStates(initial *state.State, p oplog.PLoc) []*state.State {
	loc := p.Loc
	v, bound := initial.Get(loc)
	if !bound {
		return nil
	}
	var variants []state.Value
	switch tv := v.(type) {
	case state.Int:
		variants = []state.Value{tv, state.Int(0), state.Int(41)}
	case state.Str:
		variants = []state.Value{tv, state.Str(""), state.Str("⟂probe")}
	case state.Bool:
		variants = []state.Value{tv, state.Bool(!bool(tv))}
	case state.IntList:
		variants = []state.Value{tv, state.IntList{}, state.IntList{11, 22}}
	case state.Rel:
		boundKey := adt.NewRelValue()
		boundKey.R.Put(p.Key, "⟂probe")
		variants = []state.Value{tv, adt.NewRelValue(), boundKey}
	default:
		variants = []state.Value{tv}
	}
	out := make([]*state.State, 0, len(variants))
	for _, variant := range variants {
		st := state.New()
		st.Set(loc, variant.CloneValue())
		out = append(out, st)
	}
	return out
}

func relationalOnly(l oplog.Log) bool {
	for _, e := range l {
		switch e.Op.K {
		case adt.RelPut, adt.RelRemove, adt.RelGet, adt.RelHas, adt.RelClear:
		default:
			return false
		}
	}
	return len(l) > 0
}

// satVerify checks, with the Table 4 content formulas and the SAT solver,
// that the two execution orders produce equivalent relation contents from
// a synthetic entry relation — the §6.2 equivalence query.
func satVerify(rep *Report, initial *state.State, p oplog.PLoc, e1, e2 oplog.Log) (bool, error) {
	v, bound := initial.Get(p.Loc)
	if !bound {
		return true, nil
	}
	rv, isRel := v.(state.Rel)
	if !isRel {
		return true, nil
	}
	rep.SATChecks++
	f0 := rv.R.ContentFormula()
	fAB := contentAfter(contentAfter(f0, e1), e2)
	fBA := contentAfter(contentAfter(f0, e2), e1)
	eq, err := equivalent(fAB, fBA, satBudget)
	if err != nil {
		// Budget exhausted: treat as a failed proof, drop the entry.
		rep.SATFailures++
		return false, nil
	}
	if !eq {
		rep.SATFailures++
	}
	return eq, nil
}

// contentAfter folds a relational event sequence over a content formula
// using the Table 4 update rules. Reads leave the formula unchanged.
func contentAfter(f logic.Formula, l oplog.Log) logic.Formula {
	for _, e := range l {
		switch op := e.Op; op.K {
		case adt.RelPut:
			f = relation.ContentPut(f, op.Key, op.Val)
		case adt.RelRemove:
			f = relation.ContentDelete(f, op.Key)
		case adt.RelClear:
			f = logic.False
		}
	}
	return f
}
