package spec

// Offline training (§5.1 and Figure 6): the application is exercised
// sequentially on training inputs with no synchronization, the trace is
// decomposed per projection location with the detector's own
// oplog.Decomposer, the per-location dependent sequences are mined at task
// boundaries, symbolic commutativity conditions are proved for pairs of
// sequences, verified — concretely against the Figure 8 checks and, for
// relational pairs, by the §6.2 content equivalence decided in closed form
// — and stored under their §5.2 regular abstractions.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/state"
)

// Profiler executes tasks sequentially against a live state, recording the
// training trace with task identities and footprints.
type Profiler struct {
	st    *state.State
	trace oplog.Log
	slab  []oplog.Event // the trace's events, a slab at a time (Exec)
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
	// Events are logged into a slab that doubles when full, as
	// conflict.Prepared.Append logs a transaction's: one allocation per
	// slab instead of one per event. A full slab is left to the trace
	// entries that point into it.
	if len(p.slab) == cap(p.slab) {
		p.slab = make([]oplog.Event, 0, max(8, 2*cap(p.slab)))
	}
	p.slab = append(p.slab, oplog.NewEvent(op, p.task, len(p.trace), p.acc, v))
	p.trace = append(p.trace, &p.slab[len(p.slab)-1])
	return v, nil
}

// Run executes the tasks one at a time (single-threaded, no
// synchronization), numbering them from 1.
func (p *Profiler) Run(tasks []adt.Task) error {
	for i, t := range tasks {
		p.task = i + 1
		if err := t(p); err != nil {
			return fmt.Errorf("spec: training task %d: %w", i+1, err)
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

// maxPairsPerLoc bounds pair enumeration per location. Dedup by shape key
// happens first, so the bound only guards pathological traces.
const maxPairsPerLoc = 4096

// Report summarizes a training run.
type Report struct {
	TracedOps       int
	PLocs           int
	SharedPLocs     int
	PairsConsidered int
	UniquePairs     int
	cached          map[conditionKind]int
	Rejected        int // pairs no theory covers
	VerifyDropped   int // proved pairs dropped by verification
	EquivChecks     int // relational pairs given the §6.2 content check
	EquivFailures   int // of those, pairs whose orders leave different content
}

// String renders the report.
func (r *Report) String() string {
	return fmt.Sprintf(
		"trace=%d ops, plocs=%d (%d shared), pairs=%d (%d unique), cached={always:%d register:%d stack:%d}, rejected=%d, verify-dropped=%d, equiv=%d/%d",
		r.TracedOps, r.PLocs, r.SharedPLocs, r.PairsConsidered, r.UniquePairs,
		r.cached[condAlways], r.cached[condRegister], r.cached[condStackIdentity],
		r.Rejected, r.VerifyDropped, r.EquivFailures, r.EquivChecks,
	)
}

// Train profiles one sequential run of tasks from the given initial state
// (cloned; the caller's state is not mutated), mines the trace and builds
// the commutativity specification, its keys rendered under mode. initial
// also types the synthetic verification states.
func Train(initial *state.State, tasks []adt.Task, mode Mode) (*Cache, *Report, error) {
	p := NewProfiler(initial.Clone())
	if err := p.Run(tasks); err != nil {
		return nil, nil, err
	}
	trace := p.Trace()
	c := New(mode, false)
	rep := &Report{
		TracedOps: len(trace),
		cached:    make(map[conditionKind]int),
	}
	mined := Mine(trace)
	rep.PLocs = len(mined)
	shared := SharedPLocs(mined)
	rep.SharedPLocs = len(shared)
	// Each sequence is rendered once per location: its descriptors and its
	// key. A pair's key is the two joined into one reused buffer, as a
	// production lookup joins them, and a key string is built only for a
	// pair not seen before.
	seen := make(map[string]struct{})
	var buf []byte
	for _, p := range shared {
		seqs := mined[p]
		entries := syntheticStates(initial, p)
		syms := make([][]oplog.Sym, len(seqs))
		keys := make([][]byte, len(seqs))
		for i, seq := range seqs {
			syms[i] = seq.Syms()
			keys[i] = mode.AppendKey(nil, syms[i])
		}
		pairs := 0
		for i := 0; i < len(seqs) && pairs < maxPairsPerLoc; i++ {
			for j := i + 1; j < len(seqs) && pairs < maxPairsPerLoc; j++ {
				if seqs[i][0].Task == seqs[j][0].Task {
					continue
				}
				pairs++
				rep.PairsConsidered++
				buf = appendJoinedKeys(buf[:0], keys[i], keys[j])
				if _, dup := seen[string(buf)]; dup {
					continue
				}
				key := string(buf)
				seen[key] = struct{}{}
				rep.UniquePairs++
				s1, s2 := syms[i], syms[j]
				kind := prove(s1, s2)
				if kind == condNone {
					rep.Rejected++
					continue
				}
				if !verifyPair(rep, entries, p, seqs[i], seqs[j], s1, s2, kind) {
					rep.VerifyDropped++
					continue
				}
				c.put(key, kind)
				rep.cached[kind]++
			}
		}
	}
	return c, rep, nil
}

// verifyPair cross-checks the proved condition kind against the concrete
// Figure 8 judgment on the location's synthetic entry states, and
// relational pairs against the §6.2 content equivalence. s1 and s2 are the
// sequences' descriptors. A proved "no conflict" that any check
// contradicts drops the entry (soundness guard); a proved "conflict" needs
// no verification (conservative answers are always sound).
func verifyPair(rep *Report, entries []*state.State, p oplog.PLoc, e1, e2 oplog.Log, s1, s2 []oplog.Sym, kind conditionKind) bool {
	conflict, _, ok := evaluate(kind, s1, s2)
	if !ok {
		return false
	}
	if conflict {
		return true
	}
	for _, entry := range entries {
		concrete, err := conflictConcrete(entry, p, e1, e2)
		if err != nil {
			// Synthetic state does not support the ops (e.g. pop from an
			// empty stack): skip this sample rather than reject.
			continue
		}
		if concrete {
			return false
		}
	}
	if relationalOnly(e1) && relationalOnly(e2) {
		rep.EquivChecks++
		if !sameContent(e1, e2) {
			rep.EquivFailures++
			return false
		}
	}
	return true
}

// syntheticStates builds small entry states exercising a location: the
// training initial value plus type-derived variants. Training builds them
// once per location and shares them among its pairs: they are read-only,
// as the concrete judgment runs on clones.
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
	case *state.IntList:
		variants = []state.Value{tv, &state.IntList{}, &state.IntList{11, 22}}
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

// sameContent decides the §6.2 equivalence in closed form: whether both
// orders of two relational sequences leave equal content from every entry
// relation. Put, remove and clear are unconditional writes, so a key ends
// with the second side's last write to it, else the first side's, else
// its entry value: the orders agree iff no key gets two different last
// writes. A side that clears writes absence to every key it does not
// write after the clear. Reads write nothing.
func sameContent(e1, e2 oplog.Log) bool {
	w1, cleared1 := lastWrites(e1)
	w2, cleared2 := lastWrites(e2)
	return writesAgree(w1, w2, cleared2) && writesAgree(w2, w1, cleared1)
}

// lastWrite is a sequence's last write to a key: a value, or absence.
type lastWrite struct {
	val    string
	absent bool
}

// lastWrites folds a relational sequence to its last write per key, and
// reports whether it clears. A clear forgets the writes before it.
func lastWrites(l oplog.Log) (map[string]lastWrite, bool) {
	w := make(map[string]lastWrite)
	cleared := false
	for _, e := range l {
		switch op := e.Op; op.K {
		case adt.RelPut:
			w[op.Key] = lastWrite{val: op.Val}
		case adt.RelRemove:
			w[op.Key] = lastWrite{absent: true}
		case adt.RelClear:
			clear(w)
			cleared = true
		}
	}
	return w, cleared
}

// writesAgree reports whether b's last write to every key in a equals a's.
// A key b does not write is absent if b clears, and left alone otherwise.
func writesAgree(a, b map[string]lastWrite, bClears bool) bool {
	for k, wa := range a {
		wb, ok := b[k]
		if !ok {
			if !bClears {
				continue
			}
			wb = lastWrite{absent: true}
		}
		if wa != wb {
			return false
		}
	}
	return true
}
