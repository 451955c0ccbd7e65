package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/oplog"
	"repro/internal/seqeff"
	"repro/internal/spec"
	"repro/internal/state"
)

// The advisor behind `janus advise` analyzes a sequential training trace
// and classifies each shared location by the semantic patterns of the
// paper's §2 (identity, reduction, shared-as-local, equal-writes,
// spurious-reads), then derives a consistency-relaxation suggestion
// (§5.3) for each.
//
// The paper's workflow used the authors' Hawkeye tool to identify the
// shared data structures and wrote the relaxation specifications by hand
// (§7.1), and notes that JANUS "performs limited automatic inference of
// relaxation specifications". The detector now infers the "safe WAW"
// tolerances itself for sequences in theory, judging every conflict in
// commit order. The advisor extends that inference to the rest: WAW
// tolerances whose soundness follows from the trace (every observed read
// is preceded by the task's own write, so commit-order serialization
// preserves all reads) are offered as safe; RAW tolerances (spurious
// reads) change observable behavior in general, so they are reported as
// candidates requiring user confirmation — the paper makes the same
// distinction between verified inference and assumed user annotations
// (§8).

// runAdvise profiles one workload sequentially and reports, per shared
// location, the §2 semantic pattern it exhibits and the §5.3 consistency
// relaxations that justifies: the automated counterpart of the paper's
// hand-written specification step (§7.1).
func runAdvise(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("advise", stderr)
	workload := workloadFlag(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	w, err := workload()
	if err != nil {
		return err
	}
	trace, err := profile(w)
	if err != nil {
		return err
	}
	rep := Analyze(trace)
	fmt.Fprintf(stdout, "benchmark: %s — %d shared locations\n\n", w.Name, len(rep.Findings))
	rep.Render(stdout)

	printSpec := func(m map[state.Loc]bool, kind string) {
		var locs []string
		for l, on := range m {
			if on {
				locs = append(locs, string(l))
			}
		}
		sort.Strings(locs)
		if len(locs) == 0 {
			fmt.Fprintf(stdout, "  tolerate %s: (none)\n", kind)
		}
		for _, l := range locs {
			fmt.Fprintf(stdout, "  tolerate %s: %s\n", kind, l)
		}
	}
	safe := rep.SafeRelaxations()
	fmt.Fprintf(stdout, "\nsafe relaxation specification:\n")
	printSpec(safe.RAW, "RAW")
	printSpec(safe.WAW, "WAW")
	if w.Relaxations != nil {
		fmt.Fprintf(stdout, "\nhand-written specification (internal/workloads):\n")
		printSpec(w.Relaxations.RAW, "RAW")
		printSpec(w.Relaxations.WAW, "WAW")
	}
	return nil
}

// Pattern classifies a shared location's cross-task behavior.
type Pattern int

// Patterns of §2.
const (
	PatternUnknown Pattern = iota
	PatternReadOnly
	PatternReduction
	PatternIdentity
	PatternSharedAsLocal
	PatternEqualWrites
	PatternSpuriousReads
)

// String renders the pattern name as Table 5 spells it.
func (p Pattern) String() string {
	switch p {
	case PatternReadOnly:
		return "read-only"
	case PatternReduction:
		return "reduction"
	case PatternIdentity:
		return "identity"
	case PatternSharedAsLocal:
		return "shared-as-local"
	case PatternEqualWrites:
		return "equal-writes"
	case PatternSpuriousReads:
		return "spurious-reads"
	default:
		return "unclassified"
	}
}

// Finding is the advisor's verdict for one shared location.
type Finding struct {
	Loc     state.Loc
	PLocs   int // projection locations aggregated into this finding
	Tasks   int // distinct tasks touching the location
	Pattern Pattern
	// SuggestWAW reports that tolerating write-after-write conflicts on
	// this location is safe under commit-order serialization: every
	// observed read is order-insensitive.
	SuggestWAW bool
	// SuggestRAW reports a safe read-after-write tolerance: the location
	// is a scratch pad every task resets (leading clear) before touching,
	// so all reads observe task-local state in any commit order.
	SuggestRAW bool
	// CandidateRAW reports the spurious-reads shape (reads of possibly
	// stale values feeding conditional writes); tolerating RAW changes
	// observable behavior in general and needs user confirmation.
	CandidateRAW bool
	// Rationale is a one-line human-readable justification.
	Rationale string
}

// Report is the advisor's output for a whole trace.
type Report struct {
	Findings []Finding
}

// Analyze classifies every shared location of the trace.
func Analyze(trace oplog.Log) *Report {
	mined := spec.Mine(trace)
	shared := spec.SharedPLocs(mined)

	// Track each task's first operation per base location: a leading
	// rel.clear marks the whole-ADT scratch-pad reset that per-key
	// projection cannot see (clearing an absent key has no footprint).
	type taskLoc struct {
		task int
		loc  state.Loc
	}
	firstOp := make(map[taskLoc]string)
	for _, e := range trace {
		locs := map[state.Loc]struct{}{}
		for _, a := range e.Accesses() {
			locs[a.P.Loc] = struct{}{}
		}
		if len(locs) == 0 {
			// Ops whose footprint is empty in this state (e.g. clearing
			// an empty relation) still reset the structure; attribute
			// them via the op's own location when it names one.
			if e.Op.K == adt.RelClear {
				locs[e.Op.L] = struct{}{}
			}
		}
		for loc := range locs {
			k := taskLoc{task: e.Task, loc: loc}
			if _, seen := firstOp[k]; !seen {
				firstOp[k] = e.Op.Sym().Kind
			}
		}
	}
	leadingClear := func(loc state.Loc, tasks map[int]struct{}) bool {
		if len(tasks) == 0 {
			return false
		}
		for task := range tasks {
			if firstOp[taskLoc{task: task, loc: loc}] != adt.KindRelClear {
				return false
			}
		}
		return true
	}

	// Aggregate projection locations by base location: a relational ADT
	// is one data structure in the §5.3 specification.
	type agg struct {
		plocs int
		tasks map[int]struct{}
		seqs  [][]oplog.Sym
	}
	byLoc := make(map[state.Loc]*agg)
	for _, p := range shared {
		a := byLoc[p.Loc]
		if a == nil {
			a = &agg{tasks: make(map[int]struct{})}
			byLoc[p.Loc] = a
		}
		a.plocs++
		for _, seq := range mined[p] {
			a.tasks[seq[0].Task] = struct{}{}
			a.seqs = append(a.seqs, seq.Syms())
		}
	}

	rep := &Report{}
	for loc, a := range byLoc {
		f := Finding{Loc: loc, PLocs: a.plocs, Tasks: len(a.tasks)}
		if leadingClear(loc, a.tasks) {
			f.Pattern = PatternSharedAsLocal
			f.SuggestWAW = true
			f.SuggestRAW = true
			f.Rationale = "every task resets the structure (leading clear) before touching it; RAW and WAW tolerances are safe"
		} else {
			classify(&f, a.seqs)
		}
		rep.Findings = append(rep.Findings, f)
	}
	sort.Slice(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Loc < rep.Findings[j].Loc
	})
	return rep
}

// classify inspects the per-task sequences observed for one location.
func classify(f *Finding, seqs [][]oplog.Sym) {
	var (
		allReadOnly   = true
		allAddOnly    = true
		allIdentity   = true
		allLocalReads = true // every read preceded by the task's own write
		anyRead       = false
		anyWrite      = false
		storeVals     = map[string]struct{}{}
		allStoreLike  = true
		condStore     = false // read of entry value followed by a store
	)
	for _, syms := range seqs {
		reg, regOK := seqeff.AnalyzeRegister(syms)
		stk, stkOK := seqeff.AnalyzeStack(syms)
		readOnly, addOnly := true, true
		sawWrite := false
		for _, s := range syms {
			switch s.Kind {
			case adt.KindNumLoad, adt.KindStrLoad, adt.KindBoolLoad, adt.KindRelGet, adt.KindRelHas, adt.KindListSize:
				anyRead = true
				if !sawWrite {
					allLocalReads = false
					if regOK {
						condStore = condStore || regSeqStoresAfterRead(syms)
					}
				}
				readOnly = readOnly && true
				addOnly = false
			case adt.KindNumAdd:
				readOnly = false
				sawWrite = true
			default:
				readOnly = false
				addOnly = false
				sawWrite = true
			}
		}
		if sawWrite {
			anyWrite = true
		}
		allReadOnly = allReadOnly && readOnly
		allAddOnly = allAddOnly && addOnly && sawWrite
		switch {
		case regOK:
			if !reg.Eff.IsIdent() {
				allIdentity = false
			}
			if reg.Eff.Kind == seqeff.Store {
				storeVals[reg.Eff.Stored()] = struct{}{}
			} else {
				allStoreLike = false
			}
		case stkOK:
			if !stk.Balanced() {
				allIdentity = false
			}
			allStoreLike = false
		default:
			allIdentity = false
			allStoreLike = false
		}
	}

	switch {
	case allReadOnly:
		f.Pattern = PatternReadOnly
		f.Rationale = "only reads observed; never conflicts"
	case allAddOnly:
		f.Pattern = PatternReduction
		f.Rationale = "associative-commutative accumulation; trained conditions always commute"
	case allIdentity && anyWrite:
		f.Pattern = PatternIdentity
		f.Rationale = "every task restores the location's entry value"
	case allStoreLike && len(storeVals) == 1 && anyWrite:
		f.Pattern = PatternEqualWrites
		f.Rationale = "all tasks leave the same value; trained conditions prove commutativity"
	case allLocalReads && anyWrite:
		f.Pattern = PatternSharedAsLocal
		f.SuggestWAW = true
		f.Rationale = "every read follows the task's own write; WAW tolerance is safe under commit-order serialization"
	case anyRead && anyWrite && condStore:
		f.Pattern = PatternSpuriousReads
		f.CandidateRAW = true
		f.Rationale = "entry-value reads feed conditional writes; RAW tolerance changes observable behavior — confirm before enabling"
	default:
		f.Pattern = PatternUnknown
		f.Rationale = "no §2 pattern matched; rely on trained conditions and the write-set fallback"
	}
}

// regSeqStoresAfterRead reports the Figure 3 maxColor shape: a read of the
// entry value followed later by a store.
func regSeqStoresAfterRead(syms []oplog.Sym) bool {
	seenEntryRead := false
	for _, s := range syms {
		switch s.Kind {
		case adt.KindNumLoad, adt.KindStrLoad, adt.KindBoolLoad, adt.KindRelGet, adt.KindRelHas:
			seenEntryRead = true
		case adt.KindNumStore, adt.KindStrStore, adt.KindBoolStore, adt.KindRelPut, adt.KindRelRemove:
			if seenEntryRead {
				return true
			}
		}
	}
	return false
}

// SafeRelaxations builds the relaxation specification the advisor can
// justify from the trace alone: WAW tolerances for shared-as-local
// locations. RAW candidates are excluded — enable them explicitly after
// review (WithCandidates).
func (r *Report) SafeRelaxations() *conflict.Relaxations {
	var raw, waw []state.Loc
	for _, f := range r.Findings {
		if f.SuggestWAW {
			waw = append(waw, f.Loc)
		}
		if f.SuggestRAW {
			raw = append(raw, f.Loc)
		}
	}
	return conflict.NewRelaxations(raw, waw)
}

// Render prints the report.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "%-28s %-6s %-6s %-16s %s\n", "location", "plocs", "tasks", "pattern", "suggestion")
	for _, f := range r.Findings {
		var suggestions []string
		if f.SuggestWAW {
			suggestions = append(suggestions, "tolerate WAW (safe)")
		}
		if f.SuggestRAW {
			suggestions = append(suggestions, "tolerate RAW (safe)")
		}
		if f.CandidateRAW {
			suggestions = append(suggestions, "tolerate RAW (confirm)")
		}
		if len(suggestions) == 0 {
			suggestions = append(suggestions, "-")
		}
		fmt.Fprintf(w, "%-28s %-6d %-6d %-16s %s\n", f.Loc, f.PLocs, f.Tasks, f.Pattern, strings.Join(suggestions, ", "))
		fmt.Fprintf(w, "%-28s   ↳ %s\n", "", f.Rationale)
	}
}
