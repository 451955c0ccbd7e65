// Package deps implements the training-time dependence analysis of JANUS
// §5.1: building the global dependence graph over a sequential trace
// (Equation 1), retrieving each location's maximal dependence path, and
// partitioning it at task boundaries into the per-task operation sequences
// that seed commutativity learning.
package deps

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/oplog"
)

// DepKind classifies a dependence edge.
type DepKind int

// Dependence kinds. Input reports a read-after-read (input) dependency,
// which Equation 1 subsumes; the others involve at least one write.
const (
	Flow   DepKind = iota // read after write
	Anti                  // write after read
	Output                // write after write
	Input                 // read after read
)

// String renders the kind.
func (k DepKind) String() string {
	switch k {
	case Flow:
		return "RAW"
	case Anti:
		return "WAR"
	case Output:
		return "WAW"
	default:
		return "RR"
	}
}

// Edge is a dependence between two trace events over one projection
// location: the event at trace position To depends on the one at From
// (From executes earlier).
type Edge struct {
	From, To int
	P        oplog.PLoc
	Kind     DepKind
}

// String renders the edge.
func (e Edge) String() string {
	return fmt.Sprintf("%d→%d over %s [%s]", e.To, e.From, e.P, e.Kind)
}

// Graph is the global dependence graph of a training trace.
type Graph struct {
	Trace oplog.Log
	Edges []Edge
}

// accessOf returns the event's access to p, if any.
func accessOf(e *oplog.Event, p oplog.PLoc) (oplog.Access, bool) {
	for _, a := range e.Accesses() {
		if a.P.Overlaps(p) {
			return a, true
		}
	}
	return oplog.Access{}, false
}

// Build constructs the dependence graph: for each projection location, the
// chain of accesses in trace order contributes an edge between each
// consecutive pair, classified by the access modes (Equation 1 instantiated
// at subvalue granularity; read-read pairs are Input dependencies).
func Build(trace oplog.Log) *Graph {
	g := &Graph{Trace: trace}
	chains := chainsByPLoc(trace)
	for _, p := range sortedPLocs(chains) {
		chain := chains[p]
		for i := 1; i < len(chain); i++ {
			prev, cur := chain[i-1], chain[i]
			pa, _ := accessOf(prev, p)
			ca, _ := accessOf(cur, p)
			var kind DepKind
			switch {
			case pa.Write && ca.Write:
				kind = Output
			case pa.Write && ca.Read:
				kind = Flow
			case pa.Read && ca.Write:
				kind = Anti
			default:
				kind = Input
			}
			g.Edges = append(g.Edges, Edge{From: prev.Seq, To: cur.Seq, P: p, Kind: kind})
		}
	}
	return g
}

// chainsByPLoc orders each projection location's accesses by trace
// position. Wildcard accesses are folded into every concrete key chain of
// the same location they overlap, as well as kept on their own chain.
func chainsByPLoc(trace oplog.Log) map[oplog.PLoc]oplog.Log {
	chains := make(map[oplog.PLoc]oplog.Log)
	// First pass: concrete PLocs.
	for _, e := range trace {
		for _, a := range e.Accesses() {
			chains[a.P] = append(chains[a.P], e)
		}
	}
	// Second pass: fold wildcard accesses into sibling key chains.
	for _, e := range trace {
		for _, a := range e.Accesses() {
			if !a.P.IsWildcard() {
				continue
			}
			for p := range chains {
				if p != a.P && a.P.Overlaps(p) {
					chains[p] = insertBySeq(chains[p], e)
				}
			}
		}
	}
	return chains
}

func insertBySeq(l oplog.Log, e *oplog.Event) oplog.Log {
	for _, x := range l {
		if x == e {
			return l
		}
	}
	l = append(l, e)
	sort.SliceStable(l, func(i, j int) bool { return l[i].Seq < l[j].Seq })
	return l
}

func sortedPLocs[T any](m map[oplog.PLoc]T) []oplog.PLoc {
	out := make([]oplog.PLoc, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TaskSeq is one task's contiguous run of operations on a single
// projection location — a candidate sequence for commutativity learning.
type TaskSeq struct {
	Task   int
	Events oplog.Log
}

// Syms projects the sequence onto symbolic descriptors.
func (s TaskSeq) Syms() []oplog.Sym { return s.Events.Syms() }

// String renders the sequence.
func (s TaskSeq) String() string {
	syms := s.Syms()
	parts := make([]string, len(syms))
	for i, sym := range syms {
		parts[i] = sym.String()
	}
	return fmt.Sprintf("task %d: %s", s.Task, strings.Join(parts, "; "))
}

// Mine partitions each location's maximal dependence path at task
// boundaries (§5.1 "Mining Sequences"). In a sequential training run each
// task's accesses to a location are contiguous, so the partition groups
// consecutive same-task events.
func Mine(trace oplog.Log) map[oplog.PLoc][]TaskSeq {
	chains := chainsByPLoc(trace)
	out := make(map[oplog.PLoc][]TaskSeq, len(chains))
	for p, chain := range chains {
		var seqs []TaskSeq
		for _, e := range chain {
			if n := len(seqs); n > 0 && seqs[n-1].Task == e.Task {
				seqs[n-1].Events = append(seqs[n-1].Events, e)
			} else {
				seqs = append(seqs, TaskSeq{Task: e.Task, Events: oplog.Log{e}})
			}
		}
		out[p] = seqs
	}
	return out
}

// SharedPLocs returns the projection locations accessed by more than one
// task — the only ones that can ever appear in a conflict query.
func SharedPLocs(mined map[oplog.PLoc][]TaskSeq) []oplog.PLoc {
	var out []oplog.PLoc
	for p, seqs := range mined {
		tasks := make(map[int]struct{})
		for _, s := range seqs {
			tasks[s.Task] = struct{}{}
		}
		if len(tasks) > 1 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
