// Package oplog defines the operation model of JANUS: logged operations
// with read/write footprints, transaction logs, and the DECOMPOSE step of
// the projection-based conflict-detection algorithm (Figure 8).
//
// Every shared-state access a task performs is an Op: a value holding the
// operation's Kind, which gives it its semantics, and its operands. Ops
// are immutable; applying one mutates a given state and returns the
// observed value (for reads). A transaction's log replays at commit time
// against the global state (REPLAYLOGGEDOPERATIONS in Figure 7) — in this
// runtime, the part of it that touches locations a concurrent commit
// wrote.
//
// Projection locations (PLoc) refine shared locations to the subvalue
// granularity of §5.1: a (location, key) pair, where a scalar location
// projects to itself (empty key) and a relational (ADT) location projects
// to one PLoc per key of the relation, so that per-location sequences
// (§5.3) are sequences of operations on a single key. The Decomposer is
// the one place a log is split by projection location: the detector
// queries its output and training mines it.
package oplog

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/state"
)

// PLoc is a projection location (§5.1): a shared location refined by a
// key. A scalar location projects to itself, with an empty Key; a
// relational location projects to one PLoc per key of the relation, the
// key itself, so the empty Key there is the empty key's binding, not the
// whole relation — the value at Loc tells the two apart. Two accesses
// overlap iff their PLocs are equal.
type PLoc struct {
	Loc state.Loc
	Key string
}

// String renders p as "loc", or "loc#key" when the key is not empty,
// where text leaves the program: traces, errors and `janus trace`. The
// rendering is never parsed back, so a location's own name may contain
// '#' (and a relation's empty key renders as its location).
func (p PLoc) String() string {
	if p.Key == "" {
		return string(p.Loc)
	}
	return string(p.Loc) + "#" + p.Key
}

// Access records that an operation touches a projection location.
type Access struct {
	P     PLoc
	Read  bool
	Write bool
}

// Sym is an operation's symbolic descriptor, the unit of sequence mining
// and commutativity caching. Kind names the operation (e.g. "num.add",
// "rel.put"). Its generalizable argument is the integer N when Int is set
// (num.add, num.store, list.push), so that detection reads a delta without
// rendering or parsing it; otherwise it is Arg, rendered as a string (""
// when the operation takes none).
type Sym struct {
	Kind string
	Arg  string
	N    int64
	Int  bool
}

// String renders the descriptor: the kind, followed by the argument in
// parentheses when there is one.
func (s Sym) String() string {
	if s.Int {
		return s.Kind + "(" + strconv.FormatInt(s.N, 10) + ")"
	}
	if s.Arg == "" {
		return s.Kind
	}
	return s.Kind + "(" + s.Arg + ")"
}

// Op is a loggable shared-state operation: a kind and its operands. It is
// a value, logged by copy, so an executor records an operation without
// allocating; what an operand means is its kind's to say (a location L, a
// relation key Key, a string Val, an integer N).
type Op struct {
	K   Kind
	L   state.Loc
	Key string
	Val string
	N   int64
}

// Kind is the semantics of a family of operations. Its methods take the
// operation by value: a value passed to an interface method does not
// escape, where a pointer to it would, so an Op on the caller's stack
// stays there. A kind should be a byte-sized or zero-size value, which an
// interface holds without allocating.
type Kind interface {
	// Apply executes o against st, returning the observed value for
	// reads (nil for pure effects). It must be a deterministic function
	// of o and of the values st holds at the locations AppendAccesses
	// names, and may touch no other location: the commit path installs a
	// location's privately computed value when no concurrent commit wrote
	// that location and re-applies the op only otherwise, so both must
	// yield the same value (stm.replayCompute). Apply may therefore run
	// once or several times per committed transaction.
	Apply(o Op, st *state.State) (state.Value, error)
	// AppendAccesses appends to dst the projection locations o touches
	// when executed in pre-state st, with read/write flags, and returns
	// the extended slice. This is the only dynamic context conflict
	// detection needs (§5.3: read and write sets). The executors pass a
	// buffer they reuse, so an op whose footprint is one location
	// computes it without allocating.
	AppendAccesses(o Op, dst []Access, st *state.State) []Access
	// Sym returns o's symbolic descriptor used for sequence matching.
	Sym(o Op) Sym
	// IsRead reports whether o observes a value that flows into the task
	// (GETREADSUBSEQUENCES of Figure 8 collects these).
	IsRead(o Op) bool
	// String renders o for traces and errors.
	String(o Op) string
}

// Apply executes the operation against st (Kind.Apply).
func (o Op) Apply(st *state.State) (state.Value, error) { return o.K.Apply(o, st) }

// AppendAccesses appends the operation's footprint in pre-state st to dst
// (Kind.AppendAccesses).
func (o Op) AppendAccesses(dst []Access, st *state.State) []Access {
	return o.K.AppendAccesses(o, dst, st)
}

// Sym returns the operation's symbolic descriptor (Kind.Sym).
func (o Op) Sym() Sym { return o.K.Sym(o) }

// IsRead reports whether the operation's result flows into the task
// (Kind.IsRead).
func (o Op) IsRead() bool { return o.K.IsRead(o) }

// String renders the operation (Kind.String).
func (o Op) String() string { return o.K.String(o) }

// Event is one executed operation in a trace or transaction log. Inside
// the runtime an Event lives in storage its log's artifact owns and a later
// transaction overwrites (conflict.Prepared.Recycle): whoever is handed a
// runtime log (stm.CommitSink) keeps copies of the structs, not pointers.
// A copy is whole: a one-location footprint is stored in the struct by
// value, so the copy's Accesses reads its own, and so is the operation.
// What an event refers to — the operation's strings, Observed and a
// multi-location footprint's slice — is allocated per operation and never
// reused.
type Event struct {
	Op   Op
	Task int // transaction/task identifier
	Seq  int // position in the global trace (training) or log (runtime)
	// Observed holds the value returned by a read op at execution time;
	// nil for effects. Training uses it to validate SAMEREAD concretely.
	Observed state.Value

	// The footprint as computed against the pre-state at execution time
	// (Accesses): nacc locations, held in one when there is one and in
	// many otherwise; nacc is -1 in a poisoned event (Poison).
	nacc int
	one  [1]Access
	many []Access
}

// NewEvent returns the event of op executed as operation seq of task,
// with footprint acc and observed value v. A one-location footprint is
// stored in the event by value and a longer one copied, so acc may be a
// buffer the caller reuses.
func NewEvent(op Op, task, seq int, acc []Access, v state.Value) Event {
	e := Event{Op: op, Task: task, Seq: seq, Observed: v, nacc: len(acc)}
	switch len(acc) {
	case 0:
	case 1:
		e.one[0] = acc[0]
	default:
		e.many = append([]Access(nil), acc...)
	}
	return e
}

// Accesses returns the event's footprint: the projection locations its
// operation touched, as computed against the pre-state at execution time.
// The slice is the event's own and must not be modified.
func (e *Event) Accesses() []Access {
	if e.nacc == 1 {
		return e.one[:]
	}
	if e.nacc < 0 {
		return e.poisonedAccesses()
	}
	return e.many
}

// poisonedAccesses asks a poisoned event's tombstone kind for the
// footprint, which panics: a stale reader must not see "touches
// nothing". Kept out of Accesses so that the reader every decomposition
// and footprint loop calls per event inlines.
//
//go:noinline
func (e *Event) poisonedAccesses() []Access { return e.Op.AppendAccesses(nil, nil) }

// Poison overwrites e with a tombstone whose operation is of kind k and
// whose footprint is k's to compute (Accesses calls k.AppendAccesses): a
// log's owner poisons its recycled events with a kind whose methods panic,
// so a stale reader fails at the footprint as at the op.
func (e *Event) Poison(k Kind) {
	*e = Event{Op: Op{K: k}, Task: -1, Seq: -1, nacc: -1}
}

// String renders the event for traces.
func (e *Event) String() string {
	return fmt.Sprintf("t%d/%d:%s", e.Task, e.Seq, e.Op)
}

// Log is an ordered sequence of events.
type Log []*Event

// Replay applies every logged op in order to st. Read operations are
// harmless no-ops on the state. This is REPLAYLOGGEDOPERATIONS (Figure 7).
func (l Log) Replay(st *state.State) error {
	for _, e := range l {
		if _, err := e.Op.Apply(st); err != nil {
			return fmt.Errorf("oplog: replaying %s: %w", e, err)
		}
	}
	return nil
}

// Syms projects the log onto symbolic descriptors.
func (l Log) Syms() []Sym {
	out := make([]Sym, len(l))
	for i, e := range l {
		out[i] = e.Op.Sym()
	}
	return out
}

// PLocSeq is one per-projection-location subsequence produced by
// Decomposer.Decompose.
type PLocSeq struct {
	P   PLoc
	Seq Log
}

// Decomposer performs ordered per-location decomposition with reusable
// buffers, so repeated decompositions (one per transaction attempt) only
// allocate when a capacity grows. The zero value is ready to use.
//
// Decomposition is two passes over the log. Pass one (Index) is the log's
// location index: it finds each access's projection location among those
// seen so far — the only lookup of the decomposition — and records the
// distinct locations in first-access order with their access counts,
// write flags and shared-location ordinals, and each access's slot among
// them. Pass two (Fill) carves the subsequences out of one arena by
// reading the slots back. Whatever else is derived per location — the
// commit path's footprint, the detector's per-location projections —
// reads the index instead of the accesses.
type Decomposer struct {
	infos []LocInfo
	slots []int32
	nlocs int // distinct shared locations among infos
	idx   map[PLoc]int
	lidx  map[state.Loc]int // see locIdx
	// useMap records whether the last indexed log was indexed through
	// idx and lidx (true) or by linear scan over infos.
	useMap bool
	out    []PLocSeq
	arena  Log
}

// LocInfo is one projection location of an indexed log: its subsequence
// length N, whether any of its accesses writes (Write), and LocIdx, the
// ordinal of P.Loc among the log's distinct shared locations in
// first-access order — so accesses to several keys of one relation share
// a LocIdx, and the first location with a given LocIdx is the first
// access to that shared location.
type LocInfo struct {
	P      PLoc
	N      int
	Write  bool
	LocIdx int
}

// linearScanAccesses bounds the access count under which Index finds
// locations by linear scan over the index; logs with at least this many
// accesses build the index maps. Only Index searches (Fill reads the
// slots), so the bound trades scan against map in the first pass alone.
// Measured with BenchmarkDecomposerCrossover (median of 6 on a 2-core
// Intel Xeon VM): when distinct locations grow with the log (its fixture,
// the scan's worst case) the two tie at 16 and 24 accesses and the map is
// ahead from 32 on (1.2× at 32, 1.35× at 40, 1.6× at 48); on a log over
// four locations the scan is ahead by about 1.5× at every size from 16 to
// 40. The bound stays at 32, between the two. A var so the crossover
// benchmark can pin either path at equal input sizes.
var linearScanAccesses = 32

// Index runs pass one of decomposition over l and returns its projection
// locations in first-access order. The slice is owned by the Decomposer
// and valid until its next Index, Decompose, Stream or Release call; a
// Fill of the same log may follow.
func (d *Decomposer) Index(l Log) []LocInfo {
	total := 0
	for _, e := range l {
		total += len(e.Accesses())
	}
	d.infos = d.infos[:0]
	d.slots = d.slots[:0]
	d.nlocs = 0
	d.useMap = total >= linearScanAccesses
	if d.useMap {
		if d.idx == nil {
			d.idx = make(map[PLoc]int, 16)
			d.lidx = make(map[state.Loc]int, 16)
		} else {
			clear(d.idx)
			clear(d.lidx)
		}
	}
	for _, e := range l {
		for _, a := range e.Accesses() {
			i := d.find(a.P)
			if i < 0 {
				i = len(d.infos)
				d.infos = append(d.infos, LocInfo{P: a.P, LocIdx: d.locIdx(a.P)})
				if d.useMap {
					d.idx[a.P] = i
				}
			}
			d.infos[i].N++
			d.infos[i].Write = d.infos[i].Write || a.Write
			d.slots = append(d.slots, int32(i))
		}
	}
	return d.infos
}

// find locates p among the indexed locations, by the index map or linear
// scan, whichever Index chose for the log.
func (d *Decomposer) find(p PLoc) int {
	if d.useMap {
		if i, ok := d.idx[p]; ok {
			return i
		}
		return -1
	}
	for i := range d.infos {
		if d.infos[i].P == p {
			return i
		}
	}
	return -1
}

// locIdx returns the ordinal of p.Loc among the shared locations indexed
// so far, p being a projection location not indexed yet, giving p.Loc the
// next ordinal if it is new. Called once per distinct projection
// location, not per access. In map mode lidx holds only the locations
// seen at a non-empty key: a location seen at the empty key alone has a
// single projection location, which idx finds, so a log of scalars never
// touches lidx.
func (d *Decomposer) locIdx(p PLoc) int {
	if !d.useMap {
		for i := range d.infos {
			if d.infos[i].P.Loc == p.Loc {
				return d.infos[i].LocIdx
			}
		}
		d.nlocs++
		return d.nlocs - 1
	}
	if len(d.lidx) > 0 {
		if j, ok := d.lidx[p.Loc]; ok {
			return j
		}
	}
	j := d.nlocs
	if p.Key != "" {
		if i, ok := d.idx[PLoc{Loc: p.Loc}]; ok {
			j = d.infos[i].LocIdx
		}
		d.lidx[p.Loc] = j
	}
	if j == d.nlocs {
		d.nlocs++
	}
	return j
}

// Fill runs pass two over l, which must be the log the last Index call
// indexed: it splits l into per-location subsequences in first-access
// order, program order within each, reading each access's slot from the
// index. The returned slice and the Logs it references are owned by the
// Decomposer and remain valid until its next Index, Decompose, Stream or
// Release call.
func (d *Decomposer) Fill(l Log) []PLocSeq {
	d.out = d.out[:0]
	if len(d.slots) == 0 {
		return d.out
	}
	if cap(d.arena) < len(d.slots) {
		d.arena = make(Log, len(d.slots))
	} else {
		d.arena = d.arena[:len(d.slots)]
	}
	off := 0
	for i := range d.infos {
		n := d.infos[i].N
		d.out = append(d.out, PLocSeq{P: d.infos[i].P, Seq: d.arena[off : off : off+n]})
		off += n
	}
	k := 0
	for _, e := range l {
		for range e.Accesses() {
			s := &d.out[d.slots[k]].Seq
			*s = append(*s, e)
			k++
		}
	}
	return d.out
}

// Decompose splits l into per-location subsequences in first-access
// order, program order within each (the DECOMPOSE step of Figure 8): an
// Index and a Fill of l. The returned slice and the Logs it references
// are owned by the Decomposer and remain valid until its next Index,
// Decompose, Stream or Release call; callers that retain the result must
// not reuse the Decomposer.
func (d *Decomposer) Decompose(l Log) []PLocSeq {
	d.Index(l)
	return d.Fill(l)
}

// Release drops the event references held by the Decomposer's buffers
// (keeping their capacity), so pooled decomposers do not pin old logs.
func (d *Decomposer) Release() {
	clear(d.arena)
	clear(d.out)
	d.out = d.out[:0]
	clear(d.infos)
	d.infos = d.infos[:0]
	d.slots = d.slots[:0]
	d.nlocs = 0
	d.useMap = false
}

// String renders the log compactly.
func (l Log) String() string {
	parts := make([]string, len(l))
	for i, e := range l {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}
