// Package adt provides the concrete operations and typed shared-object
// handles of the JANUS reproduction. Scalar handles (Counter, StrVar,
// BoolVar) cover memory-level statements; relational handles (BitSet,
// KVMap, IntArray, Canvas, Stack) cover the abstract data types whose
// semantic states are the relations of §6 (a user-provided "representation
// function" in the paper's terms).
//
// Every handle method builds an oplog.Op and submits it to an Executor —
// the transaction during parallel runs (internal/stm) or the profiler
// during training (internal/spec). The op's kind, an OpKind, carries its
// semantics and footprint computation, so the executor needs no knowledge
// of them. The op structs (NumAddOp, RelPutOp, ...) name an operation's
// operands; their Op method builds the value that is logged.
package adt

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/oplog"
	"repro/internal/state"
)

// Executor applies operations; implemented by stm.Tx and train.Profiler.
// What executing an op allocates is what OpKind.Apply computes, plus
// the executor's own log (amortized to nothing once its storage is
// warm): the op itself is a value, and a string store's value was boxed
// by its caller.
type Executor interface {
	Exec(op oplog.Op) (state.Value, error)
}

// Task is a unit of parallelizable work: one loop iteration of the
// paper's benchmarks, cast into a closure over an Executor. Tasks must be
// deterministic and re-runnable from scratch (RUNTASK of Figure 7 retries
// aborted tasks), and must route every shared-state access through the
// executor. A commit relies on that determinism: it publishes the values
// the task's ops computed on the transaction's private state wherever no
// concurrent commit wrote, and re-applies the logged ops elsewhere (see
// oplog.Op.Apply), so nothing outside the executor may steer an op.
type Task func(ex Executor) error

// CostSink is implemented by executors that account a task's local
// (non-shared) computation in virtual time — the wrapper stm.Simulate puts
// around a transaction, and the training profiler — instead of burning
// CPU.
type CostSink interface {
	AddLocalWork(units int64)
}

// LocalWork performs units of local computation on behalf of a task.
// Under a CostSink executor the units are charged to virtual time; under
// the wall-clock runtime the CPU spins for real, so wall-clock
// measurements on multi-core hosts see genuine parallel work.
func LocalWork(ex Executor, units int64) {
	if sink, ok := ex.(CostSink); ok {
		sink.AddLocalWork(units)
		return
	}
	atomic.AddUint64(&spinSink, spin(units))
}

// spin is deterministic xorshift churn standing in for application
// compute; the result must be consumed to defeat dead-code elimination.
func spin(units int64) uint64 {
	x := uint64(88172645463325252 + units)
	for i := int64(0); i < units; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

var spinSink uint64

// Operation kind names. These appear in mined sequences, cache keys, and
// traces; they are part of the package's stable surface.
const (
	KindNumAdd    = "num.add"
	KindNumStore  = "num.store"
	KindNumLoad   = "num.load"
	KindStrStore  = "str.store"
	KindStrLoad   = "str.load"
	KindBoolStore = "bool.store"
	KindBoolLoad  = "bool.load"
	KindListPush  = "list.push"
	KindListPop   = "list.pop"
	KindListSize  = "list.size"
	KindRelPut    = "rel.put"
	KindRelRemove = "rel.remove"
	KindRelGet    = "rel.get"
	KindRelHas    = "rel.has"
	KindRelClear  = "rel.clear"
)

// OpKind is the oplog.Kind of every operation this package defines. It is
// one byte, which an interface holds without allocating, so an Op logs by
// value. The values are the op codes of the trace format (internal/rec):
// append only.
type OpKind uint8

// Operation kinds, in trace op-code order.
const (
	NumAdd OpKind = iota + 1
	NumStore
	NumLoad
	StrStore
	StrLoad
	BoolStore
	BoolLoad
	ListPush
	ListPop
	ListSize
	RelPut
	RelRemove
	RelGet
	RelHas
	RelClear
)

// kindNames maps an OpKind to the name its descriptors carry.
var kindNames = [...]string{
	NumAdd: KindNumAdd, NumStore: KindNumStore, NumLoad: KindNumLoad,
	StrStore: KindStrStore, StrLoad: KindStrLoad,
	BoolStore: KindBoolStore, BoolLoad: KindBoolLoad,
	ListPush: KindListPush, ListPop: KindListPop, ListSize: KindListSize,
	RelPut: KindRelPut, RelRemove: KindRelRemove, RelGet: KindRelGet, RelHas: KindRelHas, RelClear: KindRelClear,
}

// Apply implements oplog.Kind. It allocates only what the op computes:
// a num.add's or num.store's new integer (Go boxes one below 256 without
// allocating), a pop's, size's or get's result, and a relation write's
// path copy. A str.store binds the box its op carries, a store
// of an equal scalar binds nothing, a load returns the value held, and a
// list or relation op updates the value bound in st in place.
func (k OpKind) Apply(o oplog.Op, st *state.State) (state.Value, error) {
	switch k {
	case NumAdd:
		v, err := getInt(st, o.L)
		if err != nil {
			return nil, err
		}
		st.Set(o.L, state.Int(v+o.N))
	case NumStore:
		if !holds(st, o.L, state.Int(o.N)) {
			st.Set(o.L, state.Int(o.N))
		}
	case NumLoad:
		// The value the location holds, not a copy boxed again.
		return load[state.Int](st, o.L, "Int")
	case StrStore:
		// The op carries its value boxed (StrVar.Store): binding it
		// allocates nothing.
		if !holds(st, o.L, o.V.(state.Str)) {
			st.Set(o.L, o.V)
		}
	case StrLoad:
		return load[state.Str](st, o.L, "Str")
	case BoolStore:
		st.Set(o.L, state.Bool(o.N != 0))
	case BoolLoad:
		return load[state.Bool](st, o.L, "Bool")
	case ListPush:
		// The list bound in st is st's own (state.Value): it grows in place.
		l, err := getList(st, o.L)
		if err != nil {
			return nil, err
		}
		l.Push(o.N)
	case ListPop:
		l, err := getList(st, o.L)
		if err != nil {
			return nil, err
		}
		n := len(*l)
		if n == 0 {
			return nil, fmt.Errorf("adt: pop from empty list %q", o.L)
		}
		top := (*l)[n-1]
		*l = (*l)[:n-1]
		return state.Int(top), nil
	case ListSize:
		l, err := getList(st, o.L)
		if err != nil {
			return nil, err
		}
		return state.Int(len(*l)), nil
	default:
		return k.applyRel(o, st)
	}
	return nil, nil
}

// AppendAccesses implements oplog.Kind. A scalar op touches its location
// whole; a list op reads and writes the whole list (a structural update);
// a relational op touches its key, per the footprints of Table 3 and §6.2.
func (k OpKind) AppendAccesses(o oplog.Op, dst []oplog.Access, st *state.State) []oplog.Access {
	p := oplog.PLoc{Loc: o.L}
	switch k {
	case NumAdd, ListPush, ListPop:
		return append(dst, oplog.Access{P: p, Read: true, Write: true})
	case NumStore, StrStore, BoolStore:
		return append(dst, oplog.Access{P: p, Write: true})
	case NumLoad, StrLoad, BoolLoad, ListSize:
		return append(dst, oplog.Access{P: p, Read: true})
	case RelPut:
		return append(dst, oplog.Access{P: relPLoc(o.L, o.Key), Write: true})
	case RelGet, RelHas:
		return append(dst, oplog.Access{P: relPLoc(o.L, o.Key), Read: true})
	case RelRemove:
		return appendRemoveAccess(dst, o, st)
	case RelClear:
		return appendClearAccesses(dst, o, st)
	}
	panic(fmt.Sprintf("adt: unknown op kind %d", k))
}

// Sym implements oplog.Kind. An integer argument stays an integer. A
// relational key is part of the projection location, so a put's only
// generalizable argument is its value.
func (k OpKind) Sym(o oplog.Op) oplog.Sym {
	switch k {
	case NumAdd, NumStore, ListPush:
		return oplog.Sym{Kind: kindNames[k], N: o.N, Int: true}
	case StrStore:
		return oplog.Sym{Kind: KindStrStore, Arg: string(o.V.(state.Str))}
	case RelPut:
		return oplog.Sym{Kind: KindRelPut, Arg: o.Val}
	case BoolStore:
		return oplog.Sym{Kind: KindBoolStore, Arg: strconv.FormatBool(o.N != 0)}
	}
	return oplog.Sym{Kind: kindNames[k]}
}

// IsRead implements oplog.Kind: loads, pops (the popped value flows to the
// task), sizes, gets and has-tests observe; adds, stores, pushes, puts,
// removes and clears do not.
func (k OpKind) IsRead(oplog.Op) bool {
	switch k {
	case NumLoad, StrLoad, BoolLoad, ListPop, ListSize, RelGet, RelHas:
		return true
	}
	return false
}

// String implements oplog.Kind.
func (k OpKind) String(o oplog.Op) string {
	switch k {
	case NumAdd:
		return fmt.Sprintf("%s+=%d", o.L, o.N)
	case NumStore:
		return fmt.Sprintf("%s=%d", o.L, o.N)
	case NumLoad, StrLoad, BoolLoad:
		return fmt.Sprintf("load(%s)", o.L)
	case StrStore:
		return fmt.Sprintf("%s=%q", o.L, string(o.V.(state.Str)))
	case BoolStore:
		return fmt.Sprintf("%s=%t", o.L, o.N != 0)
	case ListPush:
		return fmt.Sprintf("%s.push(%d)", o.L, o.N)
	case ListPop:
		return fmt.Sprintf("%s.pop()", o.L)
	case ListSize:
		return fmt.Sprintf("%s.size()", o.L)
	case RelPut:
		return fmt.Sprintf("%s[%s]=%s", o.L, o.Key, o.Val)
	case RelRemove:
		return fmt.Sprintf("del %s[%s]", o.L, o.Key)
	case RelGet:
		return fmt.Sprintf("%s[%s]", o.L, o.Key)
	case RelHas:
		return fmt.Sprintf("%s.has(%s)", o.L, o.Key)
	case RelClear:
		return fmt.Sprintf("%s.clear()", o.L)
	}
	return fmt.Sprintf("adt.OpKind(%d)", k)
}

// --- Scalar and list operations ---

// NumAddOp adds Delta to the integer at L (a read-modify-write).
type NumAddOp struct {
	L     state.Loc
	Delta int64
}

// Op returns the operation.
func (o NumAddOp) Op() oplog.Op { return oplog.Op{K: NumAdd, L: o.L, N: o.Delta} }

// NumStoreOp overwrites the integer at L.
type NumStoreOp struct {
	L state.Loc
	V int64
}

// Op returns the operation.
func (o NumStoreOp) Op() oplog.Op { return oplog.Op{K: NumStore, L: o.L, N: o.V} }

// NumLoadOp reads the integer at L.
type NumLoadOp struct{ L state.Loc }

// Op returns the operation.
func (o NumLoadOp) Op() oplog.Op { return oplog.Op{K: NumLoad, L: o.L} }

// StrStoreOp overwrites the string at L with V, which must hold a
// state.Str: the op binds V as it is, so a caller that boxed it once
// stores it any number of times without allocating.
type StrStoreOp struct {
	L state.Loc
	V state.Value
}

// Op returns the operation.
func (o StrStoreOp) Op() oplog.Op { return oplog.Op{K: StrStore, L: o.L, V: o.V} }

// StrLoadOp reads the string at L.
type StrLoadOp struct{ L state.Loc }

// Op returns the operation.
func (o StrLoadOp) Op() oplog.Op { return oplog.Op{K: StrLoad, L: o.L} }

// BoolStoreOp overwrites the boolean at L.
type BoolStoreOp struct {
	L state.Loc
	V bool
}

// Op returns the operation: the boolean travels as N, 1 for true.
func (o BoolStoreOp) Op() oplog.Op {
	var n int64
	if o.V {
		n = 1
	}
	return oplog.Op{K: BoolStore, L: o.L, N: n}
}

// BoolLoadOp reads the boolean at L.
type BoolLoadOp struct{ L state.Loc }

// Op returns the operation.
func (o BoolLoadOp) Op() oplog.Op { return oplog.Op{K: BoolLoad, L: o.L} }

// ListPushOp appends V to the integer list at L.
type ListPushOp struct {
	L state.Loc
	V int64
}

// Op returns the operation.
func (o ListPushOp) Op() oplog.Op { return oplog.Op{K: ListPush, L: o.L, N: o.V} }

// ListPopOp removes and returns the last element of the list at L.
type ListPopOp struct{ L state.Loc }

// Op returns the operation.
func (o ListPopOp) Op() oplog.Op { return oplog.Op{K: ListPop, L: o.L} }

// ListSizeOp reads the length of the list at L.
type ListSizeOp struct{ L state.Loc }

// Op returns the operation.
func (o ListSizeOp) Op() oplog.Op { return oplog.Op{K: ListSize, L: o.L} }

func getInt(st *state.State, l state.Loc) (int64, error) {
	v, ok := st.Get(l)
	if !ok {
		return 0, fmt.Errorf("adt: unbound location %q", l)
	}
	iv, ok := v.(state.Int)
	if !ok {
		return 0, fmt.Errorf("adt: location %q holds %T, want Int", l, v)
	}
	return int64(iv), nil
}

func getList(st *state.State, l state.Loc) (*state.IntList, error) {
	v, ok := st.Get(l)
	if !ok {
		return nil, fmt.Errorf("adt: unbound location %q", l)
	}
	lv, ok := v.(*state.IntList)
	if !ok {
		return nil, fmt.Errorf("adt: location %q holds %T, want IntList", l, v)
	}
	return lv, nil
}

// holds reports whether l is bound to a T equal to v. A store of an
// equal value binds nothing new: the location holds the stored value
// either way, so install, replay, Undo and digests read the same, and the
// store's footprint and logged event are the op's, not the branch's. The
// Get may fault l into a view; the store's result does not depend on what
// it finds (DESIGN.md §19).
func holds[T state.Int | state.Str](st *state.State, l state.Loc, v T) bool {
	cur, ok := st.Get(l)
	if !ok {
		return false
	}
	c, ok := cur.(T)
	return ok && c == v
}

// load returns the value at l, which must be bound and of type T (named
// want in the error).
func load[T state.Value](st *state.State, l state.Loc, want string) (state.Value, error) {
	v, ok := st.Get(l)
	if !ok {
		return nil, fmt.Errorf("adt: unbound location %q", l)
	}
	if _, ok := v.(T); !ok {
		return nil, fmt.Errorf("adt: location %q holds %T, want %s", l, v, want)
	}
	return v, nil
}
