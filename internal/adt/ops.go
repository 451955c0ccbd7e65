// Package adt provides the concrete operations and typed shared-object
// handles of the JANUS reproduction. Scalar handles (Counter, StrVar,
// BoolVar) cover memory-level statements; relational handles (BitSet,
// KVMap, IntArray, Canvas, Stack) cover the abstract data types whose
// semantic states are the relations of §6 (a user-provided "representation
// function" in the paper's terms).
//
// Every handle method builds an oplog.Op and submits it to an Executor —
// the transaction during parallel runs (internal/stm) or the profiler
// during training (internal/train). The op carries its own footprint
// computation, so the executor needs no knowledge of operation semantics.
package adt

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/oplog"
	"repro/internal/state"
)

// Executor applies operations; implemented by stm.Tx and train.Profiler.
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

// --- Numeric scalar ops ---

// NumAddOp adds Delta to the integer at L (a read-modify-write).
type NumAddOp struct {
	L     state.Loc
	Delta int64
}

// Apply implements oplog.Op.
func (o NumAddOp) Apply(st *state.State) (state.Value, error) {
	v, err := getInt(st, o.L)
	if err != nil {
		return nil, err
	}
	st.Set(o.L, state.Int(v+o.Delta))
	return nil, nil
}

// AppendAccesses implements oplog.Op.
func (o NumAddOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: oplog.PLoc{Loc: o.L}, Read: true, Write: true})
}

// Sym implements oplog.Op.
func (o NumAddOp) Sym() oplog.Sym {
	return oplog.Sym{Kind: KindNumAdd, Arg: strconv.FormatInt(o.Delta, 10)}
}

// IsRead implements oplog.Op: the added-to value does not flow to the task.
func (o NumAddOp) IsRead() bool { return false }

// String implements fmt.Stringer.
func (o NumAddOp) String() string { return fmt.Sprintf("%s+=%d", o.L, o.Delta) }

// NumStoreOp overwrites the integer at L.
type NumStoreOp struct {
	L state.Loc
	V int64
}

// Apply implements oplog.Op.
func (o NumStoreOp) Apply(st *state.State) (state.Value, error) {
	st.Set(o.L, state.Int(o.V))
	return nil, nil
}

// AppendAccesses implements oplog.Op.
func (o NumStoreOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: oplog.PLoc{Loc: o.L}, Write: true})
}

// Sym implements oplog.Op.
func (o NumStoreOp) Sym() oplog.Sym {
	return oplog.Sym{Kind: KindNumStore, Arg: strconv.FormatInt(o.V, 10)}
}

// IsRead implements oplog.Op.
func (o NumStoreOp) IsRead() bool { return false }

// String implements fmt.Stringer.
func (o NumStoreOp) String() string { return fmt.Sprintf("%s=%d", o.L, o.V) }

// NumLoadOp reads the integer at L.
type NumLoadOp struct{ L state.Loc }

// Apply implements oplog.Op. It returns the value the location holds, not
// a copy boxed again.
func (o NumLoadOp) Apply(st *state.State) (state.Value, error) {
	v, ok := st.Get(o.L)
	if !ok {
		return nil, fmt.Errorf("adt: unbound location %q", o.L)
	}
	if _, ok := v.(state.Int); !ok {
		return nil, fmt.Errorf("adt: location %q holds %T, want Int", o.L, v)
	}
	return v, nil
}

// AppendAccesses implements oplog.Op.
func (o NumLoadOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: oplog.PLoc{Loc: o.L}, Read: true})
}

// Sym implements oplog.Op.
func (o NumLoadOp) Sym() oplog.Sym { return oplog.Sym{Kind: KindNumLoad} }

// IsRead implements oplog.Op.
func (o NumLoadOp) IsRead() bool { return true }

// String implements fmt.Stringer.
func (o NumLoadOp) String() string { return fmt.Sprintf("load(%s)", o.L) }

// --- String scalar ops ---

// StrStoreOp overwrites the string at L.
type StrStoreOp struct {
	L state.Loc
	V string
}

// Apply implements oplog.Op.
func (o StrStoreOp) Apply(st *state.State) (state.Value, error) {
	st.Set(o.L, state.Str(o.V))
	return nil, nil
}

// AppendAccesses implements oplog.Op.
func (o StrStoreOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: oplog.PLoc{Loc: o.L}, Write: true})
}

// Sym implements oplog.Op.
func (o StrStoreOp) Sym() oplog.Sym { return oplog.Sym{Kind: KindStrStore, Arg: o.V} }

// IsRead implements oplog.Op.
func (o StrStoreOp) IsRead() bool { return false }

// String implements fmt.Stringer.
func (o StrStoreOp) String() string { return fmt.Sprintf("%s=%q", o.L, o.V) }

// StrLoadOp reads the string at L.
type StrLoadOp struct{ L state.Loc }

// Apply implements oplog.Op. It returns the value the location holds, not
// a copy boxed again.
func (o StrLoadOp) Apply(st *state.State) (state.Value, error) {
	v, ok := st.Get(o.L)
	if !ok {
		return nil, fmt.Errorf("adt: unbound location %q", o.L)
	}
	if _, ok := v.(state.Str); !ok {
		return nil, fmt.Errorf("adt: location %q holds %T, want Str", o.L, v)
	}
	return v, nil
}

// AppendAccesses implements oplog.Op.
func (o StrLoadOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: oplog.PLoc{Loc: o.L}, Read: true})
}

// Sym implements oplog.Op.
func (o StrLoadOp) Sym() oplog.Sym { return oplog.Sym{Kind: KindStrLoad} }

// IsRead implements oplog.Op.
func (o StrLoadOp) IsRead() bool { return true }

// String implements fmt.Stringer.
func (o StrLoadOp) String() string { return fmt.Sprintf("load(%s)", o.L) }

// --- Boolean scalar ops ---

// BoolStoreOp overwrites the boolean at L.
type BoolStoreOp struct {
	L state.Loc
	V bool
}

// Apply implements oplog.Op.
func (o BoolStoreOp) Apply(st *state.State) (state.Value, error) {
	st.Set(o.L, state.Bool(o.V))
	return nil, nil
}

// AppendAccesses implements oplog.Op.
func (o BoolStoreOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: oplog.PLoc{Loc: o.L}, Write: true})
}

// Sym implements oplog.Op.
func (o BoolStoreOp) Sym() oplog.Sym {
	return oplog.Sym{Kind: KindBoolStore, Arg: strconv.FormatBool(o.V)}
}

// IsRead implements oplog.Op.
func (o BoolStoreOp) IsRead() bool { return false }

// String implements fmt.Stringer.
func (o BoolStoreOp) String() string { return fmt.Sprintf("%s=%t", o.L, o.V) }

// BoolLoadOp reads the boolean at L.
type BoolLoadOp struct{ L state.Loc }

// Apply implements oplog.Op.
func (o BoolLoadOp) Apply(st *state.State) (state.Value, error) {
	v, ok := st.Get(o.L)
	if !ok {
		return nil, fmt.Errorf("adt: unbound location %q", o.L)
	}
	if _, ok := v.(state.Bool); !ok {
		return nil, fmt.Errorf("adt: location %q holds %T, want Bool", o.L, v)
	}
	return v, nil
}

// AppendAccesses implements oplog.Op.
func (o BoolLoadOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: oplog.PLoc{Loc: o.L}, Read: true})
}

// Sym implements oplog.Op.
func (o BoolLoadOp) Sym() oplog.Sym { return oplog.Sym{Kind: KindBoolLoad} }

// IsRead implements oplog.Op.
func (o BoolLoadOp) IsRead() bool { return true }

// String implements fmt.Stringer.
func (o BoolLoadOp) String() string { return fmt.Sprintf("load(%s)", o.L) }

// --- List (stack) ops ---

// ListPushOp appends V to the integer list at L.
type ListPushOp struct {
	L state.Loc
	V int64
}

// Apply implements oplog.Op.
func (o ListPushOp) Apply(st *state.State) (state.Value, error) {
	l, err := getList(st, o.L)
	if err != nil {
		return nil, err
	}
	st.Set(o.L, append(append(state.IntList(nil), l...), o.V))
	return nil, nil
}

// AppendAccesses implements oplog.Op: structural update — read and write
// of the whole list value.
func (o ListPushOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: oplog.PLoc{Loc: o.L}, Read: true, Write: true})
}

// Sym implements oplog.Op.
func (o ListPushOp) Sym() oplog.Sym {
	return oplog.Sym{Kind: KindListPush, Arg: strconv.FormatInt(o.V, 10)}
}

// IsRead implements oplog.Op.
func (o ListPushOp) IsRead() bool { return false }

// String implements fmt.Stringer.
func (o ListPushOp) String() string { return fmt.Sprintf("%s.push(%d)", o.L, o.V) }

// ListPopOp removes and returns the last element of the list at L.
type ListPopOp struct{ L state.Loc }

// Apply implements oplog.Op.
func (o ListPopOp) Apply(st *state.State) (state.Value, error) {
	l, err := getList(st, o.L)
	if err != nil {
		return nil, err
	}
	if len(l) == 0 {
		return nil, fmt.Errorf("adt: pop from empty list %q", o.L)
	}
	top := l[len(l)-1]
	st.Set(o.L, append(state.IntList(nil), l[:len(l)-1]...))
	return state.Int(top), nil
}

// AppendAccesses implements oplog.Op.
func (o ListPopOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: oplog.PLoc{Loc: o.L}, Read: true, Write: true})
}

// Sym implements oplog.Op.
func (o ListPopOp) Sym() oplog.Sym { return oplog.Sym{Kind: KindListPop} }

// IsRead implements oplog.Op: the popped value flows to the task.
func (o ListPopOp) IsRead() bool { return true }

// String implements fmt.Stringer.
func (o ListPopOp) String() string { return fmt.Sprintf("%s.pop()", o.L) }

// ListSizeOp reads the length of the list at L.
type ListSizeOp struct{ L state.Loc }

// Apply implements oplog.Op.
func (o ListSizeOp) Apply(st *state.State) (state.Value, error) {
	l, err := getList(st, o.L)
	if err != nil {
		return nil, err
	}
	return state.Int(len(l)), nil
}

// AppendAccesses implements oplog.Op.
func (o ListSizeOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: oplog.PLoc{Loc: o.L}, Read: true})
}

// Sym implements oplog.Op.
func (o ListSizeOp) Sym() oplog.Sym { return oplog.Sym{Kind: KindListSize} }

// IsRead implements oplog.Op.
func (o ListSizeOp) IsRead() bool { return true }

// String implements fmt.Stringer.
func (o ListSizeOp) String() string { return fmt.Sprintf("%s.size()", o.L) }

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

func getList(st *state.State, l state.Loc) (state.IntList, error) {
	v, ok := st.Get(l)
	if !ok {
		return nil, fmt.Errorf("adt: unbound location %q", l)
	}
	lv, ok := v.(state.IntList)
	if !ok {
		return nil, fmt.Errorf("adt: location %q holds %T, want IntList", l, v)
	}
	return lv, nil
}
