// The committed store: one atomic value box per shared location.
//
// Transactions privatize from — and publication merges into — the
// committed version of the shared state. An earlier revision kept
// that version as one immutable persistent map swapped wholesale per
// commit, which made every merge pay O(log n) HAMT path copies per
// written location and every fault a trie walk; on the allocation-bound
// commit path those path copies were the single largest allocation
// site. The box store flattens the version into a frozen Go map of
// per-location boxes (locations present in the initial state) plus a
// small persistent-map overflow for locations created mid-run: a merge
// is one atomic pointer store per written location and a fault is one
// map hit plus an atomic load, both lock-free.
//
// What the flattening gives up is cross-location snapshot atomicity:
// two faults by one transaction may observe values from different
// published prefixes. The protocol never needed more. Every faulted
// value is some published commit's value for that location; a commit
// whose published write the transaction could have observed necessarily
// overlaps the transaction's footprint, so it is either at or below the
// validated fetch watermark (its entry was detected against) or above
// it (caught by the commit-time signature screen, which sends the
// attempt back to re-detection). Replay recomputes every operation
// against the stripe-protected committed values at publication time, so
// observed execution values never leak into the committed state.
package stm

import (
	"sync/atomic"

	"repro/internal/state"
)

// locBox holds one location's committed value. A nil pointer means the
// location has no committed value yet (an overflow box becomes visible
// before its creating commit's merge stores into it).
type locBox struct {
	v atomic.Pointer[state.Value]
}

// storeGet is the committed store's read: base-table hit or overflow
// lookup, then one atomic load. It is the fault function behind every
// transaction's private and snapshot views and the replay overlay.
func (r *Runtime) storeGet(l state.Loc) (state.Value, bool) {
	b := r.base[l]
	if b == nil {
		if ov := r.over.Load(); ov != nil {
			b, _ = ov.Get(string(l))
		}
		if b == nil {
			return nil, false
		}
	}
	p := b.v.Load()
	if p == nil {
		return nil, false
	}
	return *p, true
}

// storeSet publishes one location's committed value. Callers are
// serialized (publication turn or the global write lock), so growing the
// overflow map is a plain load-set-store; concurrent readers see either
// the old overflow (location absent) or the new one.
func (r *Runtime) storeSet(l state.Loc, v state.Value) {
	b := r.base[l]
	if b == nil {
		ov := r.over.Load()
		b, _ = ov.Get(string(l))
		if b == nil {
			b = new(locBox)
			r.over.Store(ov.Set(string(l), b))
		}
	}
	b.v.Store(&v)
}

// storeRange visits every location with a committed value. It is not an
// atomic snapshot across locations (see the package comment); its one
// caller, finalState, runs when the store is quiescent (run drained).
func (r *Runtime) storeRange(f func(l state.Loc, v state.Value) bool) {
	for l, b := range r.base {
		if p := b.v.Load(); p != nil {
			if !f(l, *p) {
				return
			}
		}
	}
	if ov := r.over.Load(); ov != nil {
		ov.Range(func(k string, b *locBox) bool {
			if p := b.v.Load(); p != nil {
				return f(state.Loc(k), *p)
			}
			return true
		})
	}
}
