// The committed store: one atomic value box per shared location.
//
// Transactions privatize from — and publication merges into — the
// committed version of the shared state. The store is flat: a frozen Go
// map of per-location boxes for the locations present in the initial
// state, plus an insert-only sharded table for locations created mid-run.
// A merge is one atomic pointer store per written location and a fault is
// one map hit plus an atomic load. The initial boxes and values are two
// slabs, and a commit's published values one slab of its own, so building
// the store allocates once per runtime and a merge once per commit, not
// per location. A Run on an open runtime builds nothing of the store.
// What a commit publishes is the value its transaction's view (or replay
// overlay) built, moved into the store and unbound from the view when the
// shell is released, never copied: the store is then the value's one
// owner and never mutates it, so a fault copies it (state.Copy) and Undo
// may store a replaced value back as it is.
// Creating a location costs an amortized map slot and a box carved from
// a slab, both under one shard's lock — the same at 100 existing overflow
// locations and at 20 000, which matters because creation runs inside the
// serialized publication turn. Boxes are never removed or replaced, so a reader that
// found one may keep using it without the shard lock.
//
// What the flattening gives up is cross-location snapshot atomicity:
// two faults by one transaction may observe values from different
// published prefixes. The protocol never needed more. Every faulted
// value is some published commit's value for that location; a commit
// whose published write the transaction could have observed necessarily
// overlaps the transaction's footprint, so it is either at or below the
// validated fetch watermark (its entry was detected against, and its
// written locations are the ones the commit replays — see commit.go) or
// above it (caught by the commit-time signature screen, which sends the
// attempt back to re-detection). A private value is installed only for a
// location no commit wrote since the transaction began, so observed
// execution values never leak into the committed state.
package stm

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/state"
)

// locBox holds one location's committed value. A nil pointer means the
// location has no committed value (an overflow box becomes visible before
// its creating commit's merge stores into it, and Undo unbinds a location
// the undone Run created). prev is the value the box held before Run
// epoch first published to it, nil if the box was new: what Undo stores
// back. Only the publication turn and Undo touch prev and epoch.
type locBox struct {
	v     atomic.Pointer[state.Value]
	prev  *state.Value
	epoch uint64
}

// overflowShards is the overflow table's shard count: enough that two
// workers faulting mid-run locations rarely meet on one shard's lock.
const overflowShards = 64

// overflowSlab is how many boxes a shard allocates at once. Boxes are
// never freed, so a slab pins nothing its boxes would not; what a shard
// has not handed out yet is at most one slab.
const overflowSlab = 16

// overflowShard is one shard of the overflow table. Readers (faults) take
// the read side; creation takes the write side and is already serialized
// across shards by the publication turn. slab holds the boxes the shard
// has allocated and not handed out yet.
type overflowShard struct {
	mu   sync.RWMutex
	m    map[state.Loc]*locBox
	slab []locBox
}

// overflow is the insert-only table of locations created mid-run.
type overflow struct {
	seed   maphash.Seed
	shards [overflowShards]overflowShard
}

func (o *overflow) shard(l state.Loc) *overflowShard {
	return &o.shards[maphash.String(o.seed, string(l))%overflowShards]
}

// get returns l's box, or nil if no commit has created l.
func (o *overflow) get(l state.Loc) *locBox {
	s := o.shard(l)
	s.mu.RLock()
	b := s.m[l]
	s.mu.RUnlock()
	return b
}

// create returns l's box, inserting an empty one if l is new.
func (o *overflow) create(l state.Loc) *locBox {
	s := o.shard(l)
	s.mu.Lock()
	b := s.m[l]
	if b == nil {
		if s.m == nil {
			s.m = make(map[state.Loc]*locBox)
		}
		if len(s.slab) == 0 {
			s.slab = make([]locBox, overflowSlab)
		}
		b = &s.slab[0]
		s.slab = s.slab[1:]
		s.m[l] = b
	}
	s.mu.Unlock()
	return b
}

// storeGet is the committed store's read: base-table hit or overflow
// lookup, then one atomic load. It is the fault function behind every
// transaction's private view and the replay overlay.
func (r *Runtime) storeGet(l state.Loc) (state.Value, bool) {
	b := r.base[l]
	if b == nil {
		if b = r.over.get(l); b == nil {
			return nil, false
		}
	}
	p := b.v.Load()
	if p == nil {
		return nil, false
	}
	return *p, true
}

// storeSet publishes one location's committed value, held at v (a slot
// of the publishing commit's value slab, never written again). The first
// time a Run publishes a location, the box keeps the value it replaces
// for Undo. Callers are serialized by the publication turn.
func (r *Runtime) storeSet(l state.Loc, v *state.Value) {
	b := r.base[l]
	if b == nil {
		if b = r.over.get(l); b == nil {
			b = r.over.create(l)
		}
	}
	if b.epoch != r.epoch {
		b.epoch, b.prev = r.epoch, b.v.Load()
	}
	b.v.Store(v)
}

// Range visits every location with a committed value, until f returns
// false. It is not an atomic snapshot across locations (see the package
// comment): call it between Runs, when the store is quiescent. The values
// are the store's own: f reads them and must not mutate or bind them.
func (r *Runtime) Range(f func(l state.Loc, v state.Value) bool) {
	r.eachBox(func(l state.Loc, b *locBox) bool {
		p := b.v.Load()
		return p == nil || f(l, *p)
	})
}

// eachBox visits every box of the store, bound or not, until f returns
// false.
func (r *Runtime) eachBox(f func(l state.Loc, b *locBox) bool) {
	for l, b := range r.base {
		if !f(l, b) {
			return
		}
	}
	for i := range r.over.shards {
		for l, b := range r.over.shards[i].m {
			if !f(l, b) {
				return
			}
		}
	}
}
