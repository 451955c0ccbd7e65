package relation

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// The relation's storage is a hash-array-mapped trie from key to value
// with path copying, a fully persistent structure (Driscoll et al. [10] in
// the paper): every update leaves the versions it started from readable
// and updatable, which is what lets JANUS §4.1 privatize a relation in
// O(1) and lets concurrent transactions derive their own versions.
//
// A node keeps its bindings and its children apart, each under its own
// bitmap (the CHAMP layout). A relation that writes draws an owner id,
// never reused, and stamps it on the node headers it creates, with a bit
// per slice that is its own too; it writes those in place and copies the
// rest, so only its first write after a Clone copies a path. Clone
// freezes both versions (owner 0), so no node either reaches is written
// again.

const (
	branchBits = 5
	branchMask = 1<<branchBits - 1
	// hashBits is where the hash runs out: a node at this depth holds
	// bindings whose hashes are all equal, unordered and without bitmaps.
	hashBits = 64
)

// The low bits of a stamp; the rest is the owner id.
const (
	ownKVs  = 1 << iota // the node's kvs are its stamp's owner's
	ownKids             // the node's kids are its stamp's owner's
	idStep              // the distance between owner ids
)

type node struct {
	datamap, nodemap uint32    // which 5-bit hash slices hold a binding, a child
	stamp            uint64    // owner id | ownKVs | ownKids; 0: frozen
	kvs              []binding // in datamap's bit order
	kids             []*node   // in nodemap's bit order; a child holds two bindings or more
}

// binding is key ↦ val, with hash key's hash.
type binding struct {
	hash     uint64
	key, val string
}

// lastOwner is the last owner id drawn; at 1/ns it wraps in 146 years.
var lastOwner atomic.Uint64

// newOwner returns an owner id no version has held.
func newOwner() uint64 { return lastOwner.Add(idStep) }

// index is the position of bit's entry among those bitmap has.
func index(bitmap, bit uint32) int { return bits.OnesCount32(bitmap & (bit - 1)) }

// bitOf is the bitmap bit of h's 5-bit slice at shift.
func bitOf(h uint64, shift uint) uint32 { return 1 << (h >> shift & branchMask) }

// writable returns *s ready for the owner of *stamp to write in place: *s
// itself when the stamp's bit says it is the owner's, else a copy with
// room for grow more, which becomes so.
func writable[T any](s *[]T, stamp *uint64, bit uint64, grow int) []T {
	if *stamp&bit == 0 {
		*s, *stamp = append(make([]T, 0, len(*s)+grow), *s...), *stamp|bit
	}
	return *s
}

func (n *node) writableKVs(grow int) []binding { return writable(&n.kvs, &n.stamp, ownKVs, grow) }
func (n *node) writableKids(grow int) []*node  { return writable(&n.kids, &n.stamp, ownKids, grow) }

// child returns n's j-th child ready for id to write: the child itself
// when its header is id's, else a copy stamped id (sharing the child's
// slices), which takes its place in n.
func (n *node) child(j int, id uint64) *node {
	c := n.kids[j]
	if c.stamp&^(idStep-1) != id {
		c = &node{datamap: c.datamap, nodemap: c.nodemap, stamp: id, kvs: c.kvs, kids: c.kids}
		n.writableKids(0)[j] = c
	}
	return c
}

func (n *node) get(h uint64, key string) (string, bool) {
	for shift := uint(0); ; shift += branchBits {
		if shift >= hashBits {
			for i := range n.kvs {
				if n.kvs[i].key == key {
					return n.kvs[i].val, true
				}
			}
			return "", false
		}
		bit := bitOf(h, shift)
		switch {
		case n.datamap&bit != 0:
			b := &n.kvs[index(n.datamap, bit)]
			if b.hash == h && b.key == key {
				return b.val, true
			}
			return "", false
		case n.nodemap&bit != 0:
			n = n.kids[index(n.nodemap, bit)]
		default:
			return "", false
		}
	}
}

// set binds key (of hash h) to val below n, whose header is id's, and
// returns the value it replaced.
func (n *node) set(h uint64, shift uint, key, val string, id uint64) (old string, had bool) {
	if shift >= hashBits {
		if i := slices.IndexFunc(n.kvs, func(b binding) bool { return b.key == key }); i >= 0 {
			old = n.kvs[i].val
			n.writableKVs(0)[i].val = val
			return old, true
		}
		n.kvs = append(n.writableKVs(1), binding{h, key, val})
		return "", false
	}
	bit := bitOf(h, shift)
	switch {
	case n.datamap&bit != 0:
		i := index(n.datamap, bit)
		b := n.kvs[i]
		if b.hash == h && b.key == key {
			n.writableKVs(0)[i].val = val
			return b.val, true
		}
		// b moves down into a child it shares with the new binding.
		n.kvs = slices.Delete(n.writableKVs(0), i, i+1)
		n.datamap &^= bit
		n.kids = slices.Insert(n.writableKids(1), index(n.nodemap, bit), pair(b, binding{h, key, val}, shift+branchBits, id))
		n.nodemap |= bit
		return "", false
	case n.nodemap&bit != 0:
		return n.child(index(n.nodemap, bit), id).set(h, shift+branchBits, key, val, id)
	default:
		n.kvs = slices.Insert(n.writableKVs(1), index(n.datamap, bit), binding{h, key, val})
		n.datamap |= bit
		return "", false
	}
}

// pair is the node at shift, owned by id, holding two bindings of
// distinct keys.
func pair(a, b binding, shift uint, id uint64) *node {
	if shift >= hashBits {
		return &node{stamp: id | ownKVs | ownKids, kvs: []binding{a, b}}
	}
	ia, ib := bitOf(a.hash, shift), bitOf(b.hash, shift)
	switch {
	case ia == ib:
		return &node{nodemap: ia, stamp: id | ownKVs | ownKids, kids: []*node{pair(a, b, shift+branchBits, id)}}
	case ia > ib:
		a, b = b, a
	}
	return &node{datamap: ia | ib, stamp: id | ownKVs | ownKids, kvs: []binding{a, b}}
}

// without unbinds key (of hash h), which is bound below n, whose header is
// id's.
func (n *node) without(h uint64, shift uint, key string, id uint64) {
	if shift >= hashBits {
		i := slices.IndexFunc(n.kvs, func(b binding) bool { return b.key == key })
		n.kvs = slices.Delete(n.writableKVs(0), i, i+1)
		return
	}
	bit := bitOf(h, shift)
	if n.datamap&bit != 0 {
		i := index(n.datamap, bit)
		n.kvs = slices.Delete(n.writableKVs(0), i, i+1)
		n.datamap &^= bit
		return
	}
	j := index(n.nodemap, bit)
	c := n.kids[j]
	for len(c.kvs) == 0 && len(c.kids) == 1 {
		c = c.kids[0]
	}
	if len(c.kvs) != 2 || len(c.kids) != 0 {
		n.child(j, id).without(h, shift+branchBits, key, id)
		return
	}
	// A lone binding moves up, so a child holds two or more.
	b := c.kvs[0]
	if b.key == key {
		b = c.kvs[1]
	}
	n.kids = slices.Delete(n.writableKids(0), j, j+1)
	n.nodemap &^= bit
	n.kvs = slices.Insert(n.writableKVs(1), index(n.datamap, bit), b)
	n.datamap |= bit
}

// each calls fn for every binding below n, in no particular order, until
// fn returns false.
func (n *node) each(fn func(b *binding) bool) bool {
	for i := range n.kvs {
		if !fn(&n.kvs[i]) {
			return false
		}
	}
	for _, c := range n.kids {
		if !c.each(fn) {
			return false
		}
	}
	return true
}
