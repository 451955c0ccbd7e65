package relation

import (
	"math/bits"
	"slices"
)

// The relation's storage is a hash-array-mapped trie from key to value
// with path copying, a fully persistent structure (Driscoll et al. [10] in
// the paper): every update leaves the versions it started from readable
// and updatable, which is what lets JANUS §4.1 privatize a relation in
// O(1) and lets concurrent transactions derive their own versions.
//
// A node keeps its bindings and its children apart, each under its own
// bitmap (the CHAMP layout). A write copies, on its way down, each
// ancestor's slice of child pointers (8 bytes a child) and the child, and
// at the bottom the binding slice of the node it lands in; the bindings
// of the levels above it are shared, not copied.

const (
	branchBits = 5
	branchMask = 1<<branchBits - 1
	// hashBits is where the hash runs out: a node at this depth holds
	// bindings whose hashes are all equal, unordered and without bitmaps.
	hashBits = 64
)

type node struct {
	datamap, nodemap uint32    // which 5-bit hash slices hold a binding, a child
	kvs              []binding // in datamap's bit order
	kids             []*node   // in nodemap's bit order; a child holds two bindings or more
}

// binding is key ↦ val, with hash key's hash.
type binding struct {
	hash     uint64
	key, val string
}

// index is the position of bit's entry among those bitmap has.
func index(bitmap, bit uint32) int { return bits.OnesCount32(bitmap & (bit - 1)) }

// bitOf is the bitmap bit of h's 5-bit slice at shift.
func bitOf(h uint64, shift uint) uint32 { return 1 << (h >> shift & branchMask) }

// writable returns s ready to write in place: s itself when it is the
// caller's own, else a copy with room for grow more.
func writable[T any](s []T, own bool, grow int) []T {
	if own {
		return s
	}
	c := make([]T, len(s), len(s)+grow)
	copy(c, s)
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

// set binds key (of hash h) to val below n, whose own fields the caller
// may write, and returns the value it replaced. With own, every node
// below is the caller's too, unshared with any other version (a Builder
// filling a fresh relation), and changes in place; otherwise set copies
// what it changes on the way down.
func (n *node) set(h uint64, shift uint, key, val string, own bool) (old string, had bool) {
	if shift >= hashBits {
		for i := range n.kvs {
			if n.kvs[i].key == key {
				old = n.kvs[i].val
				n.kvs = writable(n.kvs, own, 0)
				n.kvs[i].val = val
				return old, true
			}
		}
		n.kvs = append(writable(n.kvs, own, 1), binding{h, key, val})
		return "", false
	}
	bit := bitOf(h, shift)
	switch {
	case n.datamap&bit != 0:
		i := index(n.datamap, bit)
		b := n.kvs[i]
		if b.hash == h && b.key == key {
			n.kvs = writable(n.kvs, own, 0)
			n.kvs[i].val = val
			return b.val, true
		}
		// b moves down into a child it shares with the new binding.
		n.kvs = slices.Delete(writable(n.kvs, own, 0), i, i+1)
		n.datamap &^= bit
		n.kids = slices.Insert(writable(n.kids, own, 1), index(n.nodemap, bit), pair(b, binding{h, key, val}, shift+branchBits))
		n.nodemap |= bit
		return "", false
	case n.nodemap&bit != 0:
		j := index(n.nodemap, bit)
		c := n.kids[j]
		if !own {
			c = new(node)
			*c = *n.kids[j]
			n.kids = writable(n.kids, false, 0)
			n.kids[j] = c
		}
		return c.set(h, shift+branchBits, key, val, own)
	default:
		n.kvs = slices.Insert(writable(n.kvs, own, 1), index(n.datamap, bit), binding{h, key, val})
		n.datamap |= bit
		return "", false
	}
}

// pair is the node at shift holding two bindings of distinct keys.
func pair(a, b binding, shift uint) *node {
	if shift >= hashBits {
		return &node{kvs: []binding{a, b}}
	}
	ia, ib := bitOf(a.hash, shift), bitOf(b.hash, shift)
	switch {
	case ia == ib:
		return &node{nodemap: ia, kids: []*node{pair(a, b, shift+branchBits)}}
	case ia > ib:
		a, b = b, a
	}
	return &node{datamap: ia | ib, kvs: []binding{a, b}}
}

// without returns n without key's binding, copying only what changes, and
// the value the binding held. When key is not bound it returns n as is.
func (n node) without(h uint64, shift uint, key string) (node, string, bool) {
	if shift >= hashBits {
		for i, b := range n.kvs {
			if b.key == key {
				n.kvs = slices.Delete(writable(n.kvs, false, 0), i, i+1)
				return n, b.val, true
			}
		}
		return n, "", false
	}
	bit := bitOf(h, shift)
	switch {
	case n.datamap&bit != 0:
		i := index(n.datamap, bit)
		if b := n.kvs[i]; b.hash == h && b.key == key {
			n.kvs = slices.Delete(writable(n.kvs, false, 0), i, i+1)
			n.datamap &^= bit
			return n, b.val, true
		}
	case n.nodemap&bit != 0:
		j := index(n.nodemap, bit)
		c, old, had := n.kids[j].without(h, shift+branchBits, key)
		if !had {
			return n, "", false
		}
		if len(c.kvs) == 1 && len(c.kids) == 0 {
			// A lone binding moves up, so a child holds two or more.
			n.kids = slices.Delete(writable(n.kids, false, 0), j, j+1)
			n.nodemap &^= bit
			n.kvs = slices.Insert(writable(n.kvs, false, 1), index(n.datamap, bit), c.kvs[0])
			n.datamap |= bit
		} else {
			p := new(node)
			*p = c
			n.kids = writable(n.kids, false, 0)
			n.kids[j] = p
		}
		return n, old, true
	}
	return n, "", false
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
