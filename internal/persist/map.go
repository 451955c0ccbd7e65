// Package persist provides fully persistent data structures (Driscoll et
// al. [10] in the paper): every update returns a new version, and every
// version remains readable and updatable. JANUS §4.1 proposes such
// structures to reduce the cost of state privatization — CREATETRANSACTION
// can snapshot the shared state in O(1) instead of deep-copying it, and
// multiple transactions can concurrently derive modified versions.
//
// The package implements a hash-array-mapped trie map with string keys,
// with path copying.
package persist

import (
	"fmt"
	"math/bits"
)

const (
	branchBits = 5
	branchSize = 1 << branchBits // 32
	branchMask = branchSize - 1
)

// Map is a fully persistent string-keyed map. The zero value (and Nil
// pointer) is the empty map. All operations are O(log32 n) and never
// mutate the receiver.
type Map[V any] struct {
	root  node[V]
	count int
}

// NewMap returns the empty map.
func NewMap[V any]() *Map[V] { return &Map[V]{} }

// Len returns the number of entries.
func (m *Map[V]) Len() int {
	if m == nil {
		return 0
	}
	return m.count
}

// Get returns the value for key and whether it is present.
func (m *Map[V]) Get(key string) (V, bool) {
	var zero V
	if m == nil || m.root == nil {
		return zero, false
	}
	return m.root.get(hashString(key), 0, key)
}

// Set returns a new version of the map with key bound to v.
func (m *Map[V]) Set(key string, v V) *Map[V] {
	h := hashString(key)
	if m == nil {
		m = &Map[V]{}
	}
	if m.root == nil {
		return &Map[V]{root: leaf[V]{hash: h, key: key, val: v}, count: 1}
	}
	root, added := m.root.set(h, 0, key, v)
	n := m.count
	if added {
		n++
	}
	return &Map[V]{root: root, count: n}
}

// Delete returns a new version without key. Deleting an absent key returns
// the receiver unchanged.
func (m *Map[V]) Delete(key string) *Map[V] {
	if m == nil || m.root == nil {
		return m
	}
	root, removed := m.root.delete(hashString(key), 0, key)
	if !removed {
		return m
	}
	return &Map[V]{root: root, count: m.count - 1}
}

// Range calls fn for every entry until fn returns false. Iteration order
// is unspecified but deterministic for a given version.
func (m *Map[V]) Range(fn func(key string, v V) bool) {
	if m == nil || m.root == nil {
		return
	}
	m.root.each(fn)
}

// node is either a leaf, a collision bucket, or a bitmap-indexed branch.
type node[V any] interface {
	get(h uint64, shift uint, key string) (V, bool)
	set(h uint64, shift uint, key string, v V) (node[V], bool)
	delete(h uint64, shift uint, key string) (node[V], bool)
	each(fn func(string, V) bool) bool
}

type leaf[V any] struct {
	hash uint64
	key  string
	val  V
}

func (l leaf[V]) get(h uint64, _ uint, key string) (V, bool) {
	var zero V
	if l.hash == h && l.key == key {
		return l.val, true
	}
	return zero, false
}

func (l leaf[V]) set(h uint64, shift uint, key string, v V) (node[V], bool) {
	if l.hash == h && l.key == key {
		return leaf[V]{hash: h, key: key, val: v}, false
	}
	if l.hash == h {
		return collision[V]{hash: h, entries: []leaf[V]{l, {hash: h, key: key, val: v}}}, true
	}
	// Split into a branch distinguishing the two hashes at this depth.
	b := branch[V]{}
	n1, _ := b.set(l.hash, shift, l.key, l.val)
	n2, _ := n1.set(h, shift, key, v)
	return n2, true
}

func (l leaf[V]) delete(h uint64, _ uint, key string) (node[V], bool) {
	if l.hash == h && l.key == key {
		return nil, true
	}
	return l, false
}

func (l leaf[V]) each(fn func(string, V) bool) bool { return fn(l.key, l.val) }

// collision buckets hold entries whose full hashes collide.
type collision[V any] struct {
	hash    uint64
	entries []leaf[V]
}

func (c collision[V]) get(h uint64, _ uint, key string) (V, bool) {
	var zero V
	if h != c.hash {
		return zero, false
	}
	for _, e := range c.entries {
		if e.key == key {
			return e.val, true
		}
	}
	return zero, false
}

func (c collision[V]) set(h uint64, shift uint, key string, v V) (node[V], bool) {
	if h != c.hash {
		// Push the bucket down into a branch.
		b := node[V](branch[V]{})
		for _, e := range c.entries {
			b, _ = b.set(e.hash, shift, e.key, e.val)
		}
		return b.set(h, shift, key, v)
	}
	out := make([]leaf[V], len(c.entries), len(c.entries)+1)
	copy(out, c.entries)
	for i, e := range out {
		if e.key == key {
			out[i] = leaf[V]{hash: h, key: key, val: v}
			return collision[V]{hash: h, entries: out}, false
		}
	}
	out = append(out, leaf[V]{hash: h, key: key, val: v})
	return collision[V]{hash: h, entries: out}, true
}

func (c collision[V]) delete(h uint64, _ uint, key string) (node[V], bool) {
	if h != c.hash {
		return c, false
	}
	for i, e := range c.entries {
		if e.key == key {
			if len(c.entries) == 2 {
				return c.entries[1-i], true
			}
			out := make([]leaf[V], 0, len(c.entries)-1)
			out = append(out, c.entries[:i]...)
			out = append(out, c.entries[i+1:]...)
			return collision[V]{hash: h, entries: out}, true
		}
	}
	return c, false
}

func (c collision[V]) each(fn func(string, V) bool) bool {
	for _, e := range c.entries {
		if !fn(e.key, e.val) {
			return false
		}
	}
	return true
}

// branch is a bitmap-compressed 32-way node.
type branch[V any] struct {
	bitmap   uint32
	children []node[V]
}

func (b branch[V]) index(bit uint32) int {
	return bits.OnesCount32(b.bitmap & (bit - 1))
}

func (b branch[V]) get(h uint64, shift uint, key string) (V, bool) {
	var zero V
	bit := uint32(1) << ((h >> shift) & branchMask)
	if b.bitmap&bit == 0 {
		return zero, false
	}
	return b.children[b.index(bit)].get(h, shift+branchBits, key)
}

func (b branch[V]) set(h uint64, shift uint, key string, v V) (node[V], bool) {
	bit := uint32(1) << ((h >> shift) & branchMask)
	idx := b.index(bit)
	if b.bitmap&bit == 0 {
		children := make([]node[V], len(b.children)+1)
		copy(children, b.children[:idx])
		children[idx] = leaf[V]{hash: h, key: key, val: v}
		copy(children[idx+1:], b.children[idx:])
		return branch[V]{bitmap: b.bitmap | bit, children: children}, true
	}
	child, added := b.children[idx].set(h, shift+branchBits, key, v)
	children := make([]node[V], len(b.children))
	copy(children, b.children)
	children[idx] = child
	return branch[V]{bitmap: b.bitmap, children: children}, added
}

func (b branch[V]) delete(h uint64, shift uint, key string) (node[V], bool) {
	bit := uint32(1) << ((h >> shift) & branchMask)
	if b.bitmap&bit == 0 {
		return b, false
	}
	idx := b.index(bit)
	child, removed := b.children[idx].delete(h, shift+branchBits, key)
	if !removed {
		return b, false
	}
	if child == nil {
		if len(b.children) == 1 {
			return nil, true
		}
		children := make([]node[V], len(b.children)-1)
		copy(children, b.children[:idx])
		copy(children[idx:], b.children[idx+1:])
		return branch[V]{bitmap: b.bitmap &^ bit, children: children}, true
	}
	children := make([]node[V], len(b.children))
	copy(children, b.children)
	children[idx] = child
	return branch[V]{bitmap: b.bitmap, children: children}, true
}

func (b branch[V]) each(fn func(string, V) bool) bool {
	for _, c := range b.children {
		if !c.each(fn) {
			return false
		}
	}
	return true
}

// hashString is FNV-1a, inlined to avoid allocation.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// String renders the map size for debugging.
func (m *Map[V]) String() string { return fmt.Sprintf("persist.Map(len=%d)", m.Len()) }
