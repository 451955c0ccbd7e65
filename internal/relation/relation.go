// Package relation implements the relational state representation of JANUS
// §6.1 in the one shape the runtime builds: a relation over columns
// {k, v} with functional dependency k → v. Through its FD such a relation
// is a function from "locations" (keys) to values, exactly how JANUS
// encodes ADT states such as a BitSet (index → bit) or a Map (key →
// value), so it is stored as one: a persistent map from key to value
// (trie.go) plus the sum of its elements' digest hashes. The package also
// gives Tuple, which renders a custom ADT's domain and range valuations
// into a key and a value.
//
// A point operation is one O(log32 n) lookup or path copy, Clone shares
// structure in O(1), and only String pays for a sort. Table 3's
// footprints are not computed here: each ADT operation reports its own
// (oplog.Op.AppendAccesses), at the key.
package relation

import (
	"bytes"
	"slices"
	"strings"
)

// Tuple maps a set of columns to untyped values (rendered as strings): a
// valuation of a custom ADT's columns.
type Tuple map[string]string

// Key renders the tuple's restriction to the given columns as a canonical
// string, "c1=v1,c2=v2" in the order of cols. A `\`, `,` or `=` inside a
// column or a value is escaped with a `\`, so distinct restrictions render
// distinctly and ParseKey inverts the rendering; text without those bytes
// renders as is.
func (t Tuple) Key(cols []string) string {
	var a [64]byte // keeps the rendering of a short key off the heap
	dst := a[:0]
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendEscaped(dst, c)
		dst = append(dst, '=')
		dst = appendEscaped(dst, t[c])
	}
	return string(dst)
}

// appendEscaped appends s to dst with a `\` before every `\`, `,` and `=`.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || c == ',' || c == '=' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', c)
			start = i + 1
		}
	}
	return append(dst, s[start:]...)
}

// ParseKey inverts Key: it returns the tuple a key renders, each column
// bound to its value. The empty string parses to the empty tuple.
func ParseKey(s string) Tuple {
	t := Tuple{}
	if s == "" {
		return t
	}
	var col string
	inValue := false
	field := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\' && i+1 < len(s):
			i++
			field = append(field, s[i])
		case c == '=' && !inValue:
			col, field, inValue = string(field), field[:0], true
		case c == ',':
			if inValue {
				t[col] = string(field)
			}
			field, inValue = field[:0], false
		default:
			field = append(field, c)
		}
	}
	if inValue {
		t[col] = string(field)
	}
	return t
}

// Domain and Range are the relation's two columns: the FD k → v maps a
// key to its value.
const (
	Domain = "k"
	Range  = "v"
)

// The halves of an element hash: each column folded in before its value.
var seedDomain, seedRange = HashString(HashSeed, Domain), HashString(HashSeed, Range)

// keyHash is the hash a key's binding is filed under, and its half of the
// binding's element hash.
func keyHash(key string) uint64 { return HashMix(HashString(seedDomain, key)) }

// elemHash is the element hash of the binding key ↦ val, with kh its
// key's hash: the sum over the tuple's two columns of a hash of (column,
// value), finalised with their count. It is the hash the general tuple
// relation this package replaced gave the tuple {k: key, v: val}, so
// digests already on disk still verify.
func elemHash(kh uint64, val string) uint64 {
	return SetDigest(kh+HashMix(HashString(seedRange, val)), 2)
}

// Relation is a set of bindings key ↦ value, at most one per key. The zero
// value is the empty relation.
type Relation struct {
	root node // root.stamp is the relation's owner id, 0 while it is frozen
	n    int
	// sum is the wrapping sum of the bindings' element hashes, kept in
	// step by Put and Delete.
	sum uint64
}

// New returns an empty relation.
func New() *Relation { return &Relation{} }

// Len returns the number of bindings.
func (r *Relation) Len() int { return r.n }

// Get returns the value bound to key and whether there is one.
func (r *Relation) Get(key string) (string, bool) { return r.root.get(keyHash(key), key) }

// owner returns the relation's owner id, drawing one if it is frozen.
func (r *Relation) owner() uint64 {
	if r.root.stamp == 0 {
		r.root.stamp = newOwner()
	}
	return r.root.stamp &^ (idStep - 1)
}

// Put binds key to val, replacing what key was bound to ("insert" of
// Table 2: the matching tuple goes, the new one comes).
func (r *Relation) Put(key, val string) {
	kh := keyHash(key)
	if old, had := r.root.set(kh, 0, key, val, r.owner()); had {
		r.sum -= elemHash(kh, old)
	} else {
		r.n++
	}
	r.sum += elemHash(kh, val)
}

// Delete unbinds key ("remove" of Table 2) and reports whether it was
// bound.
func (r *Relation) Delete(key string) bool {
	kh := keyHash(key)
	old, had := r.root.get(kh, key)
	if had {
		r.root.without(kh, 0, key, r.owner())
		r.n--
		r.sum -= elemHash(kh, old)
	}
	return had
}

// Clear unbinds every key.
func (r *Relation) Clear() { *r = Relation{} }

// Freeze makes the relation's nodes immutable: its next write copies its
// path. The committed store holds frozen relations only, which concurrent
// faults Clone. Freeze writes r unless r is frozen already.
func (r *Relation) Freeze() {
	if r.root.stamp != 0 {
		r.root.stamp = 0
	}
}

// Clone returns an independent copy in O(1): it freezes r, and the two
// relations share its structure and diverge by path copying as either is
// mutated.
func (r *Relation) Clone() *Relation {
	r.Freeze()
	c := *r
	return &c
}

// Digest fingerprints the relation's content in O(1), whatever sequence
// of operations produced it (see digest.go).
func (r *Relation) Digest() uint64 { return SetDigest(r.sum, r.n) }

// Equal reports whether the two relations bind the same keys to the same
// values.
func (r *Relation) Equal(o *Relation) bool {
	if r.n != o.n || r.sum != o.sum {
		return false
	}
	return r.root.each(func(b *binding) bool {
		v, ok := o.root.get(b.hash, b.key)
		return ok && v == b.val
	})
}

// Each calls fn for every binding, in no particular order, until fn
// returns false. It allocates nothing.
func (r *Relation) Each(fn func(key, val string) bool) {
	r.root.each(func(b *binding) bool { return fn(b.key, b.val) })
}

// String renders the relation canonically for traces and golden tests:
// "{(k=<key>,v=<val>) ...}", each binding escaped as Tuple.Key escapes, in
// the order of their renderings.
func (r *Relation) String() string {
	var buf []byte
	spans := make([][2]int, 0, r.n) // spans[i] is buf[spans[i][0]:spans[i][1]]
	r.Each(func(k, v string) bool {
		lo := len(buf)
		buf = append(buf, Domain+"="...)
		buf = appendEscaped(buf, k)
		buf = append(buf, ","+Range+"="...)
		buf = appendEscaped(buf, v)
		spans = append(spans, [2]int{lo, len(buf)})
		return true
	})
	slices.SortFunc(spans, func(a, b [2]int) int { return bytes.Compare(buf[a[0]:a[1]], buf[b[0]:b[1]]) })
	var b strings.Builder
	b.Grow(len(buf) + 3*len(spans) + 2)
	b.WriteByte('{')
	for i, sp := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('(')
		b.Write(buf[sp[0]:sp[1]])
		b.WriteByte(')')
	}
	b.WriteByte('}')
	return b.String()
}
