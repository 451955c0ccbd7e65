// Package relation implements the relational state representation of JANUS
// §6.1: tuples, relations with at most one functional dependency, the
// primitive operations of Table 2 the ADTs issue (insert, remove, the
// matching lookup), the subset order, and the propositional content
// representation of Table 4 that training's SAT check compares. Table 3's
// footprints are not computed here: each ADT operation reports its own
// (oplog.Op.AppendAccesses), keyed by LocKey.
//
// A relation specializes, via its functional dependency, into a function
// mapping "locations" (valuations of the FD's domain columns) to associated
// values (valuations of the range columns) — exactly how JANUS encodes ADT
// states such as a BitSet (index → bit) or a Map (key → value).
//
// Storage is one persistent map (internal/persist) from a tuple's location
// key (LocKey: its valuation on the matching columns) to the tuple. Every
// mutator preserves "at most one tuple per location key" — insert evicts
// what it matches, remove only drops — so a point operation is one
// O(log32 n) lookup or path copy, Clone shares structure in O(1), and only
// callers that ask for the canonical order (Tuples, String,
// ContentFormula) pay for a sort. Versions share tuples, which is why a
// stored tuple is immutable.
package relation

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/digest"
	"repro/internal/logic"
	"repro/internal/persist"
)

// Tuple maps a set of columns to untyped values (rendered as strings).
// Tuples are treated as immutable once inserted into a relation.
type Tuple map[string]string

// Clone returns a copy of t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	for k, v := range t {
		c[k] = v
	}
	return c
}

// Cols returns the tuple's columns in sorted order.
func (t Tuple) Cols() []string {
	out := make([]string, 0, len(t))
	for c := range t {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Key renders the tuple's restriction to the given columns as a canonical
// string, "c1=v1,c2=v2" in the order of cols, used as the location key of
// footprints and projections. A `\`, `,` or `=` inside a column or a value
// is escaped with a `\`, so distinct restrictions render distinctly and
// ParseKey inverts the rendering; text without those bytes renders as is.
func (t Tuple) Key(cols []string) string {
	var a [64]byte // keeps the rendering of a short key off the heap
	return string(t.appendKey(a[:0], cols))
}

// appendKey appends Key(cols) to dst.
func (t Tuple) appendKey(dst []byte, cols []string) []byte {
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendEscaped(dst, c)
		dst = append(dst, '=')
		dst = appendEscaped(dst, t[c])
	}
	return dst
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

// String renders the full tuple canonically.
func (t Tuple) String() string { return "(" + t.Key(t.Cols()) + ")" }

// hash is the tuple's element hash for Relation.Digest: the sum over the
// columns it stores (like String and the state codec) of a hash of
// (column, value), finalised with their count. It neither allocates nor
// depends on map iteration order. No tuple (nil) hashes to 0.
func (t Tuple) hash() uint64 {
	if t == nil {
		return 0
	}
	var sum uint64
	for c, v := range t {
		sum += digest.Mix(digest.String(digest.String(digest.Seed, c), v))
	}
	return digest.Set(sum, len(t))
}

// FD is a functional dependency C1 → C2. Per §6.1, each relation has at
// most one FD, and its domain and range partition the relation's columns.
type FD struct {
	Domain []string
	Range  []string
}

// Relation is a set of tuples over identical columns, optionally governed
// by one functional dependency.
type Relation struct {
	cols  []string // sorted
	match []string // sorted; the FD's domain if one is defined, else cols
	fd    *FD
	// tuples is keyed by LocKey. Mutators replace the pointer and never
	// touch a published version, so clones and concurrent readers of other
	// versions are unaffected.
	tuples *persist.Map[Tuple]
	// sum is the wrapping sum of the stored tuples' hashes, kept in step
	// by put and drop, the only two writers of tuples.
	sum uint64
}

// New creates an empty relation over the given columns. fd may be nil.
// It panics if the FD's domain and range do not partition the columns,
// which would violate the §6.1 well-formedness requirement.
func New(cols []string, fd *FD) *Relation {
	sorted := append([]string(nil), cols...)
	sort.Strings(sorted)
	match := sorted
	if fd != nil {
		all := append(append([]string(nil), fd.Domain...), fd.Range...)
		sort.Strings(all)
		if len(all) != len(sorted) {
			panic("relation: FD domain+range must partition columns")
		}
		for i := range all {
			if all[i] != sorted[i] {
				panic("relation: FD domain+range must partition columns")
			}
		}
		match = append([]string(nil), fd.Domain...)
		sort.Strings(match)
	}
	return &Relation{cols: sorted, match: match, fd: fd, tuples: persist.NewMap[Tuple]()}
}

// put stores t at key in place of old, the tuple there (nil if none).
func (r *Relation) put(key string, old, t Tuple) {
	r.sum += t.hash() - old.hash()
	r.tuples = r.tuples.Set(key, t)
}

// drop removes old, the tuple stored at key.
func (r *Relation) drop(key string, old Tuple) {
	r.sum -= old.hash()
	r.tuples = r.tuples.Delete(key)
}

// Digest fingerprints the relation's content in O(1), whatever sequence
// of operations produced it (see package digest).
func (r *Relation) Digest() uint64 { return digest.Set(r.sum, r.Len()) }

// Cols returns the relation's columns (sorted). Callers must not mutate.
func (r *Relation) Cols() []string { return r.cols }

// FDef returns the relation's functional dependency, or nil.
func (r *Relation) FDef() *FD { return r.fd }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.tuples.Len() }

// Clone returns an independent copy in O(1): the two relations share the
// current version's (immutable) structure and tuples, and diverge by path
// copying as either is mutated.
func (r *Relation) Clone() *Relation {
	c := *r
	return &c
}

// Equal reports whether the two relations have the same schema, the same
// FD and the same set of tuples.
func (r *Relation) Equal(o *Relation) bool {
	if r.Len() != o.Len() {
		return false
	}
	le, err := r.Leq(o) // fails on a schema or FD mismatch
	return err == nil && le
}

// Leq reports r ⊑ o, the §6.1 partial order on relations: every tuple of
// r is in o (subset inclusion).
func (r *Relation) Leq(o *Relation) (bool, error) {
	if err := r.compatible(o); err != nil {
		return false, err
	}
	le := true
	r.tuples.Range(func(_ string, t Tuple) bool {
		le = o.Has(t)
		return le
	})
	return le, nil
}

// compatible checks that two relations share schema and FD. (The FD's
// domain decides it: domain and range partition the shared columns.)
func (r *Relation) compatible(o *Relation) error {
	if !slices.Equal(r.cols, o.cols) {
		return fmt.Errorf("relation: schema mismatch: %v vs %v", r.cols, o.cols)
	}
	if (r.fd == nil) != (o.fd == nil) || !slices.Equal(r.match, o.match) {
		return fmt.Errorf("relation: FD mismatch: %v vs %v", r.fd, o.fd)
	}
	return nil
}

// Tuples returns the tuples in canonical order: sorted by their rendering
// on the relation's columns. The slice is fresh; the tuples are the stored
// ones and must not be mutated.
func (r *Relation) Tuples() []Tuple { return r.sorted().tuples }

// canonical is a relation's tuples in canonical order, each with its
// rendering on the relation's columns (the sort key). The keys are spans
// of one buffer, so ordering n tuples costs a handful of allocations.
type canonical struct {
	tuples []Tuple
	keys   [][2]int // keys[i] is buf[keys[i][0]:keys[i][1]]
	buf    []byte
}

func (c *canonical) key(i int) []byte { return c.buf[c.keys[i][0]:c.keys[i][1]] }

func (c *canonical) Len() int           { return len(c.tuples) }
func (c *canonical) Less(i, j int) bool { return bytes.Compare(c.key(i), c.key(j)) < 0 }
func (c *canonical) Swap(i, j int) {
	c.keys[i], c.keys[j] = c.keys[j], c.keys[i]
	c.tuples[i], c.tuples[j] = c.tuples[j], c.tuples[i]
}

// sorted is the one place that pays for order: everything else reads the
// map by key or in its arbitrary iteration order.
func (r *Relation) sorted() *canonical {
	n := r.Len()
	c := &canonical{tuples: make([]Tuple, 0, n), keys: make([][2]int, 0, n)}
	r.tuples.Range(func(k string, t Tuple) bool {
		lo := len(c.buf)
		if r.fd == nil {
			c.buf = append(c.buf, k...) // without an FD the location key is the full key
		} else {
			c.buf = t.appendKey(c.buf, r.cols)
		}
		c.keys = append(c.keys, [2]int{lo, len(c.buf)})
		c.tuples = append(c.tuples, t)
		return true
	})
	sort.Sort(c)
	return c
}

// sameOn reports whether t and u agree on every one of cols (an absent
// column reads as the empty string, as in Tuple.Key).
func sameOn(t, u Tuple, cols []string) bool {
	for _, c := range cols {
		if t[c] != u[c] {
			return false
		}
	}
	return true
}

// Has reports whether the relation contains a tuple equal to t.
func (r *Relation) Has(t Tuple) bool {
	u, ok := r.tuples.Get(r.LocKey(t))
	return ok && sameOn(t, u, r.cols)
}

// Matching returns the tuples t' in r with t ~r t' (§6.1): at most one,
// the tuple stored at t's location key.
func (r *Relation) Matching(t Tuple) []Tuple {
	if u, ok := r.tuples.Get(r.LocKey(t)); ok {
		return []Tuple{u}
	}
	return nil
}

// LocKey returns the subvalue key of tuple t: its valuation on the matching
// columns (the FD's domain if one is defined, else all columns). Footprints
// and per-location sequences are indexed by this key.
func (r *Relation) LocKey(t Tuple) string { return t.Key(r.match) }

// Insert applies "insert r t" of Table 2: first every tuple matching t is
// removed, then t is added. It returns the removed tuples (for logging and
// for inverse replay).
func (r *Relation) Insert(t Tuple) []Tuple {
	key := r.LocKey(t)
	var removed []Tuple
	old, ok := r.tuples.Get(key)
	if ok {
		removed = []Tuple{old}
	}
	r.put(key, old, t.Clone())
	return removed
}

// Remove applies "remove r t" of Table 2: ensures t is not in the relation.
// It reports whether t was present.
func (r *Relation) Remove(t Tuple) bool {
	key := r.LocKey(t)
	if u, ok := r.tuples.Get(key); ok && sameOn(t, u, r.cols) {
		r.drop(key, u)
		return true
	}
	return false
}

// ContentFormula returns the Table 4 propositional representation of the
// relation's content: the disjunction over tuples of the conjunction of
// their column=value atoms. The empty relation is false.
func (r *Relation) ContentFormula() logic.Formula {
	var disjuncts []logic.Formula
	for _, t := range r.Tuples() {
		var conj []logic.Formula
		for _, c := range t.Cols() {
			conj = append(conj, logic.Atom{Col: c, Val: t[c]})
		}
		disjuncts = append(disjuncts, logic.And(conj...))
	}
	return logic.Or(disjuncts...)
}

// TupleFormula returns ∧_c c=t_c for tuple t (used in the Table 4 update
// rules).
func TupleFormula(t Tuple) logic.Formula {
	var conj []logic.Formula
	for _, c := range t.Cols() {
		conj = append(conj, logic.Atom{Col: c, Val: t[c]})
	}
	return logic.And(conj...)
}

// DomainFormula returns ∧_{c∈dom} c=t_c, the match condition used by the
// Table 4 insert rule.
func (r *Relation) DomainFormula(t Tuple) logic.Formula {
	var conj []logic.Formula
	for _, c := range r.match {
		conj = append(conj, logic.Atom{Col: c, Val: t[c]})
	}
	return logic.And(conj...)
}

// String renders the relation canonically for traces and golden tests:
// the tuples' own renderings in canonical order.
func (r *Relation) String() string {
	c := r.sorted()
	var b strings.Builder
	b.Grow(len(c.buf) + 3*len(c.tuples) + 2)
	b.WriteByte('{')
	for i, t := range c.tuples {
		if i > 0 {
			b.WriteByte(' ')
		}
		if len(t) == len(r.cols) && r.hasCols(t) {
			// The tuple has exactly the relation's columns, so its own
			// rendering is the sort key already built.
			b.WriteByte('(')
			b.Write(c.key(i))
			b.WriteByte(')')
		} else {
			b.WriteString(t.String())
		}
	}
	b.WriteByte('}')
	return b.String()
}

// hasCols reports whether t binds every column of the relation.
func (r *Relation) hasCols(t Tuple) bool {
	for _, c := range r.cols {
		if _, ok := t[c]; !ok {
			return false
		}
	}
	return true
}
