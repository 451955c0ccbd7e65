// Package relation implements the relational state representation of JANUS
// §6.1: tuples, relations with at most one functional dependency, the
// primitive operations of Table 2 (insert, remove, select), their footprints
// (Table 3), and the propositional content representation of Table 4 used
// for SAT-backed equivalence testing.
//
// A relation specializes, via its functional dependency, into a function
// mapping "locations" (valuations of the FD's domain columns) to associated
// values (valuations of the range columns) — exactly how JANUS encodes ADT
// states such as a BitSet (index → bit) or a Map (key → value).
//
// Storage is one persistent map (internal/persist) from a tuple's location
// key (LocKey: its valuation on the matching columns) to the tuple. Every
// mutator preserves "at most one tuple per location key" — insert evicts
// what it matches, remove and the set operations only drop tuples or go
// through insert — so a point operation is one O(log32 n) lookup or path
// copy, Clone shares structure in O(1), and only callers that ask for the
// canonical order (Tuples, String, ContentFormula) pay for a sort. Versions
// share tuples, which is why a stored tuple is immutable.
package relation

import (
	"bytes"
	"sort"
	"strings"

	"repro/internal/digest"
	"repro/internal/lattice"
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
// string, used as the subvalue-lattice key for footprints.
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
		dst = append(dst, c...)
		dst = append(dst, '=')
		dst = append(dst, t[c]...)
	}
	return dst
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

// empty returns an empty relation with r's schema and FD.
func (r *Relation) empty() *Relation {
	return &Relation{cols: r.cols, match: r.match, fd: r.fd, tuples: persist.NewMap[Tuple]()}
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

// Select applies "w := select r f" of Table 2: the sub-relation of tuples
// satisfying f.
func (r *Relation) Select(f logic.Formula) *Relation {
	w := r.empty()
	r.tuples.Range(func(k string, t Tuple) bool {
		if f.Eval(tupleAssignment(t)) {
			w.put(k, nil, t)
		}
		return true
	})
	return w
}

// tupleAssignment renders the tuple as a truth assignment over
// column=value atoms, for evaluating Table 1 formulas against it.
func tupleAssignment(t Tuple) map[logic.Atom]bool {
	asn := make(map[logic.Atom]bool, len(t))
	for c, v := range t {
		asn[logic.Atom{Col: c, Val: v}] = true
	}
	return asn
}

// InsertFootprint returns the Table 3 footprint of "insert r t" in the
// current state: it writes the subvalue keyed by t's location and reads
// nothing (the insert overwrites unconditionally).
func (r *Relation) InsertFootprint(t Tuple) lattice.Footprint {
	return lattice.Footprint{
		Read:  lattice.EmptyKeySet(),
		Write: lattice.NewKeySet(r.LocKey(t)),
	}
}

// RemoveFootprint returns the Table 3 footprint of "remove r t". Following
// §6.2, t belongs in the read set when r does not contain t (the operation
// observes absence); it is written when present.
func (r *Relation) RemoveFootprint(t Tuple) lattice.Footprint {
	key := r.LocKey(t)
	if r.Has(t) {
		return lattice.Footprint{Read: lattice.EmptyKeySet(), Write: lattice.NewKeySet(key)}
	}
	return lattice.Footprint{Read: lattice.NewKeySet(key), Write: lattice.EmptyKeySet()}
}

// SelectFootprint returns the Table 3 footprint of "select r f": a read of
// every location whose tuple the selection inspects. When f pins all the
// matching columns to constants the read narrows to those keys; otherwise
// the whole relation is read (each tuple's membership influences the
// result).
func (r *Relation) SelectFootprint(f logic.Formula) lattice.Footprint {
	if keys, ok := pinnedKeys(f, r.match); ok {
		return lattice.Footprint{Read: lattice.NewKeySet(keys...), Write: lattice.EmptyKeySet()}
	}
	keys := make([]string, 0, r.Len()+1)
	r.tuples.Range(func(k string, _ Tuple) bool {
		keys = append(keys, k)
		return true
	})
	// Absence of any other key is also observed; represent with a
	// distinguished whole-relation key joined with the present keys.
	keys = append(keys, WholeRelationKey)
	return lattice.Footprint{Read: lattice.NewKeySet(keys...), Write: lattice.EmptyKeySet()}
}

// WholeRelationKey is the distinguished footprint key standing for the
// relation's full extent (membership of every location, including absent
// ones). Unpinned selects read it; it overlaps every write via the
// ExtentKey convention applied by callers building footprints.
const WholeRelationKey = "*"

// pinnedKeys reports whether formula f is a disjunction of full matching-
// column pinnings, returning the corresponding keys. For example, with
// matching columns {idx}, the formula idx=3 ∨ idx=5 pins keys
// {"idx=3","idx=5"}.
func pinnedKeys(f logic.Formula, matchCols []string) ([]string, bool) {
	disjuncts := orList(f)
	var keys []string
	for _, d := range disjuncts {
		t, ok := conjunctionToTuple(d)
		if !ok {
			return nil, false
		}
		for _, c := range matchCols {
			if _, has := t[c]; !has {
				return nil, false
			}
		}
		keys = append(keys, t.Key(matchCols))
	}
	return keys, true
}

func orList(f logic.Formula) []logic.Formula {
	if o, ok := f.(logic.OrF); ok {
		return o.Fs
	}
	return []logic.Formula{f}
}

// conjunctionToTuple interprets a conjunction of atoms as a partial tuple.
func conjunctionToTuple(f logic.Formula) (Tuple, bool) {
	var atoms []logic.Atom
	switch g := f.(type) {
	case logic.Atom:
		atoms = []logic.Atom{g}
	case logic.AndF:
		for _, sub := range g.Fs {
			a, ok := sub.(logic.Atom)
			if !ok {
				return nil, false
			}
			atoms = append(atoms, a)
		}
	default:
		return nil, false
	}
	t := make(Tuple, len(atoms))
	for _, a := range atoms {
		if prev, dup := t[a.Col]; dup && prev != a.Val {
			return nil, false
		}
		t[a.Col] = a.Val
	}
	return t, true
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
