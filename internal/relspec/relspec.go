// Package relspec implements the user-specification input of JANUS §6.1:
// a mapping from a custom data structure to its relational representation.
// The semantic state of the structure is a relation over user-declared
// columns with at most one functional dependency whose domain and range
// partition the columns, and the structure's operations are expressed via
// the primitive relational operations of Table 2.
//
// The built-in handles of internal/adt (BitSet, KVMap, IntArray, Canvas)
// are fixed single-key/single-value instances of this scheme; relspec
// generalizes it to arbitrary schemas — e.g. a routing table keyed by
// (src, dst) with a cost column — while producing operations with the
// same symbolic kinds, so the hindsight engine's theories, abstraction,
// and cache apply unchanged.
package relspec

import (
	"fmt"
	"sort"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/relation"
	"repro/internal/state"
)

// Spec declares a custom ADT's relational representation.
type Spec struct {
	// Columns are all the relation's columns.
	Columns []string
	// Domain lists the functional dependency's domain columns (the
	// "location" part, §6.1); the remaining columns form its range.
	// Empty means no FD: tuples match only when fully equal.
	Domain []string
}

// Validate checks the §6.1 well-formedness requirements.
func (s Spec) Validate() error {
	if len(s.Columns) == 0 {
		return fmt.Errorf("relspec: a spec needs at least one column")
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if c == "" {
			return fmt.Errorf("relspec: empty column name")
		}
		if seen[c] {
			return fmt.Errorf("relspec: duplicate column %q", c)
		}
		seen[c] = true
	}
	for _, d := range s.Domain {
		if !seen[d] {
			return fmt.Errorf("relspec: domain column %q not in schema", d)
		}
	}
	if len(s.Domain) == len(s.Columns) {
		return fmt.Errorf("relspec: the FD range must be non-empty (drop the FD instead)")
	}
	return nil
}

// fd builds the relation.FD, or nil when the spec declares none.
func (s Spec) fd() *relation.FD {
	if len(s.Domain) == 0 {
		return nil
	}
	dom := map[string]bool{}
	for _, d := range s.Domain {
		dom[d] = true
	}
	var rng []string
	for _, c := range s.Columns {
		if !dom[c] {
			rng = append(rng, c)
		}
	}
	return &relation.FD{Domain: append([]string(nil), s.Domain...), Range: rng}
}

// NewValue builds an empty relational state value for the spec.
func (s Spec) NewValue() (state.Value, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return state.Rel{R: relation.New(s.Columns, s.fd())}, nil
}

// domainCols returns the matching columns, sorted.
func (s Spec) domainCols() []string {
	cols := s.Domain
	if len(cols) == 0 {
		cols = s.Columns
	}
	sorted := append([]string(nil), cols...)
	sort.Strings(sorted)
	return sorted
}

// keyOf renders a tuple's domain valuation as the projection key.
func (s Spec) keyOf(t relation.Tuple) string { return t.Key(s.domainCols()) }

// rangeArg renders a tuple's range valuation — the generalizable argument
// of a put (the value "stored" at the key).
func (s Spec) rangeArg(t relation.Tuple) string {
	dom := map[string]bool{}
	for _, d := range s.Domain {
		dom[d] = true
	}
	var cols []string
	for _, c := range t.Cols() {
		if !dom[c] {
			cols = append(cols, c)
		}
	}
	return t.Key(cols)
}

// Object is a handle to a shared custom ADT instance.
type Object struct {
	L state.Loc
	S Spec
}

// New binds loc in st to an empty instance of the spec and returns its
// handle.
func New(st *state.State, loc state.Loc, spec Spec) (Object, error) {
	v, err := spec.NewValue()
	if err != nil {
		return Object{}, err
	}
	st.Set(loc, v)
	return Object{L: loc, S: spec}, nil
}

func (o Object) rel(st *state.State) (*relation.Relation, error) {
	v, ok := st.Get(o.L)
	if !ok {
		return nil, fmt.Errorf("relspec: unbound location %q", o.L)
	}
	rv, ok := v.(state.Rel)
	if !ok {
		return nil, fmt.Errorf("relspec: location %q holds %T, want Rel", o.L, v)
	}
	return rv.R, nil
}

// checkTuple validates a full tuple against the schema.
func (o Object) checkTuple(t relation.Tuple) error {
	if len(t) != len(o.S.Columns) {
		return fmt.Errorf("relspec: tuple %v does not match schema %v", t, o.S.Columns)
	}
	for _, c := range o.S.Columns {
		if _, ok := t[c]; !ok {
			return fmt.Errorf("relspec: tuple %v missing column %q", t, c)
		}
	}
	return nil
}

// checkKey validates a domain valuation.
func (o Object) checkKey(key relation.Tuple) error {
	cols := o.S.Domain
	if len(cols) == 0 {
		cols = o.S.Columns
	}
	if len(key) != len(cols) {
		return fmt.Errorf("relspec: key %v does not match domain %v", key, cols)
	}
	for _, c := range cols {
		if _, ok := key[c]; !ok {
			return fmt.Errorf("relspec: key %v missing domain column %q", key, c)
		}
	}
	return nil
}

// Put inserts the tuple (Table 2 insert: evicts the matching tuple).
func (o Object) Put(ex adt.Executor, t relation.Tuple) error {
	if err := o.checkTuple(t); err != nil {
		return err
	}
	_, err := ex.Exec(putOp{obj: o, t: t.Clone()})
	return err
}

// Delete removes the tuple(s) matching the key.
func (o Object) Delete(ex adt.Executor, key relation.Tuple) error {
	if err := o.checkKey(key); err != nil {
		return err
	}
	_, err := ex.Exec(deleteOp{obj: o, key: key.Clone()})
	return err
}

// Get reads the tuple bound at key.
func (o Object) Get(ex adt.Executor, key relation.Tuple) (relation.Tuple, bool, error) {
	if err := o.checkKey(key); err != nil {
		return nil, false, err
	}
	v, err := ex.Exec(getOp{obj: o, key: key.Clone()})
	if err != nil {
		return nil, false, err
	}
	s := string(v.(state.Str))
	if s == adt.AbsentVal {
		return nil, false, nil
	}
	return relation.ParseKey(s), true, nil
}

// Has reports whether any tuple matches the key.
func (o Object) Has(ex adt.Executor, key relation.Tuple) (bool, error) {
	if err := o.checkKey(key); err != nil {
		return false, err
	}
	v, err := ex.Exec(hasOp{obj: o, key: key.Clone()})
	if err != nil {
		return false, err
	}
	return bool(v.(state.Bool)), nil
}

// Clear removes every tuple.
func (o Object) Clear(ex adt.Executor) error {
	_, err := ex.Exec(clearOp{obj: o})
	return err
}

// --- Operations ---
//
// The ops reuse the adt.KindRel* symbolic kinds, so the effect theories,
// Kleene-cross abstraction, and cached conditions treat custom ADTs
// exactly like the built-ins.

func (o Object) ploc(key string) oplog.PLoc { return oplog.PLoc{Loc: o.L, Key: key} }

type putOp struct {
	obj Object
	t   relation.Tuple
}

func (p putOp) Apply(st *state.State) (state.Value, error) {
	r, err := p.obj.rel(st)
	if err != nil {
		return nil, err
	}
	r.Insert(p.t)
	return nil, nil
}

func (p putOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: p.obj.ploc(p.obj.S.keyOf(p.t)), Write: true})
}

func (p putOp) Sym() oplog.Sym {
	return oplog.Sym{Kind: adt.KindRelPut, Arg: p.obj.S.rangeArg(p.t)}
}

func (p putOp) IsRead() bool { return false }

func (p putOp) String() string { return fmt.Sprintf("%s.put%s", p.obj.L, p.t) }

type deleteOp struct {
	obj Object
	key relation.Tuple
}

func (d deleteOp) matching(st *state.State) ([]relation.Tuple, *relation.Relation, error) {
	r, err := d.obj.rel(st)
	if err != nil {
		return nil, nil, err
	}
	probe := d.key.Clone()
	for _, c := range d.obj.S.Columns {
		if _, ok := probe[c]; !ok {
			probe[c] = ""
		}
	}
	return r.Matching(probe), r, nil
}

func (d deleteOp) Apply(st *state.State) (state.Value, error) {
	m, r, err := d.matching(st)
	if err != nil {
		return nil, err
	}
	for _, t := range m {
		r.Remove(t)
	}
	return nil, nil
}

func (d deleteOp) AppendAccesses(dst []oplog.Access, st *state.State) []oplog.Access {
	p := d.obj.ploc(d.key.Key(d.obj.S.domainCols()))
	if m, _, err := d.matching(st); err == nil && len(m) == 0 {
		return append(dst, oplog.Access{P: p, Read: true}) // observes absence (§6.2)
	}
	return append(dst, oplog.Access{P: p, Write: true})
}

func (d deleteOp) Sym() oplog.Sym { return oplog.Sym{Kind: adt.KindRelRemove} }

func (d deleteOp) IsRead() bool { return false }

func (d deleteOp) String() string { return fmt.Sprintf("%s.delete%s", d.obj.L, d.key) }

type getOp struct {
	obj Object
	key relation.Tuple
}

func (g getOp) Apply(st *state.State) (state.Value, error) {
	r, err := g.obj.rel(st)
	if err != nil {
		return nil, err
	}
	probe := g.key.Clone()
	for _, c := range g.obj.S.Columns {
		if _, ok := probe[c]; !ok {
			probe[c] = ""
		}
	}
	m := r.Matching(probe)
	if len(m) == 0 {
		return state.Str(adt.AbsentVal), nil
	}
	return state.Str(m[0].Key(m[0].Cols())), nil
}

func (g getOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: g.obj.ploc(g.key.Key(g.obj.S.domainCols())), Read: true})
}

func (g getOp) Sym() oplog.Sym { return oplog.Sym{Kind: adt.KindRelGet} }

func (g getOp) IsRead() bool { return true }

func (g getOp) String() string { return fmt.Sprintf("%s.get%s", g.obj.L, g.key) }

type hasOp struct {
	obj Object
	key relation.Tuple
}

func (h hasOp) Apply(st *state.State) (state.Value, error) {
	r, err := h.obj.rel(st)
	if err != nil {
		return nil, err
	}
	probe := h.key.Clone()
	for _, c := range h.obj.S.Columns {
		if _, ok := probe[c]; !ok {
			probe[c] = ""
		}
	}
	return state.Bool(len(r.Matching(probe)) > 0), nil
}

func (h hasOp) AppendAccesses(dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: h.obj.ploc(h.key.Key(h.obj.S.domainCols())), Read: true})
}

func (h hasOp) Sym() oplog.Sym { return oplog.Sym{Kind: adt.KindRelHas} }

func (h hasOp) IsRead() bool { return true }

func (h hasOp) String() string { return fmt.Sprintf("%s.has%s", h.obj.L, h.key) }

type clearOp struct{ obj Object }

func (c clearOp) Apply(st *state.State) (state.Value, error) {
	r, err := c.obj.rel(st)
	if err != nil {
		return nil, err
	}
	for _, t := range r.Tuples() {
		r.Remove(t)
	}
	return nil, nil
}

func (c clearOp) AppendAccesses(dst []oplog.Access, st *state.State) []oplog.Access {
	r, err := c.obj.rel(st)
	if err != nil {
		return dst
	}
	for _, t := range r.Tuples() {
		dst = append(dst, oplog.Access{P: c.obj.ploc(c.obj.S.keyOf(t)), Write: true})
	}
	return dst
}

func (c clearOp) Sym() oplog.Sym { return oplog.Sym{Kind: adt.KindRelClear} }

func (c clearOp) IsRead() bool { return false }

func (c clearOp) String() string { return fmt.Sprintf("%s.clear()", c.obj.L) }
