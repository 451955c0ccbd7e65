package adt

import (
	"fmt"
	"sort"

	"repro/internal/relation"
	"repro/internal/state"
)

// CustomSpec declares a user-defined ADT's relational representation
// (§6.1): arbitrary columns with at most one functional dependency, whose
// domain and range partition the columns.
type CustomSpec struct {
	// Columns are all the relation's columns.
	Columns []string
	// Domain lists the functional dependency's domain columns (the
	// "location" part, §6.1); the remaining columns form its range.
	// Empty means no FD: tuples match only when fully equal.
	Domain []string
}

// Validate checks the §6.1 well-formedness requirements.
func (s CustomSpec) Validate() error {
	if len(s.Columns) == 0 {
		return fmt.Errorf("adt: a spec needs at least one column")
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if c == "" {
			return fmt.Errorf("adt: empty column name")
		}
		if seen[c] {
			return fmt.Errorf("adt: duplicate column %q", c)
		}
		seen[c] = true
	}
	for _, d := range s.Domain {
		if !seen[d] {
			return fmt.Errorf("adt: domain column %q not in schema", d)
		}
	}
	if len(s.Domain) == len(s.Columns) {
		return fmt.Errorf("adt: the FD range must be non-empty (drop the FD instead)")
	}
	return nil
}

// split returns the key columns (the FD's domain, or every column when
// the spec declares no FD) and the range columns, each sorted.
func (s CustomSpec) split() (key, rng []string) {
	if len(s.Domain) == 0 {
		key = append(key, s.Columns...)
	} else {
		dom := map[string]bool{}
		for _, d := range s.Domain {
			dom[d] = true
		}
		for _, c := range s.Columns {
			if dom[c] {
				key = append(key, c)
			} else {
				rng = append(rng, c)
			}
		}
	}
	sort.Strings(key)
	sort.Strings(rng)
	return key, rng
}

// CustomObject is a handle to a shared instance of a CustomSpec. On the
// §6.1 reading of a functional dependency as a function from domain
// valuations to range valuations, the instance is a KVMap: a tuple's key
// is its domain valuation rendered by relation.Tuple.Key, and its value
// the rendered range valuation ("" when the spec has no FD). Its
// operations are the built-in relational ops, so detection, training,
// recording and replay treat it exactly like the built-in handles.
type CustomObject struct {
	L state.Loc
	S CustomSpec
}

// NewCustom binds loc in st to an empty instance of the spec and returns
// its handle.
func NewCustom(st *state.State, loc state.Loc, spec CustomSpec) (CustomObject, error) {
	if err := spec.Validate(); err != nil {
		return CustomObject{}, err
	}
	st.Set(loc, NewRelValue())
	return CustomObject{L: loc, S: spec}, nil
}

// bindsExactly reports whether t binds exactly the columns cols.
func bindsExactly(t relation.Tuple, cols []string) bool {
	if len(t) != len(cols) {
		return false
	}
	for _, c := range cols {
		if _, ok := t[c]; !ok {
			return false
		}
	}
	return true
}

// keyOf validates a domain valuation and renders it as the map key.
func (o CustomObject) keyOf(key relation.Tuple) (string, error) {
	cols, _ := o.S.split()
	if !bindsExactly(key, cols) {
		return "", fmt.Errorf("adt: key %v does not match domain %v", key, cols)
	}
	return key.Key(cols), nil
}

// Put inserts the tuple (Table 2 insert: evicts the matching tuple).
func (o CustomObject) Put(ex Executor, t relation.Tuple) error {
	if !bindsExactly(t, o.S.Columns) {
		return fmt.Errorf("adt: tuple %v does not match schema %v", t, o.S.Columns)
	}
	key, rng := o.S.split()
	_, err := ex.Exec(RelPutOp{L: o.L, Key: t.Key(key), Val: t.Key(rng)}.Op())
	return err
}

// Delete removes the tuple matching the key.
func (o CustomObject) Delete(ex Executor, key relation.Tuple) error {
	k, err := o.keyOf(key)
	if err != nil {
		return err
	}
	_, err = ex.Exec(RelRemoveOp{L: o.L, Key: k}.Op())
	return err
}

// Get reads the tuple bound at key.
func (o CustomObject) Get(ex Executor, key relation.Tuple) (relation.Tuple, bool, error) {
	k, err := o.keyOf(key)
	if err != nil {
		return nil, false, err
	}
	v, err := ex.Exec(RelGetOp{L: o.L, Key: k}.Op())
	if err != nil {
		return nil, false, err
	}
	s := string(v.(state.Str))
	if s == AbsentVal {
		return nil, false, nil
	}
	t := relation.ParseKey(s)
	for c, x := range key {
		t[c] = x
	}
	return t, true, nil
}

// Has reports whether a tuple matches the key.
func (o CustomObject) Has(ex Executor, key relation.Tuple) (bool, error) {
	k, err := o.keyOf(key)
	if err != nil {
		return false, err
	}
	v, err := ex.Exec(RelHasOp{L: o.L, Key: k}.Op())
	if err != nil {
		return false, err
	}
	return bool(v.(state.Bool)), nil
}

// Clear removes every tuple.
func (o CustomObject) Clear(ex Executor) error {
	_, err := ex.Exec(RelClearOp{L: o.L}.Op())
	return err
}
