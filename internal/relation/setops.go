package relation

import (
	"fmt"
	"slices"
)

// Concrete set operations of §6.1: the partial order on relations is
// subset inclusion, join is set union, meet is set intersection, and
// subtraction is set subtraction. These mirror the formula-level rules of
// content.go (ContentUnion/ContentIntersect/ContentSubtract) on concrete
// relation states; the cross-agreement is property-tested.

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

// Leq reports r ⊑ o: every tuple of r is in o (subset inclusion).
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

// Union returns r ∪ o as a new relation (the lattice join). The result
// keeps r's functional dependency; when the union would violate it (two
// tuples matching on the FD domain with different ranges), the right
// operand's tuple wins, consistent with applying o's tuples as Table 2
// inserts.
func (r *Relation) Union(o *Relation) (*Relation, error) {
	if err := r.compatible(o); err != nil {
		return nil, err
	}
	out := r.Clone()
	o.tuples.Range(func(k string, t Tuple) bool {
		old, _ := out.tuples.Get(k)
		out.put(k, old, t)
		return true
	})
	return out, nil
}

// Intersect returns r ∩ o as a new relation (the lattice meet).
func (r *Relation) Intersect(o *Relation) (*Relation, error) {
	if err := r.compatible(o); err != nil {
		return nil, err
	}
	out := r.empty()
	r.tuples.Range(func(k string, t Tuple) bool {
		if o.Has(t) {
			out.put(k, nil, t)
		}
		return true
	})
	return out, nil
}

// Subtract returns r \ o as a new relation (the lattice subtraction).
func (r *Relation) Subtract(o *Relation) (*Relation, error) {
	if err := r.compatible(o); err != nil {
		return nil, err
	}
	out := r.Clone()
	r.tuples.Range(func(k string, t Tuple) bool {
		if o.Has(t) {
			out.drop(k, t)
		}
		return true
	})
	return out, nil
}
