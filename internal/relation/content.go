package relation

import "repro/internal/logic"

// This file implements the Table 4 content formulas: a relation's content
// as a propositional formula over column=value atoms, and the update rules
// that mirror each primitive relational operation the ADTs issue as a
// transformation of that formula. Chaining the rules over a sequence of
// operations yields a symbolic description of the sequence's composite
// effect, which training (internal/train) compares for equivalence with
// SAT.

// bindingFormula is k=key ∧ v=val, the tuple formula of the binding.
func bindingFormula(key, val string) logic.Formula {
	return logic.And(logic.Atom{Col: Domain, Val: key}, logic.Atom{Col: Range, Val: val})
}

// ContentFormula returns the relation's content: the disjunction over its
// bindings, in key order, of k=key ∧ v=val. The empty relation is false.
func (r *Relation) ContentFormula() logic.Formula {
	disjuncts := make([]logic.Formula, 0, r.n)
	r.Range(func(k, v string) bool {
		disjuncts = append(disjuncts, bindingFormula(k, v))
		return true
	})
	return logic.Or(disjuncts...)
}

// ContentPut returns the content formula after binding key to val (the
// Table 4 insert rule): (f ∧ ¬k=key) ∨ (k=key ∧ v=val).
func ContentPut(f logic.Formula, key, val string) logic.Formula {
	return logic.Or(logic.And(f, logic.Not(logic.Atom{Col: Domain, Val: key})), bindingFormula(key, val))
}

// ContentDelete returns the content formula after unbinding key (the
// matching removal the ADT operations use): f ∧ ¬k=key.
func ContentDelete(f logic.Formula, key string) logic.Formula {
	return logic.And(f, logic.Not(logic.Atom{Col: Domain, Val: key}))
}
