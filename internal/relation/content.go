package relation

import "repro/internal/logic"

// This file implements the Table 4 update rules on content formulas: each
// primitive relational operation the ADTs issue is mirrored as a
// transformation of the propositional formula describing the relation's
// content. Chaining these rules over a sequence of operations yields a
// symbolic description of the sequence's composite effect, which
// training (internal/train) compares for equivalence with SAT.

// ContentInsert returns the content formula after "insert r t":
// (fr ∧ ¬∧_{c∈Cdom} c=t_c) ∨ ∧_{c∈C} c=t_c.
func (r *Relation) ContentInsert(fr logic.Formula, t Tuple) logic.Formula {
	return logic.Or(
		logic.And(fr, logic.Not(r.DomainFormula(t))),
		TupleFormula(t),
	)
}

// ContentRemoveMatching returns the content formula after removing every
// tuple matching t (the matching-removal JANUS ADT operations use):
// fr ∧ ¬∧_{c∈Cdom} c=t_c.
func (r *Relation) ContentRemoveMatching(fr logic.Formula, t Tuple) logic.Formula {
	return logic.And(fr, logic.Not(r.DomainFormula(t)))
}
