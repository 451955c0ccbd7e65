package train

import (
	"errors"

	"repro/internal/logic"
	"repro/internal/sat"
)

// The symbolic equivalence judgment of §6.2: given two propositional
// representations f and φ of a relation's content (produced by the Table 4
// update rules), the SAT solver is asked for a satisfying assignment of
// ¬(f ↔ φ). If none exists the representations are confirmed equivalent.
//
// Assignments range over candidate tuples, so for each column at most one
// column=value atom may hold; these exclusivity constraints are added as
// clauses before solving (without them the encoding admits spurious
// distinguishing "tuples" that assign two values to one column).

// satBudget bounds the SAT search per equivalence query. Queries that
// exceed it report errUnknown; training treats that as a failed proof
// (the entry is dropped), never as a positive answer, so the budget cannot
// cause unsoundness.
const satBudget = 200000

// errUnknown is returned when the solver cannot decide the query within
// its budget.
var errUnknown = errors.New("train: equivalence undecided within budget")

// equivalent decides, within budget solver decisions, whether f and g
// describe the same relation content. The error is non-nil only for
// errUnknown.
func equivalent(f, g logic.Formula, budget int64) (bool, error) {
	// Simplify the content formulas first: the Table 4 chains carry
	// heavy redundancy, and the rewrites (including per-column
	// contradiction) agree with the exclusivity constraints added below.
	// Simplification is itself super-linear, so very large formulas go
	// straight to the solver.
	const simplifyBudget = 1500
	if logic.Size(f) <= simplifyBudget {
		f = logic.Simplify(f)
	}
	if logic.Size(g) <= simplifyBudget {
		g = logic.Simplify(g)
	}
	query := logic.Not(logic.Iff(f, g))
	// Fast paths: structural equality and constant results.
	if query == logic.False {
		return true, nil
	}
	if query == logic.True {
		return false, nil
	}
	cnf := logic.ToCNF(query)
	logic.ColumnExclusivity(&cnf, columnGroups(query))
	res, err := sat.Solve(cnf.NumVars, cnf.Clauses, sat.Options{MaxDecisions: budget})
	switch {
	case err != nil || res.Status == sat.Unknown:
		return false, errUnknown
	default:
		return res.Status == sat.Unsat, nil
	}
}

// columnGroups partitions the formula's atoms by column, yielding the
// mutual-exclusivity groups.
func columnGroups(f logic.Formula) [][]logic.Atom {
	atoms := logic.Atoms(f)
	byCol := make(map[string][]logic.Atom)
	var order []string
	for _, a := range atoms {
		if _, ok := byCol[a.Col]; !ok {
			order = append(order, a.Col)
		}
		byCol[a.Col] = append(byCol[a.Col], a)
	}
	groups := make([][]logic.Atom, 0, len(order))
	for _, col := range order {
		if g := byCol[col]; len(g) > 1 {
			groups = append(groups, g)
		}
	}
	return groups
}
