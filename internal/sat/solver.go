// Package sat implements a complete propositional satisfiability solver,
// standing in for the Sat4j solver used by the JANUS prototype (§6.2).
//
// JANUS poses equivalence queries between two content formulas f and φ for
// a relation by asking for a satisfying assignment of ¬(f ↔ φ); UNSAT
// confirms equivalence. The instances are small but arrive frequently during
// training, so the solver implements the standard machinery: CDCL search
// with two-watched-literal unit propagation, first-UIP conflict-clause
// learning with non-chronological backjumping, a VSIDS-style dynamic
// activity heuristic, and Luby-sequence restarts.
package sat

import (
	"errors"
)

// Status is the outcome of a Solve call.
type Status int

// Solver outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// ErrBudget is returned when the solver exceeds its decision budget.
var ErrBudget = errors.New("sat: decision budget exhausted")

// Result carries the outcome and, when satisfiable, a model mapping each
// variable (1..NumVars) to its truth value.
type Result struct {
	Status Status
	Model  []bool // 1-indexed via Model[v-1]; valid only when Status == Sat
}

// Options configure a Solve call.
type Options struct {
	// MaxDecisions bounds the search; 0 means no bound. When exceeded,
	// Solve returns Unknown with ErrBudget. JANUS treats Unknown as a
	// failed equivalence proof (a cache miss), never as unsoundness.
	MaxDecisions int64
}

const (
	lUndef int8 = 0
	lTrue  int8 = 1
	lFalse int8 = -1
)

type clause struct {
	lits []int
}

type solver struct {
	numVars   int
	clauses   []*clause
	learned   []*clause
	watches   map[int][]*clause // literal -> clauses watching it
	assign    []int8            // 1-indexed by var
	trail     []int             // assigned literals in order
	trailLim  []int             // decision level boundaries in trail
	reason    []*clause         // per var: clause that implied it (nil for decisions)
	level     []int             // per var: decision level of its assignment
	activity  []float64
	varInc    float64
	decisions int64
	conflicts int64
	opts      Options
}

// Solve decides satisfiability of the CNF given as clauses over variables
// 1..numVars (literal +v / -v). The clause slice is not retained.
func Solve(numVars int, clauses [][]int, opts Options) (Result, error) {
	s := &solver{
		numVars:  numVars,
		watches:  make(map[int][]*clause),
		assign:   make([]int8, numVars+1),
		reason:   make([]*clause, numVars+1),
		level:    make([]int, numVars+1),
		activity: make([]float64, numVars+1),
		varInc:   1.0,
		opts:     opts,
	}
	for _, raw := range clauses {
		cl := simplifyClause(raw)
		switch {
		case cl == nil:
			continue // tautological clause
		case len(cl) == 0:
			return Result{Status: Unsat}, nil
		case len(cl) == 1:
			if !s.enqueue(cl[0], nil) {
				return Result{Status: Unsat}, nil
			}
		default:
			c := &clause{lits: cl}
			s.clauses = append(s.clauses, c)
			s.watch(c, cl[0])
			s.watch(c, cl[1])
		}
	}
	if s.propagate() != nil {
		return Result{Status: Unsat}, nil
	}
	st, err := s.search()
	res := Result{Status: st}
	if st == Sat {
		res.Model = make([]bool, numVars)
		for v := 1; v <= numVars; v++ {
			res.Model[v-1] = s.assign[v] == lTrue
		}
	}
	return res, err
}

// simplifyClause dedups literals and returns nil for tautologies.
func simplifyClause(raw []int) []int {
	seen := make(map[int]struct{}, len(raw))
	out := make([]int, 0, len(raw))
	for _, l := range raw {
		if l == 0 {
			continue
		}
		if _, dup := seen[l]; dup {
			continue
		}
		if _, opp := seen[-l]; opp {
			return nil
		}
		seen[l] = struct{}{}
		out = append(out, l)
	}
	return out
}

func (s *solver) watch(c *clause, lit int) {
	s.watches[-lit] = append(s.watches[-lit], c)
}

func (s *solver) value(lit int) int8 {
	v := lit
	if v < 0 {
		v = -v
	}
	a := s.assign[v]
	if lit < 0 {
		return -a
	}
	return a
}

// enqueue records lit as true; returns false on immediate conflict.
func (s *solver) enqueue(lit int, from *clause) bool {
	switch s.value(lit) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := lit
	val := lTrue
	if v < 0 {
		v = -v
		val = lFalse
	}
	s.assign[v] = val
	s.reason[v] = from
	s.level[v] = s.decisionLevel()
	s.trail = append(s.trail, lit)
	return true
}

// propagate runs two-watched-literal unit propagation over the trail.
// It returns the conflicting clause, or nil.
func (s *solver) propagate() *clause {
	for qhead := 0; qhead < len(s.trail); qhead++ {
		lit := s.trail[qhead]
		// Clauses watching ¬lit may have become unit or false.
		ws := s.watches[lit]
		s.watches[lit] = nil
		kept := ws[:0]
		var conflict *clause
		for i, c := range ws {
			if conflict != nil {
				kept = append(kept, ws[i:]...)
				break
			}
			if !s.updateWatch(c, -lit) {
				// Clause is unit or conflicting under current assignment.
				unit := s.otherWatched(c, -lit)
				kept = append(kept, c)
				if unit == 0 || !s.enqueue(unit, c) {
					conflict = c
				}
			}
		}
		if len(kept) > 0 {
			s.watches[lit] = append(s.watches[lit], kept...)
		}
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

// updateWatch tries to move the watch of c off falseLit to another
// non-false literal. Returns true if moved.
func (s *solver) updateWatch(c *clause, falseLit int) bool {
	lits := c.lits
	// Keep watched literals in lits[0] and lits[1].
	if lits[0] == falseLit {
		lits[0], lits[1] = lits[1], lits[0]
	}
	// lits[1] is the false watch now; if lits[0] is true the clause is
	// satisfied — rewatch lits[1] anyway is unnecessary; keep as is.
	if s.value(lits[0]) == lTrue {
		s.watch(c, falseLit) // keep watching; cheap and sound
		return true
	}
	for i := 2; i < len(lits); i++ {
		if s.value(lits[i]) != lFalse {
			lits[1], lits[i] = lits[i], lits[1]
			s.watch(c, lits[1])
			return true
		}
	}
	return false
}

// otherWatched returns the watched literal of c that is not falseLit, or 0
// if it is already false (conflict).
func (s *solver) otherWatched(c *clause, falseLit int) int {
	other := c.lits[0]
	if other == falseLit {
		other = c.lits[1]
	}
	if s.value(other) == lFalse {
		return 0
	}
	return other
}

func (s *solver) decisionLevel() int { return len(s.trailLim) }

func (s *solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

// cancelUntil undoes assignments above the given decision level.
func (s *solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		lit := s.trail[i]
		v := lit
		if v < 0 {
			v = -v
		}
		s.assign[v] = lUndef
		s.reason[v] = nil
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
}

// bump increases a variable's activity, rescaling on overflow.
func (s *solver) bump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// pickBranchVar returns the unassigned variable with highest activity,
// breaking ties by index for determinism.
func (s *solver) pickBranchVar() int {
	best, bestAct := 0, -1.0
	for v := 1; v <= s.numVars; v++ {
		if s.assign[v] == lUndef && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// analyze derives the first-UIP learned clause from a conflict and the
// decision level to backjump to. The learned clause's asserting literal is
// placed first.
func (s *solver) analyze(conflict *clause) (learned []int, backLevel int) {
	seen := make([]bool, s.numVars+1)
	counter := 0 // literals of the current level awaiting resolution
	var out []int
	idx := len(s.trail) - 1
	reason := conflict
	var asserting int
	for {
		for _, l := range reason.lits {
			v := l
			if v < 0 {
				v = -v
			}
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bump(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				out = append(out, l)
			}
		}
		// Walk the trail backwards to the next marked literal of the
		// current level.
		for {
			v := s.trail[idx]
			if v < 0 {
				v = -v
			}
			if seen[v] {
				break
			}
			idx--
		}
		v := s.trail[idx]
		lit := v
		if v < 0 {
			v = -v
		}
		// seen[v] stays set: the variable is resolved away, and its
		// reason clause mentions it again (as the implied literal).
		counter--
		idx--
		if counter == 0 {
			asserting = -lit
			break
		}
		reason = s.reason[v]
	}
	learned = append([]int{asserting}, out...)
	backLevel = 0
	// Backjump to the second-highest level in the clause, keeping the
	// asserting literal's watch position at index 1.
	best := 1
	for i := 1; i < len(learned); i++ {
		v := learned[i]
		if v < 0 {
			v = -v
		}
		if s.level[v] > backLevel {
			backLevel = s.level[v]
			best = i
		}
	}
	if len(learned) > 1 {
		learned[1], learned[best] = learned[best], learned[1]
	}
	return learned, backLevel
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	var k uint = 1
	for ; (int64(1)<<k)-1 < i; k++ {
	}
	for (int64(1)<<k)-1 != i {
		k--
		i -= (int64(1) << k) - 1
	}
	return int64(1) << (k - 1)
}

func (s *solver) search() (Status, error) {
	var restarts int64 = 1
	budget := 64 * luby(restarts)
	var sinceRestart int64
	for {
		conflict := s.propagate()
		if conflict != nil {
			s.conflicts++
			sinceRestart++
			if s.decisionLevel() == 0 {
				return Unsat, nil
			}
			learned, backLevel := s.analyze(conflict)
			s.varInc *= 1.05
			s.cancelUntil(backLevel)
			if len(learned) == 1 {
				if !s.enqueue(learned[0], nil) {
					return Unsat, nil
				}
				continue
			}
			c := &clause{lits: learned}
			s.learned = append(s.learned, c)
			s.watch(c, learned[0])
			s.watch(c, learned[1])
			if !s.enqueue(learned[0], c) {
				return Unsat, nil
			}
			continue
		}
		if sinceRestart >= budget && s.decisionLevel() > 0 {
			// Luby restart: learned clauses persist, assignments reset.
			sinceRestart = 0
			restarts++
			budget = 64 * luby(restarts)
			s.cancelUntil(0)
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			return Sat, nil
		}
		s.decisions++
		if s.opts.MaxDecisions > 0 && s.decisions > s.opts.MaxDecisions {
			return Unknown, ErrBudget
		}
		s.newDecisionLevel()
		s.enqueue(-v, nil) // branch false first: content formulas are sparse
	}
}
