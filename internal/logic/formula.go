// Package logic implements the propositional formula language of JANUS
// Table 1, used to represent the content of relations (Table 4) and to pose
// equivalence queries to the SAT solver (§6.2).
//
// The grammar of the paper is
//
//	f := true | false | c = v | ¬f | f ∧ f | f ∨ f
//
// Atoms are column-equals-value propositions. The package provides
// construction with on-the-fly simplification, evaluation under an
// assignment, structural utilities, and Tseitin conversion to CNF for the
// solver in internal/sat.
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Formula is a propositional formula over column=value atoms.
// Formulas are immutable; all constructors may simplify.
type Formula interface {
	// Eval evaluates the formula under the given truth assignment for
	// atoms. Atoms absent from the assignment default to false.
	Eval(asn map[Atom]bool) bool
	// Vars adds every atom occurring in the formula to set.
	Vars(set map[Atom]struct{})
	// precedence guides parenthesization in String.
	precedence() int
	fmt.Stringer
}

// Atom is the proposition "column Col has value Val" (c = v in Table 1).
// Two atoms are the same proposition iff they are equal as values.
type Atom struct {
	Col string
	Val string
}

// Eval implements Formula.
func (a Atom) Eval(asn map[Atom]bool) bool { return asn[a] }

// Vars implements Formula.
func (a Atom) Vars(set map[Atom]struct{}) { set[a] = struct{}{} }

func (a Atom) precedence() int { return 4 }

// String implements Formula.
func (a Atom) String() string { return a.Col + "=" + a.Val }

type constant bool

// True and False are the constant formulas of Table 1.
var (
	True  Formula = constant(true)
	False Formula = constant(false)
)

func (c constant) Eval(map[Atom]bool) bool { return bool(c) }
func (c constant) Vars(map[Atom]struct{})  {}
func (c constant) precedence() int         { return 4 }
func (c constant) String() string {
	if c {
		return "true"
	}
	return "false"
}

// NotF is the negation ¬F.
type NotF struct{ F Formula }

// Eval implements Formula.
func (n NotF) Eval(asn map[Atom]bool) bool { return !n.F.Eval(asn) }

// Vars implements Formula.
func (n NotF) Vars(set map[Atom]struct{}) { n.F.Vars(set) }

func (n NotF) precedence() int { return 3 }

// String implements Formula.
func (n NotF) String() string { return "¬" + paren(n.F, 3) }

// AndF is the n-ary conjunction of Fs (the binary ∧ of Table 1 flattened).
type AndF struct{ Fs []Formula }

// Eval implements Formula.
func (a AndF) Eval(asn map[Atom]bool) bool {
	for _, f := range a.Fs {
		if !f.Eval(asn) {
			return false
		}
	}
	return true
}

// Vars implements Formula.
func (a AndF) Vars(set map[Atom]struct{}) {
	for _, f := range a.Fs {
		f.Vars(set)
	}
}

func (a AndF) precedence() int { return 2 }

// String implements Formula.
func (a AndF) String() string { return joinOperands(a.Fs, " ∧ ", 2) }

// OrF is the n-ary disjunction of Fs.
type OrF struct{ Fs []Formula }

// Eval implements Formula.
func (o OrF) Eval(asn map[Atom]bool) bool {
	for _, f := range o.Fs {
		if f.Eval(asn) {
			return true
		}
	}
	return false
}

// Vars implements Formula.
func (o OrF) Vars(set map[Atom]struct{}) {
	for _, f := range o.Fs {
		f.Vars(set)
	}
}

func (o OrF) precedence() int { return 1 }

// String implements Formula.
func (o OrF) String() string { return joinOperands(o.Fs, " ∨ ", 1) }

func paren(f Formula, ctx int) string {
	s := f.String()
	if f.precedence() < ctx {
		return "(" + s + ")"
	}
	return s
}

func joinOperands(fs []Formula, sep string, prec int) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = paren(f, prec+1)
	}
	return strings.Join(parts, sep)
}

// Not returns ¬f, simplifying constants and double negation.
func Not(f Formula) Formula {
	switch g := f.(type) {
	case constant:
		return constant(!g)
	case NotF:
		return g.F
	}
	return NotF{F: f}
}

// And returns the conjunction of fs with constant folding and flattening.
func And(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch g := f.(type) {
		case constant:
			if !bool(g) {
				return False
			}
		case AndF:
			out = append(out, g.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return True
	case 1:
		return out[0]
	}
	return AndF{Fs: out}
}

// Or returns the disjunction of fs with constant folding and flattening.
func Or(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch g := f.(type) {
		case constant:
			if bool(g) {
				return True
			}
		case OrF:
			out = append(out, g.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return False
	case 1:
		return out[0]
	}
	return OrF{Fs: out}
}

// Iff returns f ↔ g expressed in the base grammar:
// (f ∧ g) ∨ (¬f ∧ ¬g).
func Iff(f, g Formula) Formula {
	return Or(And(f, g), And(Not(f), Not(g)))
}

// Xor returns f ⊕ g = ¬(f ↔ g).
func Xor(f, g Formula) Formula { return Not(Iff(f, g)) }

// Atoms returns the atoms of f in a deterministic (sorted) order.
func Atoms(f Formula) []Atom {
	set := make(map[Atom]struct{})
	f.Vars(set)
	out := make([]Atom, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Val < out[j].Val
	})
	return out
}

// Substitute replaces every occurrence of atom a in f by the formula g.
func Substitute(f Formula, a Atom, g Formula) Formula {
	switch h := f.(type) {
	case constant:
		return h
	case Atom:
		if h == a {
			return g
		}
		return h
	case NotF:
		return Not(Substitute(h.F, a, g))
	case AndF:
		fs := make([]Formula, len(h.Fs))
		for i, sub := range h.Fs {
			fs[i] = Substitute(sub, a, g)
		}
		return And(fs...)
	case OrF:
		fs := make([]Formula, len(h.Fs))
		for i, sub := range h.Fs {
			fs[i] = Substitute(sub, a, g)
		}
		return Or(fs...)
	}
	panic(fmt.Sprintf("logic: unknown formula type %T", f))
}
