package spec

import (
	"strings"

	"repro/internal/oplog"
)

// The pattern-building abstraction: the reference AppendKey's rendering
// is held to, and what the Lemma 5.1 tests read spans from.

// Elem is one element of an abstract pattern: a block of operation kinds,
// optionally under the Kleene-cross (one or more repetitions).
type Elem struct {
	Kinds []string
	Plus  bool
}

// String renders the element.
func (e Elem) String() string {
	body := strings.Join(e.Kinds, " ")
	if e.Plus {
		return "(" + body + ")+"
	}
	return body
}

// Pattern is the regular abstraction of a sequence.
type Pattern []Elem

// String renders the pattern canonically; equal strings mean equal
// patterns, so this rendering is the cache key.
func (p Pattern) String() string {
	parts := make([]string, len(p))
	for i, e := range p {
		parts[i] = e.String()
	}
	return strings.Join(parts, " · ")
}

// Span records which concrete positions a pattern element covers.
type Span struct {
	Start, End int // half-open [Start, End)
	Block      int // block length for Plus elements (0 otherwise)
}

// abstractWithSpans canonicalizes a concrete symbolic sequence into its
// pattern and reports, per pattern element, the concrete index range it
// covers: duplicating one block of a collapsed run must leave the
// pattern unchanged (Lemma 5.1).
func abstractWithSpans(m Mode, syms []oplog.Sym) (Pattern, []Span) {
	if m == Concrete {
		out := make(Pattern, len(syms))
		spans := make([]Span, len(syms))
		for i, s := range syms {
			out[i] = Elem{Kinds: []string{s.Kind}}
			spans[i] = Span{Start: i, End: i + 1}
		}
		return out, spans
	}
	var out Pattern
	var spans []Span
	i := 0
	for i < len(syms) {
		k, reps := findCollapse(syms[i:])
		if k == 0 {
			out = append(out, Elem{Kinds: []string{syms[i].Kind}})
			spans = append(spans, Span{Start: i, End: i + 1})
			i++
			continue
		}
		out = append(out, Elem{Kinds: kinds(syms[i : i+k]), Plus: true})
		spans = append(spans, Span{Start: i, End: i + k*reps, Block: k})
		i += k * reps
	}
	return out, spans
}

func kinds(syms []oplog.Sym) []string {
	out := make([]string, len(syms))
	for i, s := range syms {
		out[i] = s.Kind
	}
	return out
}
