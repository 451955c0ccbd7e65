// Package seqabs implements the sequence abstraction of JANUS §5.2:
// generalizing concrete per-location operation sequences into regular
// forms by detecting idempotent subsequences and applying the Kleene-cross
// operator. By Lemma 5.1, the CONFLICT algorithm cannot distinguish a
// sequence from one that repeats an idempotent subsequence, so
// { work+=x; work-=x } abstracts to ({ work+=x; work-=x })+ and matches
// instances of any repetition count.
//
// Abstraction here is a canonicalization: both the training-time sequence
// and the production-time query sequence are abstracted by the same
// deterministic algorithm, so "matching" reduces to equality of rendered
// patterns — an O(1) cache lookup, keeping runtime overhead on a par with
// write-set detection (§5.3).
//
// Argument values never appear in patterns; the commutativity conditions
// stored in the cache re-derive from the concrete arguments at query time
// (see internal/commute), which is what makes per-iteration rebinding of
// the symbolic values (x above) sound.
package seqabs

import (
	"strings"

	"repro/internal/oplog"
	"repro/internal/seqeff"
)

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

// Mode selects whether abstraction is applied — the experimental knob of
// Figure 11 (miss rates with and without sequence abstraction).
type Mode int

// Modes.
const (
	// Concrete renders the kind sequence verbatim (no generalization).
	Concrete Mode = iota
	// Abstract applies the Kleene-cross canonicalization.
	Abstract
)

// String renders the mode.
func (m Mode) String() string {
	if m == Abstract {
		return "abstract"
	}
	return "concrete"
}

// Abstracter abstracts sequences under a fixed mode and idempotence
// predicate. The zero value uses Abstract mode with the seqeff theory.
type Abstracter struct {
	Mode Mode
	// Idem decides idempotence of a concrete block; nil means
	// seqeff.BlockIdempotent.
	Idem func([]oplog.Sym) bool
	// MaxBlock bounds the block length considered for collapsing;
	// 0 means DefaultMaxBlock.
	MaxBlock int
}

// DefaultMaxBlock bounds collapse-candidate block lengths. Dependent
// per-location sequences in real traces are short; the bound keeps
// abstraction linear-ish.
const DefaultMaxBlock = 8

func (a *Abstracter) idem(block []oplog.Sym) bool {
	if a.Idem != nil {
		return a.Idem(block)
	}
	return seqeff.BlockIdempotent(block)
}

// Span records which concrete positions a pattern element covers.
type Span struct {
	Start, End int // half-open [Start, End)
	Block      int // block length for Plus elements (0 otherwise)
}

// Abstract canonicalizes a concrete symbolic sequence into its pattern.
func (a *Abstracter) Abstract(syms []oplog.Sym) Pattern {
	p, _ := a.AbstractWithSpans(syms)
	return p
}

// AbstractWithSpans additionally reports, per pattern element, the
// concrete index range it covers — used by trace tooling and by the
// Lemma 5.1 invariance tests (duplicating one block of a collapsed run
// must leave the pattern unchanged).
func (a *Abstracter) AbstractWithSpans(syms []oplog.Sym) (Pattern, []Span) {
	if a.Mode == Concrete {
		out := make(Pattern, len(syms))
		spans := make([]Span, len(syms))
		for i, s := range syms {
			out[i] = Elem{Kinds: []string{s.Kind}}
			spans[i] = Span{Start: i, End: i + 1}
		}
		return out, spans
	}
	maxBlock := a.MaxBlock
	if maxBlock == 0 {
		maxBlock = DefaultMaxBlock
	}
	var out Pattern
	var spans []Span
	i := 0
	for i < len(syms) {
		k, m := a.findCollapse(syms[i:], maxBlock)
		if k == 0 {
			out = append(out, Elem{Kinds: []string{syms[i].Kind}})
			spans = append(spans, Span{Start: i, End: i + 1})
			i++
			continue
		}
		out = append(out, Elem{Kinds: kinds(syms[i : i+k]), Plus: true})
		spans = append(spans, Span{Start: i, End: i + k*m, Block: k})
		i += k * m
	}
	return out, spans
}

// findCollapse searches at the head of rest for the smallest block length
// k whose block is idempotent, returning k and the number m of consecutive
// shape-equal idempotent repetitions (m ≥ 1). k = 0 means no idempotent
// block starts here.
func (a *Abstracter) findCollapse(rest []oplog.Sym, maxBlock int) (k, m int) {
	limit := maxBlock
	if limit > len(rest) {
		limit = len(rest)
	}
	for k = 1; k <= limit; k++ {
		block := rest[:k]
		if !a.idem(block) {
			continue
		}
		m = 1
		for {
			start := m * k
			if start+k > len(rest) {
				break
			}
			next := rest[start : start+k]
			if !sameKinds(next, block) || !a.idem(next) {
				break
			}
			m++
		}
		return k, m
	}
	return 0, 0
}

// sameKinds reports whether two equal-length blocks have the same shape,
// their kind sequence, comparing the kinds in place. Operation kinds hold
// no space, so this decides exactly what comparing the blocks' joined
// renderings would.
func sameKinds(a, b []oplog.Sym) bool {
	for i := range a {
		if a[i].Kind != b[i].Kind {
			return false
		}
	}
	return true
}

func kinds(syms []oplog.Sym) []string {
	out := make([]string, len(syms))
	for i, s := range syms {
		out[i] = s.Kind
	}
	return out
}

// Key abstracts a sequence and renders its cache key in one step.
func (a *Abstracter) Key(syms []oplog.Sym) string {
	return string(a.AppendKey(nil, syms))
}

// elemSep separates pattern elements in rendered keys (Pattern.String
// uses the same separator).
const elemSep = " · "

// pairSep separates the two sequence keys of a pair key.
const pairSep = " ⇄ "

// AppendKey renders the sequence's cache key directly into dst and
// returns the extended slice. It produces exactly Abstract(syms).String()
// but skips the intermediate Pattern, and the collapse search compares
// block shapes in place and asks seqeff's allocation-free analyses for
// idempotence, so into a buffer with room it allocates nothing — the
// per-query cost §5.3 requires to stay "on a par with write-set
// detection".
func (a *Abstracter) AppendKey(dst []byte, syms []oplog.Sym) []byte {
	if a.Mode == Concrete {
		for i, s := range syms {
			if i > 0 {
				dst = append(dst, elemSep...)
			}
			dst = append(dst, s.Kind...)
		}
		return dst
	}
	maxBlock := a.MaxBlock
	if maxBlock == 0 {
		maxBlock = DefaultMaxBlock
	}
	i := 0
	for i < len(syms) {
		if i > 0 {
			dst = append(dst, elemSep...)
		}
		k, m := a.findCollapse(syms[i:], maxBlock)
		if k == 0 {
			dst = append(dst, syms[i].Kind...)
			i++
			continue
		}
		dst = append(dst, '(')
		for j := 0; j < k; j++ {
			if j > 0 {
				dst = append(dst, ' ')
			}
			dst = append(dst, syms[i+j].Kind...)
		}
		dst = append(dst, ")+"...)
		i += k * m
	}
	return dst
}

// PairKey renders the canonical unordered cache key for a pair of
// sequences: commutativity is symmetric, so the two patterns are sorted
// before joining.
func (a *Abstracter) PairKey(s1, s2 []oplog.Sym) string {
	return string(a.AppendPairKey(nil, s1, s2))
}

// AppendPairKey renders the canonical pair key into dst without any
// intermediate allocation: both keys are rendered in place, and when they
// sort out of order the two segments are swapped by rotation.
func (a *Abstracter) AppendPairKey(dst []byte, s1, s2 []oplog.Sym) []byte {
	start := len(dst)
	dst = a.AppendKey(dst, s1)
	mid := len(dst)
	dst = append(dst, pairSep...)
	sepEnd := len(dst)
	dst = a.AppendKey(dst, s2)
	pair := dst[start:]
	k1, k2 := pair[:mid-start], dst[sepEnd:]
	if string(k2) < string(k1) {
		// Rotate [k1 sep k2] into [k2 sep k1]: reverse each segment,
		// then the whole (the separator's bytes are restored by the
		// double reversal).
		reverseBytes(k1)
		reverseBytes(pair[len(k1) : len(k1)+len(pairSep)])
		reverseBytes(k2)
		reverseBytes(pair)
	}
	return dst
}

// AppendJoinedKeys renders the canonical pair key from two already
// rendered sequence keys (AppendKey output): the keys are sorted and
// joined exactly as AppendPairKey would, without re-abstracting either
// sequence.
func AppendJoinedKeys(dst, k1, k2 []byte) []byte {
	if string(k2) < string(k1) {
		k1, k2 = k2, k1
	}
	dst = append(dst, k1...)
	dst = append(dst, pairSep...)
	return append(dst, k2...)
}

func reverseBytes(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}
