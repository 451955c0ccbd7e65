package spec

import (
	"repro/internal/oplog"
	"repro/internal/seqeff"
)

// The sequence abstraction of §5.2: a concrete per-location operation
// sequence generalizes to a regular form by detecting idempotent
// subsequences and applying the Kleene-cross operator. By Lemma 5.1, the
// CONFLICT algorithm cannot distinguish a sequence from one that repeats
// an idempotent subsequence, so { work+=x; work-=x } abstracts to
// ({ work+=x; work-=x })+ and matches instances of any repetition count.
//
// Abstraction here is a canonicalization: both the training-time sequence
// and the production-time query sequence are abstracted by the same
// deterministic algorithm, so "matching" reduces to equality of rendered
// patterns — an O(1) cache lookup, keeping runtime overhead on a par with
// write-set detection (§5.3).
//
// Argument values never appear in patterns; the commutativity conditions
// stored in the cache re-derive from the concrete arguments at query time
// (condition.go), which is what makes per-iteration rebinding of the
// symbolic values (x above) sound.

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

// maxBlock bounds collapse-candidate block lengths. Dependent
// per-location sequences in real traces are short; the bound keeps
// abstraction linear-ish.
const maxBlock = 8

// findCollapse searches at the head of rest for the smallest block length
// k whose block is idempotent, returning k and the number m of consecutive
// shape-equal idempotent repetitions (m ≥ 1). k = 0 means no idempotent
// block starts here.
func findCollapse(rest []oplog.Sym) (k, m int) {
	limit := min(maxBlock, len(rest))
	for k = 1; k <= limit; k++ {
		block := rest[:k]
		if !seqeff.BlockIdempotent(block) {
			continue
		}
		m = 1
		for {
			start := m * k
			if start+k > len(rest) {
				break
			}
			next := rest[start : start+k]
			if !sameKinds(next, block) || !seqeff.BlockIdempotent(next) {
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

// elemSep separates pattern elements in rendered keys.
const elemSep = " · "

// pairSep separates the two sequence keys of a pair key.
const pairSep = " ⇄ "

// AppendKey renders the sequence's key under mode m directly into dst and
// returns the extended slice. It is the one renderer of a sequence key:
// training, online learning, the detector's per-location memo and `janus
// trace` all call it, and a pair's key is two of its renderings joined by
// appendJoinedKeys. The Lemma 5.1 tests hold it to the rendering of a
// pattern built element by element (pattern_test.go); AppendKey skips
// that intermediate pattern, and the collapse search compares block
// shapes in place and asks seqeff's allocation-free analyses for
// idempotence, so into a buffer with room it allocates nothing — the
// per-query cost §5.3 requires to stay "on a par with write-set
// detection".
func (m Mode) AppendKey(dst []byte, syms []oplog.Sym) []byte {
	if m == Concrete {
		for i, s := range syms {
			if i > 0 {
				dst = append(dst, elemSep...)
			}
			dst = append(dst, s.Kind...)
		}
		return dst
	}
	i := 0
	for i < len(syms) {
		if i > 0 {
			dst = append(dst, elemSep...)
		}
		k, reps := findCollapse(syms[i:])
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
		i += k * reps
	}
	return dst
}

// appendJoinedKeys renders the canonical unordered pair key from two
// sequence keys (AppendKey output): commutativity is symmetric, so the two
// keys are sorted before joining.
func appendJoinedKeys(dst, k1, k2 []byte) []byte {
	if string(k2) < string(k1) {
		k1, k2 = k2, k1
	}
	dst = append(dst, k1...)
	dst = append(dst, pairSep...)
	return append(dst, k2...)
}
