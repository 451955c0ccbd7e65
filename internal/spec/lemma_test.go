package spec

import (
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/seqeff"
)

func genRegisterOp(rng *rand.Rand) oplog.Sym {
	switch rng.Intn(4) {
	case 0:
		return oplog.Sym{Kind: adt.KindNumAdd, N: int64(rng.Intn(7) - 3), Int: true}
	case 1:
		return oplog.Sym{Kind: adt.KindNumStore, N: int64(rng.Intn(4)), Int: true}
	default:
		return oplog.Sym{Kind: adt.KindNumLoad}
	}
}

// TestLemma51DuplicationInvariance is the abstraction-level counterpart of
// Lemma 5.1: duplicating one block of a run the abstracter collapsed under
// the Kleene-cross must not change the abstract pattern — this is exactly
// what makes the cache key match instances of any repetition count. The
// test duplicates the leading block of every Plus element on random
// sequences and checks key equality, and additionally re-verifies the
// collapsed block's idempotence under the effect theory (the soundness
// premise of Lemma 5.1).
func TestLemma51DuplicationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := Abstract
	checked := 0
	for iter := 0; iter < 4000 && checked < 400; iter++ {
		n := 1 + rng.Intn(8)
		seq := make([]oplog.Sym, n)
		for i := range seq {
			seq[i] = genRegisterOp(rng)
		}
		pattern, spans := abstractWithSpans(a, seq)
		key := pattern.String()
		for ei, elem := range pattern {
			if !elem.Plus {
				continue
			}
			checked++
			sp := spans[ei]
			block := seq[sp.Start : sp.Start+sp.Block]
			if !seqeff.BlockIdempotent(block) {
				t.Fatalf("collapsed block %v is not idempotent (Lemma 5.1 premise violated)", block)
			}
			dup := make([]oplog.Sym, 0, n+sp.Block)
			dup = append(dup, seq[:sp.Start+sp.Block]...)
			dup = append(dup, block...)
			dup = append(dup, seq[sp.Start+sp.Block:]...)
			if got := keyOf(a, dup); got != key {
				t.Fatalf("duplicating collapsed block changed the key:\nseq: %v → %q\ndup: %v → %q",
					seq, key, dup, got)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d collapsed blocks checked; generator too restrictive", checked)
	}
}

// TestSpansCoverSequence checks the AbstractWithSpans contract: spans are
// contiguous, cover the whole sequence, and Plus spans are whole multiples
// of their block length.
func TestSpansCoverSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Abstract
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(10)
		seq := make([]oplog.Sym, n)
		for i := range seq {
			seq[i] = genRegisterOp(rng)
		}
		pattern, spans := abstractWithSpans(a, seq)
		if len(pattern) != len(spans) {
			t.Fatalf("pattern/spans length mismatch: %d vs %d", len(pattern), len(spans))
		}
		pos := 0
		for i, sp := range spans {
			if sp.Start != pos {
				t.Fatalf("span %d starts at %d, want %d (seq %v)", i, sp.Start, pos, seq)
			}
			if sp.End <= sp.Start {
				t.Fatalf("span %d empty", i)
			}
			if pattern[i].Plus {
				width := sp.End - sp.Start
				if sp.Block <= 0 || width%sp.Block != 0 {
					t.Fatalf("plus span %d: width %d not a multiple of block %d", i, width, sp.Block)
				}
				if len(pattern[i].Kinds) != sp.Block {
					t.Fatalf("plus span %d: block %d but %d kinds", i, sp.Block, len(pattern[i].Kinds))
				}
			} else if sp.End-sp.Start != 1 || sp.Block != 0 {
				t.Fatalf("literal span %d: %+v", i, sp)
			}
			pos = sp.End
		}
		if pos != n {
			t.Fatalf("spans cover %d of %d ops", pos, n)
		}
	}
}

// TestConcreteSpans checks the Concrete-mode span contract.
func TestConcreteSpans(t *testing.T) {
	a := Concrete
	seq := []oplog.Sym{{Kind: adt.KindNumAdd, N: 1, Int: true}, {Kind: adt.KindNumLoad}}
	pattern, spans := abstractWithSpans(a, seq)
	if len(pattern) != 2 || len(spans) != 2 {
		t.Fatalf("concrete mode must be one elem per op")
	}
	if spans[1].Start != 1 || spans[1].End != 2 {
		t.Fatalf("spans = %+v", spans)
	}
}

// TestAbstractionNeverChangesConflictVerdict checks the soundness
// contract between abstraction and the condition language: two concrete
// sequences with the same abstract key and the same register analysis
// must receive identical conflict verdicts against any third sequence.
func TestAbstractionNeverChangesConflictVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a := Abstract
	gen := func() []oplog.Sym {
		n := 1 + rng.Intn(5)
		out := make([]oplog.Sym, n)
		for i := range out {
			out[i] = genRegisterOp(rng)
		}
		return out
	}
	for iter := 0; iter < 500; iter++ {
		s1, s2, s3 := gen(), gen(), gen()
		if keyOf(a, s1) != keyOf(a, s2) {
			continue
		}
		an1, ok1 := seqeff.AnalyzeRegister(s1)
		an2, ok2 := seqeff.AnalyzeRegister(s2)
		an3, ok3 := seqeff.AnalyzeRegister(s3)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		if an1 != an2 {
			continue // same shape but different instance semantics: fine
		}
		v1 := seqeff.PairConflicts(an1, an3)
		v2 := seqeff.PairConflicts(an2, an3)
		if v1 != v2 {
			t.Fatalf("semantically equal instances of one pattern got different verdicts:\ns1=%v s2=%v s3=%v", s1, s2, s3)
		}
	}
}
