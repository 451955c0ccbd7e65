package spec

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
)

// sym builds a descriptor as an op builds it: a numeric kind's argument
// is its integer when arg spells one.
func sym(kind, arg string) oplog.Sym {
	switch kind {
	case adt.KindNumAdd, adt.KindNumStore, adt.KindListPush:
		if n, err := strconv.ParseInt(arg, 10, 64); err == nil {
			return oplog.Sym{Kind: kind, N: n, Int: true}
		}
	}
	return oplog.Sym{Kind: kind, Arg: arg}
}

// keyOf renders a sequence's key under m.
func keyOf(m Mode, syms []oplog.Sym) string { return string(m.AppendKey(nil, syms)) }

// pairKey renders a pair's key as every put and lookup builds it: each
// sequence rendered once, the two joined.
func pairKey(m Mode, s1, s2 []oplog.Sym) string {
	return string(appendJoinedKeys(nil, m.AppendKey(nil, s1), m.AppendKey(nil, s2)))
}

func addPair(a int) []oplog.Sym {
	return []oplog.Sym{
		sym(adt.KindNumAdd, strconv.Itoa(a)),
		sym(adt.KindNumAdd, strconv.Itoa(-a)),
	}
}

func TestConcreteModeKeepsLength(t *testing.T) {
	a := Concrete
	k1 := keyOf(a, addPair(2))
	k2 := keyOf(a, append(addPair(2), addPair(3)...))
	if k1 == k2 {
		t.Fatalf("concrete mode must distinguish lengths: %q vs %q", k1, k2)
	}
	if k1 != "num.add · num.add" {
		t.Errorf("concrete key = %q", k1)
	}
}

// TestPaperExample reproduces the §3 example: { work+=x; work-=x }
// abstracts to ({ work+=x; work-=x })+, and the four-op instance
// { +2; -2; +1; -1 } matches the two-op instance { +3; -3 }.
func TestPaperExample(t *testing.T) {
	a := Abstract
	short := keyOf(a, addPair(3))
	long := keyOf(a, append(addPair(2), addPair(1)...))
	if short != long {
		t.Fatalf("abstraction must unify repetition counts: %q vs %q", short, long)
	}
	if short != "(num.add num.add)+" {
		t.Errorf("pattern = %q", short)
	}
}

func TestNonIdempotentNotCollapsed(t *testing.T) {
	a := Abstract
	// add(2); add(3) has net effect +5: not idempotent at any block size.
	key := keyOf(a, []oplog.Sym{sym(adt.KindNumAdd, "2"), sym(adt.KindNumAdd, "3")})
	if key != "num.add · num.add" {
		t.Errorf("non-idempotent pair must stay literal, got %q", key)
	}
}

func TestSingleOpStoreCollapses(t *testing.T) {
	a := Abstract
	// A pure store is idempotent, so put; put; put collapses to (put)+.
	one := keyOf(a, []oplog.Sym{sym(adt.KindRelPut, "white")})
	three := keyOf(a, []oplog.Sym{
		sym(adt.KindRelPut, "white"), sym(adt.KindRelPut, "gray"), sym(adt.KindRelPut, "white"),
	})
	if one != three || one != "(rel.put)+" {
		t.Errorf("put runs must unify: %q vs %q", one, three)
	}
}

func TestStackBalancedCollapses(t *testing.T) {
	a := Abstract
	push := sym(adt.KindListPush, "5")
	pop := sym(adt.KindListPop, "")
	once := keyOf(a, []oplog.Sym{push, pop})
	twice := keyOf(a, []oplog.Sym{push, pop, sym(adt.KindListPush, "9"), pop})
	if once != twice || once != "(list.push list.pop)+" {
		t.Errorf("balanced stack runs must unify: %q vs %q", once, twice)
	}
	// Nested balance collapses as one larger idempotent block.
	nested := keyOf(a, []oplog.Sym{push, push, pop, pop})
	if nested != "(list.push list.push list.pop list.pop)+" {
		t.Errorf("nested pattern = %q", nested)
	}
}

func TestMixedSequence(t *testing.T) {
	a := Abstract
	// load (idempotent alone) then add (not) then identity pair.
	key := keyOf(a, []oplog.Sym{
		sym(adt.KindNumLoad, ""),
		sym(adt.KindNumAdd, "7"),
		sym(adt.KindNumAdd, "2"), sym(adt.KindNumAdd, "-2"),
	})
	// The leading load collapses to (load)+; add(7) stays; trailing pair:
	// note add(7) followed by add(2),add(-2) — the scanner reaches add(7)
	// and checks blocks starting there: [add] no, [add add] (7,2) no,
	// [add add add] net 7 no; so add(7) literal, then (add add)+.
	want := "(num.load)+ · num.add · (num.add num.add)+"
	if key != want {
		t.Errorf("key = %q, want %q", key, want)
	}
}

// TestMaxBlockBound: an idempotent block longer than maxBlock is never
// collapsed, one of exactly maxBlock ops is.
func TestMaxBlockBound(t *testing.T) {
	identity := func(n int) []oplog.Sym {
		seq := make([]oplog.Sym, 0, n)
		for i := 1; i < n; i++ {
			seq = append(seq, sym(adt.KindNumAdd, "1"))
		}
		return append(seq, sym(adt.KindNumAdd, strconv.Itoa(1-n)))
	}
	within := identity(maxBlock)
	if key := keyOf(Abstract, within); key != "("+strings.TrimSuffix(strings.Repeat("num.add ", maxBlock), " ")+")+" {
		t.Errorf("block of %d ops: key = %q", maxBlock, key)
	}
	beyond := identity(maxBlock + 1)
	if key := keyOf(Abstract, beyond); key != keyOf(Concrete, beyond) {
		t.Errorf("block of %d ops must stay literal, key = %q", maxBlock+1, key)
	}
}

func TestPairKeySymmetric(t *testing.T) {
	a := Abstract
	s1 := addPair(2)
	s2 := []oplog.Sym{sym(adt.KindNumAdd, "9")}
	if pairKey(a, s1, s2) != pairKey(a, s2, s1) {
		t.Errorf("PairKey must be order-insensitive")
	}
	if pairKey(a, s1, s2) == pairKey(a, s1, s1) {
		t.Errorf("different pairs must have different keys")
	}
}

func TestModeString(t *testing.T) {
	if Concrete.String() != "concrete" || Abstract.String() != "abstract" {
		t.Errorf("mode strings wrong")
	}
}

func TestElemAndPatternString(t *testing.T) {
	p := Pattern{
		{Kinds: []string{"a"}},
		{Kinds: []string{"b", "c"}, Plus: true},
	}
	if p.String() != "a · (b c)+" {
		t.Errorf("Pattern String = %q", p.String())
	}
}

func TestEmptySequence(t *testing.T) {
	a := Abstract
	if key := keyOf(a, nil); key != "" {
		t.Errorf("empty key = %q", key)
	}
	c := Concrete
	if key := keyOf(c, nil); key != "" {
		t.Errorf("empty concrete key = %q", key)
	}
}

// appendPairKeyRotated is the pair-key renderer the join replaced, kept
// as the reference the join is held to: both keys rendered in place one
// after the other, and when they sort out of order the two segments
// swapped by rotation (each segment reversed, then the whole; the
// separator's bytes are restored by the double reversal).
func appendPairKeyRotated(dst []byte, m Mode, s1, s2 []oplog.Sym) []byte {
	start := len(dst)
	dst = m.AppendKey(dst, s1)
	mid := len(dst)
	dst = append(dst, pairSep...)
	sepEnd := len(dst)
	dst = m.AppendKey(dst, s2)
	pair := dst[start:]
	k1, k2 := pair[:mid-start], dst[sepEnd:]
	if string(k2) < string(k1) {
		reverseBytes(k1)
		reverseBytes(pair[len(k1) : len(k1)+len(pairSep)])
		reverseBytes(k2)
		reverseBytes(pair)
	}
	return dst
}

func reverseBytes(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}

// TestJoinedSeqKeysEqualPairKey: over random descriptor sequences, in
// both modes and for the pair in both orders, rendering each sequence and
// joining the keys yields the bytes of the rotating renderer the join
// replaced — so spec artifacts and the golden file keep their keys.
func TestJoinedSeqKeysEqualPairKey(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	kinds := []string{
		adt.KindNumAdd, adt.KindNumStore, adt.KindNumLoad, adt.KindStrStore, adt.KindRelPut,
		adt.KindRelGet, adt.KindRelRemove, adt.KindListPush, adt.KindListPop, adt.KindListSize,
	}
	genSeq := func() []oplog.Sym {
		out := make([]oplog.Sym, rng.Intn(10))
		for i := range out {
			out[i] = sym(kinds[rng.Intn(len(kinds))], strconv.Itoa(rng.Intn(5)-2))
		}
		return out
	}
	for _, m := range []Mode{Concrete, Abstract} {
		for i := 0; i < 2000; i++ {
			s1, s2 := genSeq(), genSeq()
			k1, k2 := m.AppendKey(nil, s1), m.AppendKey(nil, s2)
			for _, pair := range [][2][]oplog.Sym{{s1, s2}, {s2, s1}} {
				want := string(appendPairKeyRotated([]byte("prefix"), m, pair[0], pair[1]))[len("prefix"):]
				if got := string(appendJoinedKeys(nil, k1, k2)); got != want {
					t.Fatalf("%v: joined keys %q, rotated pair key %q for %v, %v", m, got, want, pair[0], pair[1])
				}
			}
		}
	}
}

// TestAppendPairKeyAllocs: rendering both keys of a Kleene-collapsible
// pair and joining them, each into a buffer with room, allocates nothing
// — the collapse search compares block shapes in place and decides
// idempotence without building anything. The longer side collapses over
// four repetitions, so shapes are compared past the first block.
func TestAppendPairKeyAllocs(t *testing.T) {
	var long, short []oplog.Sym
	for i := 1; i <= 4; i++ {
		long = append(long, addPair(i)...)
	}
	for i := 1; i <= 2; i++ {
		short = append(short, addPair(i+4)...)
	}
	var k1, k2, buf []byte
	render := func() {
		k1 = Abstract.AppendKey(k1[:0], long)
		k2 = Abstract.AppendKey(k2[:0], short)
		buf = appendJoinedKeys(buf[:0], k1, k2)
	}
	render()
	if want := "(num.add num.add)+ ⇄ (num.add num.add)+"; string(buf) != want {
		t.Fatalf("pair key = %q, want %q", buf, want)
	}
	if n := testing.AllocsPerRun(100, render); n != 0 {
		t.Fatalf("rendering and joining a pair key into warm buffers allocates %.0f per call, want 0", n)
	}
}
