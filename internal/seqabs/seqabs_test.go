package seqabs

import (
	"strconv"
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

func addPair(a int) []oplog.Sym {
	return []oplog.Sym{
		sym(adt.KindNumAdd, strconv.Itoa(a)),
		sym(adt.KindNumAdd, strconv.Itoa(-a)),
	}
}

func TestConcreteModeKeepsLength(t *testing.T) {
	a := &Abstracter{Mode: Concrete}
	k1 := a.Key(addPair(2))
	k2 := a.Key(append(addPair(2), addPair(3)...))
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
	a := &Abstracter{Mode: Abstract}
	short := a.Key(addPair(3))
	long := a.Key(append(addPair(2), addPair(1)...))
	if short != long {
		t.Fatalf("abstraction must unify repetition counts: %q vs %q", short, long)
	}
	if short != "(num.add num.add)+" {
		t.Errorf("pattern = %q", short)
	}
}

func TestNonIdempotentNotCollapsed(t *testing.T) {
	a := &Abstracter{Mode: Abstract}
	// add(2); add(3) has net effect +5: not idempotent at any block size.
	key := a.Key([]oplog.Sym{sym(adt.KindNumAdd, "2"), sym(adt.KindNumAdd, "3")})
	if key != "num.add · num.add" {
		t.Errorf("non-idempotent pair must stay literal, got %q", key)
	}
}

func TestSingleOpStoreCollapses(t *testing.T) {
	a := &Abstracter{Mode: Abstract}
	// A pure store is idempotent, so put; put; put collapses to (put)+.
	one := a.Key([]oplog.Sym{sym(adt.KindRelPut, "white")})
	three := a.Key([]oplog.Sym{
		sym(adt.KindRelPut, "white"), sym(adt.KindRelPut, "gray"), sym(adt.KindRelPut, "white"),
	})
	if one != three || one != "(rel.put)+" {
		t.Errorf("put runs must unify: %q vs %q", one, three)
	}
}

func TestStackBalancedCollapses(t *testing.T) {
	a := &Abstracter{Mode: Abstract}
	push := sym(adt.KindListPush, "5")
	pop := sym(adt.KindListPop, "")
	once := a.Key([]oplog.Sym{push, pop})
	twice := a.Key([]oplog.Sym{push, pop, sym(adt.KindListPush, "9"), pop})
	if once != twice || once != "(list.push list.pop)+" {
		t.Errorf("balanced stack runs must unify: %q vs %q", once, twice)
	}
	// Nested balance collapses as one larger idempotent block.
	nested := a.Key([]oplog.Sym{push, push, pop, pop})
	if nested != "(list.push list.push list.pop list.pop)+" {
		t.Errorf("nested pattern = %q", nested)
	}
}

func TestMixedSequence(t *testing.T) {
	a := &Abstracter{Mode: Abstract}
	// load (idempotent alone) then add (not) then identity pair.
	key := a.Key([]oplog.Sym{
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

func TestMaxBlockBound(t *testing.T) {
	a := &Abstracter{Mode: Abstract, MaxBlock: 2}
	// Identity block of length 3 exceeds the bound: stays literal.
	seq := []oplog.Sym{
		sym(adt.KindNumAdd, "1"), sym(adt.KindNumAdd, "1"), sym(adt.KindNumAdd, "-2"),
	}
	if key := a.Key(seq); key != "num.add · num.add · num.add" {
		t.Errorf("bounded key = %q", key)
	}
	wide := &Abstracter{Mode: Abstract, MaxBlock: 3}
	if key := wide.Key(seq); key != "(num.add num.add num.add)+" {
		t.Errorf("unbounded key = %q", key)
	}
}

func TestCustomIdemPredicate(t *testing.T) {
	never := &Abstracter{Mode: Abstract, Idem: func([]oplog.Sym) bool { return false }}
	if key := never.Key(addPair(1)); key != "num.add · num.add" {
		t.Errorf("custom predicate ignored: %q", key)
	}
}

func TestPairKeySymmetric(t *testing.T) {
	a := &Abstracter{Mode: Abstract}
	s1 := addPair(2)
	s2 := []oplog.Sym{sym(adt.KindNumAdd, "9")}
	if a.PairKey(s1, s2) != a.PairKey(s2, s1) {
		t.Errorf("PairKey must be order-insensitive")
	}
	if a.PairKey(s1, s2) == a.PairKey(s1, s1) {
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
	a := &Abstracter{Mode: Abstract}
	if key := a.Key(nil); key != "" {
		t.Errorf("empty key = %q", key)
	}
	c := &Abstracter{Mode: Concrete}
	if key := c.Key(nil); key != "" {
		t.Errorf("empty concrete key = %q", key)
	}
}

// TestAppendPairKeyAllocs: rendering the pair key of a Kleene-collapsible
// pair into a buffer with room allocates nothing — the collapse search
// compares block shapes in place and decides idempotence without
// building anything. The longer side collapses over four repetitions, so
// shapes are compared past the first block.
func TestAppendPairKeyAllocs(t *testing.T) {
	a := &Abstracter{Mode: Abstract}
	var long, short []oplog.Sym
	for i := 1; i <= 4; i++ {
		long = append(long, addPair(i)...)
	}
	for i := 1; i <= 2; i++ {
		short = append(short, addPair(i+4)...)
	}
	buf := a.AppendPairKey(nil, long, short)
	if want := "(num.add num.add)+ ⇄ (num.add num.add)+"; string(buf) != want {
		t.Fatalf("pair key = %q, want %q", buf, want)
	}
	if n := testing.AllocsPerRun(100, func() { buf = a.AppendPairKey(buf[:0], long, short) }); n != 0 {
		t.Fatalf("AppendPairKey into a warm buffer allocates %.0f per call, want 0", n)
	}
}
