package spec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
	"repro/internal/state"
)

// prefixSameRead is the SAMEREAD check of Figure 8 as written, for one
// read prefix of a sequence: l's value after the prefix is the same
// whether or not other ran first. It is the reference the one-pass
// conflictConcrete is held to.
func prefixSameRead(s *state.State, l oplog.PLoc, prefix, other oplog.Log) (bool, error) {
	s1 := s.Clone()
	if err := applyAll(s1, prefix); err != nil {
		return false, err
	}
	v1, err := plocValue(s1, l)
	if err != nil {
		return false, err
	}
	s2 := s.Clone()
	if err := applyAll(s2, other); err != nil {
		return false, err
	}
	if err := applyAll(s2, prefix); err != nil {
		return false, err
	}
	v2, err := plocValue(s2, l)
	if err != nil {
		return false, err
	}
	return v1.EqualValue(v2), nil
}

// prefixConflict is CONFLICT by the definition: SAMEREAD replayed from
// scratch for every read prefix (GETREADSUBSEQUENCES) of each side, then
// COMMUTE.
func prefixConflict(s *state.State, l oplog.PLoc, seq1, seq2 oplog.Log) (bool, error) {
	for _, side := range [...][2]oplog.Log{{seq1, seq2}, {seq2, seq1}} {
		for i, e := range side[0] {
			if !e.Op.IsRead() {
				continue
			}
			same, err := prefixSameRead(s, l, side[0][:i+1], side[1])
			if err != nil {
				return true, err
			}
			if !same {
				return true, nil
			}
		}
	}
	ok, err := commutes(s, l, seq1, seq2)
	if err != nil {
		return true, err
	}
	return !ok, nil
}

// eventsOf wraps ops as a log; conflictConcrete reads only the ops.
func eventsOf(task int, ops []oplog.Op) oplog.Log {
	l := make(oplog.Log, len(ops))
	for i, op := range ops {
		ev := oplog.NewEvent(op, task, i, nil, nil)
		l[i] = &ev
	}
	return l
}

// concreteDomain generates random sequences over one location and the
// entry states to run them from.
type concreteDomain struct {
	name    string
	ploc    oplog.PLoc
	op      func(rng *rand.Rand) oplog.Op
	entries func() []*state.State
}

func withLoc(loc state.Loc, vals ...state.Value) []*state.State {
	out := []*state.State{state.New()} // unbound: every op and read errors
	for _, v := range vals {
		st := state.New()
		st.Set(loc, v)
		out = append(out, st)
	}
	return out
}

var concreteDomains = []concreteDomain{
	{
		name: "register",
		ploc: oplog.PLoc{Loc: "x"},
		op: func(rng *rand.Rand) oplog.Op {
			switch rng.Intn(3) {
			case 0:
				return adt.NumAddOp{L: "x", Delta: int64(rng.Intn(5) - 2)}.Op()
			case 1:
				return adt.NumStoreOp{L: "x", V: int64(rng.Intn(3))}.Op()
			default:
				return adt.NumLoadOp{L: "x"}.Op()
			}
		},
		entries: func() []*state.State {
			return withLoc("x", state.Int(0), state.Int(1), state.Int(-2))
		},
	},
	{
		name: "stack",
		ploc: oplog.PLoc{Loc: "s"},
		op: func(rng *rand.Rand) oplog.Op {
			switch rng.Intn(3) {
			case 0:
				return adt.ListPushOp{L: "s", V: int64(rng.Intn(3))}.Op()
			case 1:
				return adt.ListPopOp{L: "s"}.Op() // errors on an empty stack
			default:
				return adt.ListSizeOp{L: "s"}.Op()
			}
		},
		entries: func() []*state.State {
			return withLoc("s", &state.IntList{}, &state.IntList{7}, &state.IntList{1, 2, 3})
		},
	},
	{
		name: "relational",
		ploc: oplog.PLoc{Loc: "r", Key: "k"},
		op: func(rng *rand.Rand) oplog.Op {
			key := []string{"k", "k", "j"}[rng.Intn(3)]
			switch rng.Intn(5) {
			case 0:
				return adt.RelPutOp{L: "r", Key: key, Val: []string{"a", "b"}[rng.Intn(2)]}.Op()
			case 1:
				return adt.RelRemoveOp{L: "r", Key: key}.Op()
			case 2:
				return adt.RelGetOp{L: "r", Key: key}.Op()
			case 3:
				return adt.RelHasOp{L: "r", Key: key}.Op()
			default:
				return adt.RelClearOp{L: "r"}.Op()
			}
		},
		entries: func() []*state.State {
			bound := adt.NewRelValue()
			bound.R.Put("k", "a")
			both := adt.NewRelValue()
			both.R.Put("k", "b")
			both.R.Put("j", "a")
			return withLoc("r", adt.NewRelValue(), bound, both)
		},
	},
	{
		name: "bounded",
		ploc: oplog.PLoc{Loc: "b", Key: "k"},
		op: func(rng *rand.Rand) oplog.Op {
			op := oplog.Op{K: boundedKind{}, L: "b", Key: []string{"k", "j", "m"}[rng.Intn(3)]}
			if rng.Intn(2) == 0 {
				op.Val = []string{"x", "y"}[rng.Intn(2)]
			}
			return op
		},
		entries: func() []*state.State {
			one := adt.NewRelValue()
			one.R.Put("k", "x")
			two := adt.NewRelValue()
			two.R.Put("j", "x")
			two.R.Put("m", "y")
			return withLoc("b", adt.NewRelValue(), one, two)
		},
	},
}

// TestConflictConcreteMatchesPrefixDefinition holds the one-pass
// conflictConcrete to the per-prefix definition of Figure 8 on random
// register, stack, relational and bounded-map pairs: the same verdict and
// an error on the same samples. Pops from an empty stack, unbound
// locations and binding a third key of a bounded map make some samples
// fail; a binding that fails after a sequence's last read must not fail
// the sample when the definition reaches a verdict first.
func TestConflictConcreteMatchesPrefixDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, d := range concreteDomains {
		t.Run(d.name, func(t *testing.T) {
			gen := func(task int) oplog.Log {
				ops := make([]oplog.Op, rng.Intn(7))
				for i := range ops {
					ops[i] = d.op(rng)
				}
				return eventsOf(task, ops)
			}
			var conflicts, clean, errs int
			for iter := 0; iter < 1500; iter++ {
				s1, s2 := gen(1), gen(2)
				for _, entry := range d.entries() {
					want, wantErr := prefixConflict(entry, d.ploc, s1, s2)
					got, gotErr := conflictConcrete(entry, d.ploc, s1, s2)
					if got != want || (gotErr != nil) != (wantErr != nil) {
						t.Fatalf("entry %v:\ns1=%v\ns2=%v\none pass: conflict=%v err=%v\nper prefix: conflict=%v err=%v",
							entry, s1.Syms(), s2.Syms(), got, gotErr, want, wantErr)
					}
					switch {
					case wantErr != nil:
						errs++
					case want:
						conflicts++
					default:
						clean++
					}
				}
			}
			t.Logf("%d conflicts, %d commuting, %d errors", conflicts, clean, errs)
			if conflicts < 100 || clean < 100 || errs < 100 {
				t.Fatalf("generator too narrow: %d conflicts, %d commuting, %d errors", conflicts, clean, errs)
			}
		})
	}
}

// boundedKind is a map that holds at most two bindings, and counts its
// applications when applies is set: with Val "" an op reads Key's value,
// otherwise it binds Key to Val, and binding a third key fails. Its
// failing write is what the built-in kinds lack (there the only op that
// fails on a bound location is a pop, a read): an op past a sequence's
// last read that fails only after the other sequence ran, while every
// read of the sequence agrees.
type boundedKind struct{ applies *int }

func (k boundedKind) Apply(o oplog.Op, st *state.State) (state.Value, error) {
	if k.applies != nil {
		*k.applies++
	}
	v, _ := st.Get(o.L)
	rel, ok := v.(state.Rel)
	if !ok {
		return nil, fmt.Errorf("%s holds no map", o.L)
	}
	if o.Val == "" {
		val, bound := rel.R.Get(o.Key)
		if !bound {
			val = adt.AbsentVal
		}
		return state.Str(val), nil
	}
	if _, bound := rel.R.Get(o.Key); !bound && rel.R.Len() >= 2 {
		return nil, fmt.Errorf("%s is full", o.L)
	}
	rel.R.Put(o.Key, o.Val)
	return nil, nil
}

func (boundedKind) AppendAccesses(o oplog.Op, dst []oplog.Access, _ *state.State) []oplog.Access {
	return append(dst, oplog.Access{P: oplog.PLoc{Loc: o.L, Key: o.Key}, Read: o.Val == "", Write: o.Val != ""})
}

func (boundedKind) Sym(o oplog.Op) oplog.Sym { return oplog.Sym{Kind: "test.bounded", Arg: o.Val} }
func (boundedKind) IsRead(o oplog.Op) bool   { return o.Val == "" }
func (boundedKind) String(o oplog.Op) string { return fmt.Sprintf("%s[%s]=%q", o.L, o.Key, o.Val) }

// TestConflictConcreteWorkIsLinear pins the oracle's cost: a commuting
// pair of 64-op sequences with 32 reads each, the last op a read, runs in
// a number of op applications linear in the sequences' lengths. The
// lockstep passes and COMMUTE make 640; replaying every read prefix from
// scratch makes about 8 600.
func TestConflictConcreteWorkIsLinear(t *testing.T) {
	applies := 0
	k := boundedKind{applies: &applies}
	seq := func(task int) oplog.Log {
		ops := make([]oplog.Op, 64)
		for i := range ops {
			ops[i] = oplog.Op{K: k, L: "b", Key: "k", Val: "x"} // the value k holds: every read agrees
			if i%2 == 1 {
				ops[i].Val = ""
			}
		}
		return eventsOf(task, ops)
	}
	s1, s2 := seq(1), seq(2)
	entry := adt.NewRelValue()
	entry.R.Put("k", "x")
	st := state.New()
	st.Set("b", entry)
	conflict, err := conflictConcrete(st, oplog.PLoc{Loc: "b", Key: "k"}, s1, s2)
	if err != nil || conflict {
		t.Fatalf("conflict=%v err=%v, want a commuting pair", conflict, err)
	}
	if bound := 6 * (len(s1) + len(s2)); applies > bound {
		t.Fatalf("%d op applications for |seq1|+|seq2| = %d, want at most %d", applies, len(s1)+len(s2), bound)
	}
}
