package oplog

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/state"
)

// randIndexLog builds a random log over up to nLocs distinct projection
// locations: scalar accesses, keyed accesses to four relations (the empty
// key among them), and clear-like events that touch every key of one
// relation used so far in a single operation.
func randIndexLog(rng *rand.Rand, nLocs, ops int) Log {
	if nLocs == 0 {
		return nil
	}
	keys := map[state.Loc][]string{}
	pick := func() PLoc {
		u := rng.Intn(nLocs)
		if u%2 == 0 {
			return PLoc{Loc: state.Loc("c" + strconv.Itoa(u))}
		}
		key := "k" + strconv.Itoa(u)
		if u == 1 {
			key = ""
		}
		return PLoc{Loc: state.Loc("m" + strconv.Itoa(u%4)), Key: key}
	}
	var l Log
	for i := 0; i < ops; i++ {
		var acc []Access
		if p := pick(); p.Loc[0] == 'm' {
			if rng.Intn(8) == 0 {
				for _, k := range keys[p.Loc] { // clear: every key bound so far
					acc = append(acc, Access{P: PLoc{Loc: p.Loc, Key: k}, Write: true})
				}
			} else {
				keys[p.Loc] = append(keys[p.Loc], p.Key)
				acc = []Access{{P: p, Read: true, Write: rng.Intn(2) == 0}}
			}
		} else {
			acc = []Access{{P: p, Read: rng.Intn(3) > 0, Write: rng.Intn(3) == 0}}
		}
		l = append(l, mkEvent(1, i, multiOp(acc), nil))
	}
	return l
}

// refIndex is the index's reference model: the distinct projection
// locations in first-access order with their access counts, OR'd write
// flags and the first-access ordinal of their shared location.
func refIndex(l Log) []LocInfo {
	var out []LocInfo
	ord := map[state.Loc]int{}
	at := map[PLoc]int{}
	for _, e := range l {
		for _, a := range e.Accesses() {
			i, ok := at[a.P]
			if !ok {
				if _, seen := ord[a.P.Loc]; !seen {
					ord[a.P.Loc] = len(ord)
				}
				i = len(out)
				at[a.P] = i
				out = append(out, LocInfo{P: a.P, LocIdx: ord[a.P.Loc]})
			}
			out[i].N++
			out[i].Write = out[i].Write || a.Write
		}
	}
	return out
}

// TestIndexAndDecomposeMatchReference checks Decompose, whose second pass
// reads the first pass's slots, against refDecompose, and the first pass
// (Index) against refIndex, over random logs of
// 0 to 200 distinct locations on both sides of linearScanAccesses, with
// one Decomposer reused throughout.
func TestIndexAndDecomposeMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var d Decomposer
	for _, nLocs := range []int{0, 1, 2, 5, 16, 31, 33, 64, 65, 100, 200} {
		for _, ops := range []int{0, 1, linearScanAccesses - 1, linearScanAccesses, 3 * nLocs, 600} {
			l := randIndexLog(rng, nLocs, ops)
			ref := refDecompose(l)
			want := refIndex(l)
			seqs := d.Decompose(l)
			if len(seqs) != len(want) {
				t.Fatalf("nLocs=%d ops=%d: Decompose found %d locations, want %d", nLocs, ops, len(seqs), len(want))
			}
			for i, ps := range seqs {
				if ps.P != want[i].P || !reflect.DeepEqual(ps.Seq, ref[ps.P]) {
					t.Fatalf("nLocs=%d ops=%d: subsequence %d at %q differs from the reference", nLocs, ops, i, ps.P)
				}
			}
			if got := d.Index(l); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("nLocs=%d ops=%d: Index = %v, want %v", nLocs, ops, got, want)
			}
		}
	}
}
