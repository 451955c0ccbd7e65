package oplog

import (
	"fmt"
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
// locations in first-access order with their access counts, OR'd read
// and write flags and the first-access ordinal of their shared location.
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
			out[i].Read = out[i].Read || a.Read
			out[i].Write = out[i].Write || a.Write
		}
	}
	return out
}

// modeLog is a fixed log whose index holds a read-only location (r), a
// write-only one (w), one both read and written by separate accesses (rw)
// and a relation key that is only read while another of its keys is
// written by a multi-location access (m#a, m#b): its own index, in the
// reference's terms, is modeIndex.
func modeLog() Log {
	acc := func(loc state.Loc, key string, read, write bool) Access {
		return Access{P: PLoc{Loc: loc, Key: key}, Read: read, Write: write}
	}
	var l Log
	for i, accs := range [][]Access{
		{acc("r", "", true, false)},
		{acc("w", "", false, true)},
		{acc("rw", "", true, false)},
		{acc("m", "a", true, false)},
		{acc("m", "a", true, false), acc("m", "b", false, true)},
		{acc("rw", "", false, true)},
		{acc("r", "", true, false)},
		{acc("w", "", false, true)},
	} {
		l = append(l, mkEvent(1, i, multiOp(accs), nil))
	}
	return l
}

var modeIndex = []LocInfo{
	{P: PLoc{Loc: "r"}, N: 2, Read: true, LocIdx: 0},
	{P: PLoc{Loc: "w"}, N: 2, Write: true, LocIdx: 1},
	{P: PLoc{Loc: "rw"}, N: 2, Read: true, Write: true, LocIdx: 2},
	{P: PLoc{Loc: "m", Key: "a"}, N: 2, Read: true, LocIdx: 3},
	{P: PLoc{Loc: "m", Key: "b"}, N: 1, Write: true, LocIdx: 3},
}

// TestIndexAndDecomposeMatchReference checks Decompose, whose second pass
// reads the first pass's slots, against refDecompose, and the first pass
// (Index) against refIndex, over modeLog (whose index, read and write
// flags included, is spelled out in modeIndex) and random logs of 0 to
// 200 distinct locations on both sides of linearScanAccesses, with one
// Decomposer reused throughout.
func TestIndexAndDecomposeMatchReference(t *testing.T) {
	if got := refIndex(modeLog()); !reflect.DeepEqual(got, modeIndex) {
		t.Fatalf("refIndex(modeLog) = %v, want %v", got, modeIndex)
	}
	var d Decomposer
	check := func(name string, l Log) {
		t.Helper()
		ref := refDecompose(l)
		want := refIndex(l)
		seqs := d.Decompose(l)
		if len(seqs) != len(want) {
			t.Fatalf("%s: Decompose found %d locations, want %d", name, len(seqs), len(want))
		}
		for i, ps := range seqs {
			if ps.P != want[i].P || !reflect.DeepEqual(ps.Seq, ref[ps.P]) {
				t.Fatalf("%s: subsequence %d at %q differs from the reference", name, i, ps.P)
			}
		}
		if got := d.Index(l); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: Index = %v, want %v", name, got, want)
		}
	}
	check("modeLog", modeLog())
	rng := rand.New(rand.NewSource(1))
	for _, nLocs := range []int{0, 1, 2, 5, 16, 31, 33, 64, 65, 100, 200} {
		for _, ops := range []int{0, 1, linearScanAccesses - 1, linearScanAccesses, 3 * nLocs, 600} {
			check(fmt.Sprintf("nLocs=%d ops=%d", nLocs, ops), randIndexLog(rng, nLocs, ops))
		}
	}
}
