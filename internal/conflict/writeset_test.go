package conflict

import (
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/seqeff"
	"repro/internal/state"
)

// refMode aggregates how a log touches one projection location.
type refMode struct {
	read, write bool
}

// refModes is the write-set rule's map-based reference: a log's accesses
// folded into one access mode per projection location, the form the rule
// ran over before it read the log index.
func refModes(l oplog.Log) map[oplog.PLoc]refMode {
	m := make(map[oplog.PLoc]refMode)
	for _, e := range l {
		for _, a := range e.Accesses() {
			cur := m[a.P]
			cur.read = cur.read || a.Read
			cur.write = cur.write || a.Write
			m[a.P] = cur
		}
	}
	return m
}

// refConflictAt applies the write-set rule, honoring relax, at p between
// two mode maps: a write-write or read-write overlap the location does
// not tolerate.
func refConflictAt(p oplog.PLoc, mt, mc map[oplog.PLoc]refMode, relax *Relaxations) bool {
	a, okT := mt[p]
	b, okC := mc[p]
	if !okT || !okC {
		return false
	}
	waw := a.write && b.write
	raw := (a.read && b.write) || (a.write && b.read)
	return waw && !relax.TolerateWAW(p.Loc) || raw && !relax.TolerateRAW(p.Loc)
}

// refConflictAnywhere is the map-based check as the sequence detector's
// fallback ran it on a pair of subsequences: the rule at every projection
// location both maps hold, not only at the pair's own.
func refConflictAnywhere(mt, mc map[oplog.PLoc]refMode, relax *Relaxations) bool {
	for p := range mt {
		if refConflictAt(p, mt, mc, relax) {
			return true
		}
	}
	return false
}

// firstAccessOrder lists a log's projection locations in first-access
// order.
func firstAccessOrder(l oplog.Log) []oplog.PLoc {
	var out []oplog.PLoc
	seen := map[oplog.PLoc]bool{}
	for _, e := range l {
		for _, a := range e.Accesses() {
			if !seen[a.P] {
				seen[a.P] = true
				out = append(out, a.P)
			}
		}
	}
	return out
}

// refWriteSet is WriteSet.DetectPrepared over mode maps: against each
// committed log in order, the first of txn's locations in first-access
// order at which the rule fires.
func refWriteSet(txn oplog.Log, committed []*Prepared) Verdict {
	mt := refModes(txn)
	for _, c := range committed {
		mc := refModes(c.Log())
		for _, p := range firstAccessOrder(txn) {
			if refConflictAt(p, mt, mc, nil) {
				return Verdict{Conflict: true, Reason: ReasonWriteSet, P: p}
			}
		}
	}
	return Verdict{}
}

// refFallbackSequence is a cacheless, unrelaxed Sequence.DetectPrepared
// whose fallback is the map-based check over each pair's subsequences;
// the commit-order judgment is the detector's own.
func refFallbackSequence(txn *Prepared, committed []*Prepared) Verdict {
	tlocs := txn.locations()
	for _, c := range committed {
		clocs := c.locations()
		for i := range tlocs {
			for j := range clocs {
				lt, lc := &tlocs[i], &clocs[j]
				if lt.p == lc.p && refConflictAnywhere(refModes(lt.seq), refModes(lc.seq), nil) && readsStale(lt, lc) {
					return Verdict{Conflict: true, Reason: ReasonWriteSet, P: lt.p}
				}
			}
		}
	}
	return Verdict{}
}

// scanM1 reads three keys of indexState's relation m1 in one operation:
// a multi-location read outside the effect theories, so a relaxed pair
// at one of its keys reaches the relaxed residual.
var scanM1 = &accKind{kind: "test.scan", acc: []oplog.Access{
	{P: oplog.PLoc{Loc: "m1"}, Read: true},
	{P: oplog.PLoc{Loc: "m1", Key: "k"}, Read: true},
	{P: oplog.PLoc{Loc: "m1", Key: "k5"}, Read: true},
}}

// inTheory reports whether a pair's sequences are both in one of the
// effect theories, which answer a relaxed query before the residual.
func inTheory(lt, lc *preparedLoc) bool {
	_, regT := seqeff.AnalyzeRegister(lt.syms)
	_, regC := seqeff.AnalyzeRegister(lc.syms)
	_, stackT := seqeff.AnalyzeStack(lt.syms)
	_, stackC := seqeff.AnalyzeStack(lc.syms)
	return regT && regC || stackT && stackC
}

// TestWriteSetRuleMatchesMapReference holds every write-set judgment,
// which reads the access modes of the log index, to the map-based
// reference, over random logs with multi-key relation clears and scans: the
// write-set detector's verdict and its location (the first conflicting
// one in first-access order, against the first conflicting entry), the
// cacheless sequence detector's, the relaxed residual's, and the modes
// the fallback and the residual compare at a pair's location against the
// old check at every location of the pair's subsequences, with and
// without relaxations. A clear writes every key it touches and a scan
// reads every key it touches, so a conflict at another key of the
// subsequences implies one at the pair's own; the fixture must stage
// conflicts at other keys.
func TestWriteSetRuleMatchesMapReference(t *testing.T) {
	st := indexState()
	rng := rand.New(rand.NewSource(11))
	relax := NewRelaxations([]state.Loc{"c0", "m1"}, []state.Loc{"c2", "m1", "m2"})
	relaxed := NewSequence(nil, relax)
	var wsConflicts, seqConflicts, elsewhere, residuals int
	const rounds = 300
	for round := 0; round < rounds; round++ {
		nLocs := []int{4, 16, 65, 200}[round%4]
		randLog := func(task int) *Prepared {
			l := randIndexLog(t, rng, st, task, nLocs, 1+rng.Intn(24))
			if rng.Intn(3) == 0 {
				l = append(l, record(t, st, task, oplog.Op{K: scanM1})...)
			}
			return Prepare(l)
		}
		txn := randLog(0)
		window := make([]*Prepared, 3)
		for i := range window {
			window[i] = randLog(i + 1)
		}
		if got, want := NewWriteSet().DetectPrepared(obs.Ctx{}, nil, txn, window), refWriteSet(txn.Log(), window); got != want {
			t.Fatalf("round %d: write-set verdict %+v, map reference %+v", round, got, want)
		} else if got.Conflict {
			wsConflicts++
		}
		if got, want := NewSequence(nil, nil).DetectPrepared(obs.Ctx{}, nil, txn, window), refFallbackSequence(txn, window); got != want {
			t.Fatalf("round %d: cacheless sequence verdict %+v, map reference %+v", round, got, want)
		} else if got.Conflict {
			seqConflicts++
		}
		tlocs := txn.locations()
		for _, c := range window {
			clocs := c.locations()
			for i := range tlocs {
				for j := range clocs {
					lt, lc := &tlocs[i], &clocs[j]
					if lt.p != lc.p {
						continue
					}
					mt, mc := refModes(lt.seq), refModes(lc.seq)
					if relax.Any(lt.p.Loc) && !inTheory(lt, lc) {
						if got, want := relaxed.relaxedConflicts(lt.p.Loc, lt, lc) == ReasonRelaxation, refConflictAnywhere(mt, mc, relax); got != want {
							t.Fatalf("round %d at %q: relaxed residual conflict %v, map reference %v", round, lt.p, got, want)
						}
						residuals++
					}
					for _, rx := range []*Relaxations{nil, relax} {
						want := refConflictAnywhere(mt, mc, rx)
						if got := writeSetConflict(lt.in, lc.in, rx); got != want {
							t.Fatalf("round %d at %q (relaxed %v): modes %+v/%+v conflict %v, map reference %v",
								round, lt.p, rx != nil, *lt.in, *lc.in, got, want)
						}
						for q := range mt {
							if q != lt.p && refConflictAt(q, mt, mc, rx) {
								elsewhere++
								break
							}
						}
					}
				}
			}
		}
		txn.Recycle()
		for _, c := range window {
			c.Recycle()
		}
	}
	if wsConflicts == 0 || wsConflicts == rounds || seqConflicts == 0 || seqConflicts == rounds {
		t.Fatalf("write-set conflicted in %d and the sequence detector in %d of %d rounds: the fixture exercises one verdict only",
			wsConflicts, seqConflicts, rounds)
	}
	if residuals == 0 {
		t.Fatal("no relaxed pair fell outside the theories: the fixture never reaches the relaxed residual")
	}
	if elsewhere == 0 {
		t.Fatal("no pair's subsequences conflicted at another key: the fixture stages no multi-key op against a pair")
	}
	t.Logf("%d write-set and %d sequence conflicts in %d rounds, %d relaxed residuals, %d pair checks conflicting at another key",
		wsConflicts, seqConflicts, rounds, residuals, elsewhere)
}

// TestFallbackDetectAllocs pins the write-set rule's cost on the paths
// that build nothing else: a cacheless sequence detection, every query a
// fallback, and a write-set detection, each over two artifacts freshly
// drawn from the pool, logged into and recycled. Both read the log
// index's access modes, so neither allocates.
func TestFallbackDetectAllocs(t *testing.T) {
	events := func(task int, ops ...oplog.Op) []oplog.Event {
		out := make([]oplog.Event, len(ops))
		for i, op := range ops {
			out[i] = oplog.NewEvent(op, task, i, op.AppendAccesses(nil, nil), nil)
		}
		return out
	}
	txnEvents := events(1, adt.NumLoadOp{L: "work"}.Op(), adt.NumAddOp{L: "max", Delta: 2}.Op(), adt.NumLoadOp{L: "max"}.Op())
	comEvents := events(2, adt.NumAddOp{L: "work", Delta: 1}.Op(), adt.NumAddOp{L: "max", Delta: 3}.Op())
	prepare := func(evs []oplog.Event) *Prepared {
		p := Begin()
		for _, e := range evs {
			p.Append(e)
		}
		return p
	}
	seq, ws := NewSequence(nil, nil), NewWriteSet()
	window := make([]*Prepared, 1)
	for _, det := range []Detector{seq, ws} {
		detect := func() {
			txn := prepare(txnEvents)
			window[0] = prepare(comEvents)
			if !det.DetectPrepared(obs.Ctx{}, nil, txn, window).Conflict {
				t.Fatalf("%s admits a stale load of a counter the committed entry added to", det.Name())
			}
			txn.Recycle()
			window[0].Recycle()
		}
		detect() // warm the pool
		// sync.Pool may drop an artifact at any time (and does, on
		// purpose, under -race): take the best of several single runs.
		best := 1e9
		for i := 0; i < 100; i++ {
			best = min(best, testing.AllocsPerRun(1, detect))
		}
		if best != 0 {
			t.Errorf("%s detection over fresh pooled artifacts allocates %.0f objects, want 0", det.Name(), best)
		}
	}
	if f := seq.Stats().Fallbacks; f == 0 {
		t.Fatal("the cacheless sequence detector answered no query by the write-set fallback")
	}
}
