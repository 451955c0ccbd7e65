package conflict

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/seqabs"
	"repro/internal/state"
)

// accOp is a test op with explicit accesses, for shapes the ADT ops do
// not produce (whole-relation wildcard extents).
type accOp struct {
	kind string
	acc  []oplog.Access
}

func (o accOp) Apply(*state.State) (state.Value, error) { return nil, nil }
func (o accOp) Accesses(*state.State) []oplog.Access    { return o.acc }
func (o accOp) Sym() oplog.Sym                          { return oplog.Sym{Kind: o.kind} }
func (o accOp) IsRead() bool                            { return false }
func (o accOp) String() string                          { return o.kind }

// richRandLog is randLog extended with relational per-key ops, occasional
// wildcard extents, and an optional size multiplier — covering every
// pairVerdict path (trained hit, fallback, wildcard, relaxation residual).
func richRandLog(t *testing.T, rng *rand.Rand, st *state.State, task, scale int) oplog.Log {
	t.Helper()
	locs := []state.Loc{"work", "max"}
	var ops []oplog.Op
	for n := (1 + rng.Intn(4)) * scale; n > 0; n-- {
		switch rng.Intn(6) {
		case 0:
			ops = append(ops, adt.NumLoadOp{L: locs[rng.Intn(2)]})
		case 1:
			ops = append(ops, adt.NumAddOp{L: locs[rng.Intn(2)], Delta: int64(rng.Intn(5))})
		case 2:
			d := int64(1 + rng.Intn(5))
			l := locs[rng.Intn(2)]
			ops = append(ops, adt.NumAddOp{L: l, Delta: d}, adt.NumAddOp{L: l, Delta: -d})
		case 3:
			ops = append(ops, adt.RelPutOp{L: "bits", Key: fmt.Sprintf("k%d", rng.Intn(3)), Val: "v"})
		case 4:
			ops = append(ops, adt.RelGetOp{L: "bits", Key: fmt.Sprintf("k%d", rng.Intn(3))})
		default:
			ops = append(ops, accOp{kind: "test.scan", acc: []oplog.Access{{P: "bits#*", Read: true}}})
		}
	}
	return record(t, st, task, ops...)
}

// trialScale is the richRandLog multiplier the compression properties
// use: every fifth trial draws 65 to 260 times, so the decomposition runs
// on its index map (past oplog's linearScanAccesses) and the record holds
// a large entry.
func trialScale(trial int) int {
	if trial%5 == 0 {
		return 65
	}
	return 1
}

// equivDetectors is the detector matrix for representation-equivalence
// properties: every configuration whose verdict depends only on shapes,
// modes, and signatures (the Online concrete check needs events and is
// covered by its own soundness test below).
func equivDetectors() []Detector {
	return []Detector{
		NewWriteSet(),
		NewSequence(trainedIdentityCache(), nil),
		NewSequence(nil, nil),
		NewSequence(trainedIdentityCache(), NewRelaxations([]state.Loc{"work"}, []state.Loc{"work"})),
		func() Detector {
			d := NewSequence(cache.New(seqabs.Abstract), nil)
			d.LearnOnline = true
			return d
		}(),
		&Sequence{InferWAW: true},
	}
}

// TestCompressedDetectionMatchesUncompressed: demoting committed entries
// to compressed records must not change any verdict or reason, including
// in mixed windows (some entries demoted, some full) — the no-false-
// negative screen plus decode-and-detect equivalence the history
// demotion relies on.
func TestCompressedDetectionMatchesUncompressed(t *testing.T) {
	st := baseState()
	dets := equivDetectors()
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 300; trial++ {
		scale := trialScale(trial)
		txn := richRandLog(t, rng, st, 1, scale)
		committed := make([]oplog.Log, rng.Intn(4))
		for i := range committed {
			committed[i] = richRandLog(t, rng, st, 100+i, scale)
		}
		full := prepareAll(committed)
		packed := make([]*Prepared, len(full))
		mixed := make([]*Prepared, len(full))
		for i := range full {
			packed[i] = full[i].Compress()
			if !packed[i].Compressed() || packed[i].CompressedBytes() == 0 {
				t.Fatalf("trial %d: Compress did not produce a compressed record", trial)
			}
			mixed[i] = full[i]
			if i%2 == 0 {
				mixed[i] = packed[i]
			}
		}
		prep := Prepare(txn)
		for _, det := range dets {
			want := det.DetectPrepared(obs.Ctx{}, st, prep, full)
			for name, window := range map[string][]*Prepared{"packed": packed, "mixed": mixed} {
				got := det.DetectPrepared(obs.Ctx{}, st, prep, window)
				if got.Conflict != want.Conflict || got.Reason != want.Reason {
					t.Fatalf("trial %d, %s, %s window: got %v/%v, want %v/%v",
						trial, det.Name(), name, got.Conflict, got.Reason, want.Conflict, want.Reason)
				}
			}
		}
	}
}

// TestCompressedOnlineSoundness: against compressed entries the Online
// concrete check degrades to the write-set fallback, which may only
// over-reject — a conflict found on full entries must still be found on
// compressed ones (no false negatives), never the other way.
func TestCompressedOnlineSoundness(t *testing.T) {
	st := baseState()
	det := &Sequence{Online: true}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		txn := richRandLog(t, rng, st, 1, 1)
		committed := []oplog.Log{richRandLog(t, rng, st, 100, 1)}
		full := prepareAll(committed)
		packed := []*Prepared{full[0].Compress()}
		prep := Prepare(txn)
		fullV := det.DetectPrepared(obs.Ctx{}, st, prep, full)
		packV := det.DetectPrepared(obs.Ctx{}, st, prep, packed)
		if fullV.Conflict && !packV.Conflict {
			t.Fatalf("trial %d: full window conflicts (%v) but compressed window admits — false negative",
				trial, fullV.Reason)
		}
	}
}

// TestCompressRoundTrip: structural equivalence of a compressed record
// with its source — op count, signatures, footprint, whole-log modes,
// location index, and each decoded subsequence shape.
func TestCompressRoundTrip(t *testing.T) {
	st := baseState()
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 100; trial++ {
		l := richRandLog(t, rng, st, 1, trialScale(trial)*(1+rng.Intn(3)))
		src := Prepare(l)
		cp := src.Compress()
		if cp == src || !cp.Compressed() {
			t.Fatal("Compress must produce a distinct compressed artifact")
		}
		if cp.Compress() != cp {
			t.Fatal("re-compressing must be the identity")
		}
		if cp.Ops() != len(l) {
			t.Fatalf("Ops = %d, want %d", cp.Ops(), len(l))
		}
		if cp.Log() != nil {
			t.Fatal("compressed artifact must retain no events")
		}
		sa, sw := src.Signatures()
		ca, cw := cp.Signatures()
		if sa != ca || sw != cw {
			t.Fatal("signatures differ after compression")
		}
		wantFoot := src.Footprint()
		gotFoot := cp.Footprint()
		if len(wantFoot) != len(gotFoot) {
			t.Fatalf("footprint size %d, want %d", len(gotFoot), len(wantFoot))
		}
		footIdx := make(map[state.Loc]FootprintLoc)
		for _, f := range wantFoot {
			footIdx[f.Loc] = f
		}
		for _, f := range gotFoot {
			if w, ok := footIdx[f.Loc]; !ok || w.Write != f.Write || w.Hash != f.Hash {
				t.Fatalf("footprint entry %v not in source footprint", f)
			}
		}
		wantModes := src.accessModes()
		gotModes := cp.accessModes()
		if len(wantModes) != len(gotModes) {
			t.Fatalf("whole-log modes size %d, want %d", len(gotModes), len(wantModes))
		}
		for p, m := range wantModes {
			if gotModes[p] != m {
				t.Fatalf("mode for %q = %v, want %v", p, gotModes[p], m)
			}
		}
		slocs, clocs := src.locations(), cp.locations()
		if len(slocs) != len(clocs) {
			t.Fatalf("location index size %d, want %d", len(clocs), len(slocs))
		}
		var sl renderSlot
		for i := range slocs {
			if clocs[i].p != slocs[i].p || clocs[i].wildcard != slocs[i].wildcard {
				t.Fatalf("location %d index mismatch", i)
			}
			r := renderLoc(&clocs[i], &sl)
			if len(r.syms) != len(slocs[i].syms) {
				t.Fatalf("location %q decoded %d syms, want %d", slocs[i].p, len(r.syms), len(slocs[i].syms))
			}
			for j := range r.syms {
				if r.syms[j] != slocs[i].syms[j] {
					t.Fatalf("location %q sym %d = %v, want %v", slocs[i].p, j, r.syms[j], slocs[i].syms[j])
				}
			}
			wantLM := slocs[i].accessModes()
			gotLM := r.accessModes()
			if len(wantLM) != len(gotLM) {
				t.Fatalf("location %q mode map size %d, want %d", slocs[i].p, len(gotLM), len(wantLM))
			}
			for p, m := range wantLM {
				if gotLM[p] != m {
					t.Fatalf("location %q mode for %q = %v, want %v", slocs[i].p, p, gotLM[p], m)
				}
			}
		}
	}
}
