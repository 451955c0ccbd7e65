// Package conflict implements the conflict-detection algorithms the JANUS
// protocol (Figure 7) is parameterized by: the standard write-set detector
// used as the baseline throughout the paper's evaluation, and the
// sequence-based detector of §5 — projection decomposition (Figure 8),
// cached commutativity conditions, consistency relaxations (§5.3), and the
// write-set fallback on cache misses.
//
// A detector must be sound (never admit a transaction that does not
// commute with its conflict history) and valid (never reject a transaction
// with an empty conflict history) for Theorem 4.1 to apply. The write-set
// detector is trivially sound. The sequence detector judges against the
// order the run fixed: a committed transaction serializes first, so it
// admits a transaction whose reads that commit leaves unchanged.
package conflict

import (
	"strings"
	"sync/atomic"

	"repro/internal/adt"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/seqeff"
	"repro/internal/spec"
	"repro/internal/state"
)

// Reason classifies why a detector rejected a transaction — which check
// of the detection pipeline failed. It drives the abort-reason breakdown
// of Stats and the EvTxAbort attribution in traces, so Figure 10-style
// tables can distinguish sequence-check failures from write-set
// fallbacks.
type Reason uint8

// Abort reasons.
const (
	// ReasonNone: no conflict.
	ReasonNone Reason = iota
	// ReasonWriteSet: the plain write-set rule fired — the baseline
	// detector, or the sequence detector's cache-miss fallback.
	ReasonWriteSet
	// ReasonSameRead: a SAMEREAD precondition of the Figure 8 judgment
	// failed.
	ReasonSameRead
	// ReasonCommute: the final COMMUTE test failed.
	ReasonCommute
	// ReasonRelaxation: the residual check of a relaxation-aware query
	// (§5.3) failed.
	ReasonRelaxation
	// ReasonTheory: a cached condition's theory did not cover the
	// concrete pair (answered conservatively).
	ReasonTheory
	// ReasonInjected: a fault injector (internal/chaos) forced the abort;
	// no detector check actually failed.
	ReasonInjected

	// NumReasons bounds per-reason counter arrays.
	NumReasons
)

// String renders the reason as it appears in stats maps and traces.
func (r Reason) String() string {
	switch r {
	case ReasonWriteSet:
		return "write-set"
	case ReasonSameRead:
		return "same-read"
	case ReasonCommute:
		return "commute"
	case ReasonRelaxation:
		return "relaxation"
	case ReasonTheory:
		return "theory"
	case ReasonInjected:
		return "injected"
	default:
		return "none"
	}
}

// Verdict is one detection outcome with attribution: on a conflict, the
// failed check, the projection location both transactions accessed, and
// — when tracing is enabled — the symbolic shapes of the two
// per-location sequences (ShapeT the running transaction's, ShapeC the
// committed one's).
type Verdict struct {
	Conflict       bool
	Reason         Reason
	P              oplog.PLoc
	ShapeT, ShapeC string
}

// Detector decides whether a transaction conflicts with its conflict
// history — the logs of the transactions that committed while it ran, one
// per committed transaction, in commit order (§4.1). snapshot is always
// nil: no detector evaluates sequences concretely at runtime (a cache miss
// falls back to the write-set rule, §5.3), and the runtime keeps no entry
// state to pass. Implementations must be safe for concurrent use.
//
// The history is kept per-transaction because both Lemma 5.2 and the
// training phase reason about pairs of single-transaction sequences; the
// lemma extends to multiple committed transactions compositionally, so a
// transaction that passes the checks against each committed transaction
// individually passes them against their concatenation.
type Detector interface {
	// DetectPrepared reports whether the transaction conflicts: txn is
	// the running transaction's artifact (prepared once per attempt) and
	// committed are the history entries' artifacts (each prepared once,
	// at commit time, and shared read-only by every concurrent
	// detector). The returned Verdict carries abort-reason attribution,
	// and detection-internal events (cache hits, misses, fallbacks) are
	// emitted through ctx; a zero Ctx disables tracing at no cost.
	DetectPrepared(ctx obs.Ctx, snapshot *state.State, txn *Prepared, committed []*Prepared) Verdict
	Name() string
}

// Stats counts detector activity.
type Stats struct {
	Detections    int64 // DetectPrepared calls
	Conflicts     int64 // DetectPrepared calls that reported a conflict
	PairQueries   int64 // per-location sequence queries (sequence detector)
	Fallbacks     int64 // queries answered by the write-set fallback
	RelaxedChecks int64 // queries answered by a relaxation-aware check
	// Reasons is the abort-reason breakdown: for each reason (by its
	// String name), how many DetectPrepared calls failed on that check.
	Reasons map[string]int64
}

// reasonCounts is a fixed atomic counter array indexed by Reason.
type reasonCounts [NumReasons]int64

func (rc *reasonCounts) add(r Reason) {
	atomic.AddInt64(&rc[r], 1)
}

// snapshot renders the non-zero counters as a reason → count map, or nil
// when no conflicts were recorded.
func (rc *reasonCounts) snapshot() map[string]int64 {
	var out map[string]int64
	for r := Reason(1); r < NumReasons; r++ {
		if n := atomic.LoadInt64(&rc[r]); n > 0 {
			if out == nil {
				out = make(map[string]int64)
			}
			out[r.String()] = n
		}
	}
	return out
}

// --- Write-set detection ---

// WriteSet is the traditional detector: two transactions conflict iff they
// mutually access a location and at least one of the accesses is a write.
type WriteSet struct {
	stats   Stats
	reasons reasonCounts
}

// NewWriteSet returns the baseline detector.
func NewWriteSet() *WriteSet { return &WriteSet{} }

// Name implements Detector.
func (w *WriteSet) Name() string { return "write-set" }

// Stats returns a snapshot of the counters.
func (w *WriteSet) Stats() Stats {
	return Stats{
		Detections: atomic.LoadInt64(&w.stats.Detections),
		Conflicts:  atomic.LoadInt64(&w.stats.Conflicts),
		Reasons:    w.reasons.snapshot(),
	}
}

// DetectPrepared implements Detector by joining the two sides' log
// indexes, which carry each location's access mode. Committed entries
// whose footprint signatures are write-disjoint from the transaction's
// are skipped without a join — a write-set conflict needs a shared
// location with a write on one side, which disjoint signatures rule out
// (Prepared.Signatures has no false negatives).
func (w *WriteSet) DetectPrepared(_ obs.Ctx, _ *state.State, txn *Prepared, committed []*Prepared) Verdict {
	atomic.AddInt64(&w.stats.Detections, 1)
	ta, tw := txn.Signatures()
	for _, c := range committed {
		ca, cw := c.Signatures()
		if tw&ca == 0 && ta&cw == 0 {
			continue
		}
		if p, hit := findWriteSetConflict(txn, c); hit {
			atomic.AddInt64(&w.stats.Conflicts, 1)
			w.reasons.add(ReasonWriteSet)
			return Verdict{Conflict: true, Reason: ReasonWriteSet, P: p}
		}
	}
	return Verdict{}
}

// findWriteSetConflict joins the two logs' indexes and returns the first
// of txn's locations, in first-access order, at which the write-set rule
// fires against c. Two accesses overlap iff their projection locations
// are equal; the join compares their shared locations' footprint hashes
// before the locations themselves.
func findWriteSetConflict(txn, c *Prepared) (oplog.PLoc, bool) {
	tfoot, cfoot := txn.Footprint(), c.Footprint()
	tidx, cidx := txn.indexed(), c.indexed()
	for i := range tidx {
		t := &tidx[i]
		h := tfoot[t.LocIdx].Hash
		for j := range cidx {
			u := &cidx[j]
			if cfoot[u.LocIdx].Hash == h && u.P == t.P && writeSetConflict(t, u, nil) {
				return t.P, true
			}
		}
	}
	return oplog.PLoc{}, false
}

// writeSetConflict applies the write-set rule at the projection location
// two logs share, a and b being their index entries there: a write on one
// side against an access on the other, unless relax tolerates it there.
func writeSetConflict(a, b *oplog.LocInfo, relax *Relaxations) bool {
	waw := a.Write && b.Write
	raw := (a.Read && b.Write) || (a.Write && b.Read)
	return waw && !relax.TolerateWAW(a.P.Loc) || raw && !relax.TolerateRAW(a.P.Loc)
}

// --- Relaxation specifications (§5.3) ---

// Relaxations is the user-provided consistency-relaxation specification:
// per shared location (data structure), whether read-after-write and/or
// write-after-write conflicts are tolerable. Tolerating RAW drops the
// SAMEREAD checks for the location (cf. Figure 3's maxColor); tolerating
// WAW drops the final COMMUTE test (cf. Figure 4's shared-as-local
// fields). The zero value tolerates nothing.
type Relaxations struct {
	RAW map[state.Loc]bool
	WAW map[state.Loc]bool
}

// TolerateRAW reports whether RAW conflicts on loc are tolerable.
func (r *Relaxations) TolerateRAW(loc state.Loc) bool {
	return r != nil && r.RAW[loc]
}

// TolerateWAW reports whether WAW conflicts on loc are tolerable.
func (r *Relaxations) TolerateWAW(loc state.Loc) bool {
	return r != nil && r.WAW[loc]
}

// Any reports whether loc has any relaxation.
func (r *Relaxations) Any(loc state.Loc) bool {
	return r.TolerateRAW(loc) || r.TolerateWAW(loc)
}

// NewRelaxations builds a specification from location lists.
func NewRelaxations(raw, waw []state.Loc) *Relaxations {
	rx := &Relaxations{RAW: make(map[state.Loc]bool), WAW: make(map[state.Loc]bool)}
	for _, l := range raw {
		rx.RAW[l] = true
	}
	for _, l := range waw {
		rx.WAW[l] = true
	}
	return rx
}

// --- Sequence-based detection (Figure 8) ---

// Sequence is the hindsight detector. It answers each per-location
// sequence pair with the relaxation-aware theory checks if the location
// is relaxed, else from the trained commutativity cache, or — on a cache
// miss — by the write-set rule on the two sides' access modes there. A
// conflict so found stands only if a read of the running transaction
// observes a value the committed one changed (readsStale): judging in
// commit order is how the detector infers §5.3's write-after-write
// tolerances, and under ordered commits that order is the sequential one.
type Sequence struct {
	// Cache holds the trained commutativity specification, learning on
	// misses when it was built to (spec.New). A nil cache makes every
	// query a miss (pure fallback).
	Cache *spec.Cache
	// Relax is the consistency-relaxation specification; may be nil.
	Relax *Relaxations

	// ForceMiss, when non-nil, is consulted before each commutativity-
	// cache lookup with the querying transaction's (task, attempt); true
	// makes the lookup behave as a miss without touching the cache, so the
	// fallback paths the trained cache normally hides stay exercised. A
	// fault-injection hook (internal/chaos); nil in production.
	ForceMiss func(task, attempt int) bool

	stats   Stats
	reasons reasonCounts
}

// NewSequence returns a sequence detector over the given trained cache.
func NewSequence(c *spec.Cache, relax *Relaxations) *Sequence {
	return &Sequence{Cache: c, Relax: relax}
}

// Name implements Detector.
func (s *Sequence) Name() string { return "sequence" }

// Stats returns a snapshot of the counters.
func (s *Sequence) Stats() Stats {
	return Stats{
		Detections:    atomic.LoadInt64(&s.stats.Detections),
		Conflicts:     atomic.LoadInt64(&s.stats.Conflicts),
		PairQueries:   atomic.LoadInt64(&s.stats.PairQueries),
		Fallbacks:     atomic.LoadInt64(&s.stats.Fallbacks),
		RelaxedChecks: atomic.LoadInt64(&s.stats.RelaxedChecks),
		Reasons:       s.reasons.snapshot(),
	}
}

// DetectPrepared implements Detector, realizing DETECTCONFLICTS of
// Figure 8 over prepared projections: every overlapping per-location
// subsequence pair of the transaction and each committed transaction is
// checked, reading the decomposition and symbolic shapes memoized at
// preparation time instead of recomputing them per call. The join
// compares the locations' memoized hashes before their strings. Cache hits,
// misses, and fallbacks are emitted through ctx; a conflict verdict
// carries the failed check, the location pair, and (when tracing is
// enabled) the symbolic shape pair.
func (s *Sequence) DetectPrepared(ctx obs.Ctx, _ *state.State, txn *Prepared, committed []*Prepared) Verdict {
	atomic.AddInt64(&s.stats.Detections, 1)
	if len(committed) == 0 {
		// Validity: an empty history never conflicts, so a transaction
		// that validates against nothing is not decomposed either.
		return Verdict{}
	}
	tlocs := txn.locations()
	for _, c := range committed {
		clocs := c.locations()
		for i := range tlocs {
			lt := &tlocs[i]
			for j := range clocs {
				lc := &clocs[j]
				if lt.h != lc.h || lt.p != lc.p {
					continue
				}
				atomic.AddInt64(&s.stats.PairQueries, 1)
				if v := s.pairVerdict(ctx, lt, lc); v.Conflict {
					atomic.AddInt64(&s.stats.Conflicts, 1)
					s.reasons.add(v.Reason)
					if ctx.Enabled() {
						v.ShapeT, v.ShapeC = symsString(lt.syms), symsString(lc.syms)
					}
					return v
				}
			}
		}
	}
	return Verdict{}
}

// reasonForCheck maps a failed commutativity check to an abort reason.
func reasonForCheck(c spec.Check) Reason {
	switch c {
	case spec.CheckSameRead:
		return ReasonSameRead
	case spec.CheckCommute:
		return ReasonCommute
	case spec.CheckTheory:
		return ReasonTheory
	default:
		return ReasonWriteSet
	}
}

// pairVerdict answers one per-location query over prepared subsequences:
// the relaxed checks, the cache or its write-set fallback name a conflict,
// and the commit-order judgment overturns it when the running
// transaction's reads are stable under the committed one's effect. The
// judgment runs last, so the query's hits, misses and fallbacks count as
// they would without it.
func (s *Sequence) pairVerdict(ctx obs.Ctx, lt, lc *preparedLoc) Verdict {
	if r := s.pairConflict(ctx, lt, lc); r != ReasonNone && readsStale(lt, lc) {
		return Verdict{Conflict: true, Reason: r, P: lt.p}
	}
	return Verdict{}
}

// pairConflict runs Figure 8's checks on one pair and names the one that
// failed, ReasonNone if none did, reading the artifacts' memoized shapes,
// keys and access modes.
func (s *Sequence) pairConflict(ctx obs.Ctx, lt, lc *preparedLoc) Reason {
	p := lt.p
	if s.Relax.Any(p.Loc) {
		atomic.AddInt64(&s.stats.RelaxedChecks, 1)
		return s.relaxedConflicts(p.Loc, lt, lc)
	}
	if s.Cache != nil && (s.ForceMiss == nil || !s.ForceMiss(int(ctx.Task), int(ctx.Attempt))) {
		m := s.Cache.Mode()
		a := s.Cache.Lookup(lt.seqKey(m), lc.seqKey(m), lt.syms, lc.syms)
		if a.Hit {
			traceCache(ctx, obs.EvCacheHit, p)
		} else {
			traceCache(ctx, obs.EvCacheMiss, p)
		}
		if a.Known {
			if a.Conflict {
				return reasonForCheck(a.Failed)
			}
			return ReasonNone
		}
	}
	// Miss: write-set fallback.
	atomic.AddInt64(&s.stats.Fallbacks, 1)
	traceCache(ctx, obs.EvCacheFallback, p)
	if writeSetConflict(lt.in, lc.in, nil) {
		return ReasonWriteSet
	}
	return ReasonNone
}

// traceCache emits a cache event at p, rendering p only when tracing is
// enabled.
func traceCache(ctx obs.Ctx, t obs.EventType, p oplog.PLoc) {
	if ctx.Enabled() {
		ctx.Cache(t, p.String(), "")
	}
}

// symsString renders a symbolic sequence shape for trace attribution.
func symsString(syms []oplog.Sym) string {
	parts := make([]string, len(syms))
	for i, s := range syms {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// readsStale is the commit-order judgment: the running transaction
// conflicts with a committed one only if some read of the running
// transaction observes a value the committed transaction's composite
// effect changes. The committed transaction serializes first (it already
// did), so its own reads and the pair's final-value disagreement are
// immaterial. Pairs outside the effect theories stay stale.
//
// A remove that found its key absent read it (Table 3), and the commit
// installs it as a read, so it counts as one here, not as the register
// theory's blind store of "absent".
func readsStale(lt, lc *preparedLoc) bool {
	if aT, ok := seqeff.AnalyzeRegister(lt.syms); ok {
		if aC, ok := seqeff.AnalyzeRegister(lc.syms); ok {
			aT.ReadBeforeStore = aT.ReadBeforeStore || lt.removesAbsent()
			return !seqeff.SameRead(aT, aC.Eff)
		}
	}
	if aT, ok := seqeff.AnalyzeStack(lt.syms); ok {
		if aC, ok := seqeff.AnalyzeStack(lc.syms); ok {
			return !seqeff.StackReadsStable(aT, aC)
		}
	}
	return true
}

// removesAbsent reports whether some remove of the subsequence found its
// key absent: its one-access footprint, at pl.p, is then a read.
func (pl *preparedLoc) removesAbsent() bool {
	for _, e := range pl.seq {
		if e.Op.K == adt.RelRemove && !e.Accesses()[0].Write {
			return true
		}
	}
	return false
}

// relaxedConflicts evaluates the Figure 8 checks with the location's
// relaxations applied: tolerated RAW drops SAMEREAD, tolerated WAW drops
// COMMUTE. Sequences outside both theories fall back to the relaxed
// write-set rule. On a conflict the reason names the residual check that
// failed; ReasonNone is no conflict.
func (s *Sequence) relaxedConflicts(loc state.Loc, lt, lc *preparedLoc) Reason {
	dropSame := s.Relax.TolerateRAW(loc)
	dropCommute := s.Relax.TolerateWAW(loc)
	symsT, symsC := lt.syms, lc.syms
	if a1, ok := seqeff.AnalyzeRegister(symsT); ok {
		if a2, ok := seqeff.AnalyzeRegister(symsC); ok {
			if !dropSame && (!seqeff.SameRead(a1, a2.Eff) || !seqeff.SameRead(a2, a1.Eff)) {
				return ReasonSameRead
			}
			if !dropCommute && !seqeff.Commute(a1.Eff, a2.Eff) {
				return ReasonCommute
			}
			return ReasonNone
		}
	}
	if a1, ok := seqeff.AnalyzeStack(symsT); ok {
		if a2, ok := seqeff.AnalyzeStack(symsC); ok {
			if dropSame && dropCommute || !seqeff.StackPairConflicts(a1, a2) {
				return ReasonNone
			}
			return ReasonCommute
		}
	}
	if writeSetConflict(lt.in, lc.in, s.Relax) {
		return ReasonRelaxation
	}
	return ReasonNone
}
