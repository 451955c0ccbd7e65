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
// detector is trivially sound; the sequence detector's positive answers
// come only from conditions proved during training.
package conflict

import (
	"strings"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/commute"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/seqeff"
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

// DetectPrepared implements Detector: both sides carry memoized access
// modes, so no maps are rebuilt per call. Committed entries whose
// footprint signatures are write-disjoint from the transaction's are
// skipped without touching either mode map — a write-set conflict needs
// a shared location with a write on one side, which disjoint signatures
// rule out (Prepared.Signatures has no false negatives) — so a run of
// footprint-disjoint transactions never materializes the maps at all.
func (w *WriteSet) DetectPrepared(_ obs.Ctx, _ *state.State, txn *Prepared, committed []*Prepared) Verdict {
	atomic.AddInt64(&w.stats.Detections, 1)
	ta, tw := txn.Signatures()
	var mt map[oplog.PLoc]mode
	for _, c := range committed {
		ca, cw := c.Signatures()
		if tw&ca == 0 && ta&cw == 0 {
			continue
		}
		if mt == nil {
			mt = txn.accessModes()
		}
		if p, hit := findWriteSetConflict(mt, c.accessModes(), nil); hit {
			atomic.AddInt64(&w.stats.Conflicts, 1)
			w.reasons.add(ReasonWriteSet)
			return Verdict{Conflict: true, Reason: ReasonWriteSet, P: p}
		}
	}
	return Verdict{}
}

// mode aggregates how a log touches one projection location.
type mode struct {
	read, write bool
}

func accessModes(l oplog.Log) map[oplog.PLoc]mode {
	m := make(map[oplog.PLoc]mode)
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

// pairConflictsWriteSet applies the write-set rule at every projection
// location both sides access, honoring relaxations when non-nil.
func pairConflictsWriteSet(mt, mc map[oplog.PLoc]mode, relax *Relaxations) bool {
	_, hit := findWriteSetConflict(mt, mc, relax)
	return hit
}

// findWriteSetConflict is pairConflictsWriteSet returning the first
// conflicting projection location for abort attribution: two accesses
// overlap iff their projection locations are equal, so each of mt's
// locations is one probe of mc.
func findWriteSetConflict(mt, mc map[oplog.PLoc]mode, relax *Relaxations) (oplog.PLoc, bool) {
	for p, tm := range mt {
		if cm, ok := mc[p]; ok && writeSetConflict(p.Loc, tm, cm, relax) {
			return p, true
		}
	}
	return oplog.PLoc{}, false
}

func writeSetConflict(loc state.Loc, a, b mode, relax *Relaxations) bool {
	waw := a.write && b.write
	rw := (a.read && b.write) || (a.write && b.read)
	if relax != nil {
		if waw && !relax.TolerateWAW(loc) {
			return true
		}
		if rw && !relax.TolerateRAW(loc) {
			return true
		}
		return false
	}
	return waw || rw
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

// Sequence is the hindsight detector: per-location sequence pairs are
// answered from the trained commutativity cache, relaxation-aware theory
// checks, or — on a cache miss — the write-set fallback.
type Sequence struct {
	// Cache holds the trained commutativity specification. A nil cache
	// makes every query a miss (pure fallback).
	Cache *cache.Cache
	// Relax is the consistency-relaxation specification; may be nil.
	Relax *Relaxations
	// LearnOnline implements the §5.3 remark that "memoization can be
	// used to support online training": on a cache miss, the detector
	// attempts to prove a condition for the pair's shape right away and
	// caches it, so an untrained system converges to trained behavior
	// after one miss per shape pair.
	LearnOnline bool
	// InferWAW enables the §5.3 "limited automatic inference": write-
	// after-write dependences between two transactions are ignored — a
	// pair is admitted when the running transaction's reads are stable
	// under the committed one's effect, even when the final values
	// differ. The outcome is the commit-order serialization (the
	// committed transaction first): under unordered commits some legal
	// serial order, under ordered commits the sequential order itself,
	// since the committed transaction precedes the running one.
	InferWAW bool

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
func NewSequence(c *cache.Cache, relax *Relaxations) *Sequence {
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
func reasonForCheck(c commute.Check) Reason {
	switch c {
	case commute.CheckSameRead:
		return ReasonSameRead
	case commute.CheckCommute:
		return ReasonCommute
	case commute.CheckTheory:
		return ReasonTheory
	default:
		return ReasonWriteSet
	}
}

// pairVerdict answers one per-location query over prepared subsequences.
// The symbolic shapes are read from the artifacts' memoized projections;
// the access modes behind the fallback paths are memoized lazily on first
// use.
func (s *Sequence) pairVerdict(ctx obs.Ctx, lt, lc *preparedLoc) Verdict {
	p := lt.p
	conflict := func(r Reason) Verdict { return Verdict{Conflict: true, Reason: r, P: p} }
	loc := p.Loc
	if s.Relax.Any(loc) {
		atomic.AddInt64(&s.stats.RelaxedChecks, 1)
		if hit, reason := s.relaxedConflicts(loc, lt, lc); hit {
			return conflict(reason)
		}
		return Verdict{}
	}
	if s.InferWAW && !readsStale(lt.syms, lc.syms) {
		return Verdict{}
	}
	if s.Cache != nil && (s.ForceMiss == nil || !s.ForceMiss(int(ctx.Task), int(ctx.Attempt))) {
		symsT, symsC := lt.syms, lc.syms
		var hitConflict bool
		var failed commute.Check
		var hit bool
		if kt, okT := lt.seqKey(s.Cache); okT {
			if kc, okC := lc.seqKey(s.Cache); okC {
				hitConflict, failed, hit = s.Cache.LookupDetailKeys(kt, kc, symsT, symsC)
			} else {
				hitConflict, failed, hit = s.Cache.LookupDetail(symsT, symsC)
			}
		} else {
			hitConflict, failed, hit = s.Cache.LookupDetail(symsT, symsC)
		}
		if hit {
			traceCache(ctx, obs.EvCacheHit, p)
			if hitConflict {
				return conflict(reasonForCheck(failed))
			}
			return Verdict{}
		}
		traceCache(ctx, obs.EvCacheMiss, p)
		if s.LearnOnline {
			if kind := commute.Prove(symsT, symsC); kind != commute.CondNone {
				s.Cache.Put(symsT, symsC, kind)
				if learned, failed, ok := commute.EvaluateDetail(kind, symsT, symsC); ok {
					if learned {
						return conflict(reasonForCheck(failed))
					}
					return Verdict{}
				}
			}
		}
	}
	// Miss: write-set fallback.
	atomic.AddInt64(&s.stats.Fallbacks, 1)
	traceCache(ctx, obs.EvCacheFallback, p)
	if s.fallback(lt, lc) {
		return conflict(ReasonWriteSet)
	}
	return Verdict{}
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

// readsStale is the commit-order judgment behind InferWAW: the running
// transaction conflicts with a committed one only if some read of the
// running transaction observes a value the committed transaction's
// composite effect changes. The committed transaction serializes first
// (it already did), so its own reads and the pair's final-value
// disagreement are immaterial. Pairs outside the effect theories report a
// conflict here and flow on to the normal (stricter) pipeline.
func readsStale(symsT, symsC []oplog.Sym) bool {
	if aT, ok := seqeff.AnalyzeRegister(symsT); ok {
		if aC, ok := seqeff.AnalyzeRegister(symsC); ok {
			return !seqeff.SameRead(aT, aC.Eff)
		}
	}
	if aT, ok := seqeff.AnalyzeStack(symsT); ok {
		if aC, ok := seqeff.AnalyzeStack(symsC); ok {
			return !seqeff.StackReadsStable(aT, aC)
		}
	}
	return true
}

// relaxedConflicts evaluates the Figure 8 checks with the location's
// relaxations applied: tolerated RAW drops SAMEREAD, tolerated WAW drops
// COMMUTE. Sequences outside both theories fall back to the relaxed
// write-set rule. On a conflict the reason names the residual check that
// failed.
func (s *Sequence) relaxedConflicts(loc state.Loc, lt, lc *preparedLoc) (bool, Reason) {
	dropSame := s.Relax.TolerateRAW(loc)
	dropCommute := s.Relax.TolerateWAW(loc)
	symsT, symsC := lt.syms, lc.syms
	if a1, ok := seqeff.AnalyzeRegister(symsT); ok {
		if a2, ok := seqeff.AnalyzeRegister(symsC); ok {
			if !dropSame && (!seqeff.SameRead(a1, a2.Eff) || !seqeff.SameRead(a2, a1.Eff)) {
				return true, ReasonSameRead
			}
			if !dropCommute && !seqeff.Commute(a1.Eff, a2.Eff) {
				return true, ReasonCommute
			}
			return false, ReasonNone
		}
	}
	if a1, ok := seqeff.AnalyzeStack(symsT); ok {
		if a2, ok := seqeff.AnalyzeStack(symsC); ok {
			if dropSame && dropCommute {
				return false, ReasonNone
			}
			if seqeff.StackPairConflicts(a1, a2) {
				return true, ReasonCommute
			}
			return false, ReasonNone
		}
	}
	if pairConflictsWriteSet(lt.accessModes(), lc.accessModes(), s.Relax) {
		return true, ReasonRelaxation
	}
	return false, ReasonNone
}

// fallback applies the plain write-set rule to the pair's subsequences,
// reading the access modes memoized in the prepared artifacts.
func (s *Sequence) fallback(lt, lc *preparedLoc) bool {
	return pairConflictsWriteSet(lt.accessModes(), lc.accessModes(), s.Relax)
}
