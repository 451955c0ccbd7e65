// Prepared projections: the commit-time detection artifact.
//
// Committed logs are immutable, but the sequence detector used to
// re-derive everything it needs from them — the per-location
// decomposition (Figure 8's DECOMPOSE), the symbolic shapes fed to the
// commutativity cache, and the access modes behind the write-set
// fallback — on every detection, for every detecting transaction, on
// every retry. Prepared hoists that work to a single computation per log
// (at commit time for history entries, once per attempt for the running
// transaction) and shares the result read-only among all concurrent
// detectors — the same "compute once in hindsight, reuse at speed"
// economics the paper applies to commutativity conditions, applied to the
// validation path itself.
package conflict

import (
	"sync"
	"sync/atomic"

	"repro/internal/oplog"
	"repro/internal/spec"
	"repro/internal/state"
)

// Prepared is one transaction log with its detection-side projections
// computed once: the log's location index, whose per-location read and
// write flags are the write-set rule's access modes; the footprint and
// its overlap signatures, folded from the index; and the per-location
// subsequences in first-access order, each with its memoized symbolic
// shape. It is also the log's storage: a transaction takes an artifact at
// begin (Begin) and logs into it (Append). Once the last Append has
// returned a Prepared is immutable (the lazy projections are guarded by
// sync.Once), so a single value is safely shared by any number of
// concurrent DetectPrepared calls, until its owner recycles it.
type Prepared struct {
	log oplog.Log
	// slab backs the log's events in batches: Append writes the event into
	// the current slab and logs a pointer to the element, one allocation
	// per batch instead of one per operation. A full slab is abandoned in
	// place (logged pointers keep it alive until Recycle clears them) and a
	// doubled one starts; the artifact keeps the last, largest one, so the
	// transactions that reuse it soon log without allocating.
	slab []oplog.Event

	// index memoizes the log's location index, the decomposition's first
	// pass (oplog.Decomposer.Index): its distinct projection locations in
	// first-access order with their access counts, read and write flags
	// and shared-location ordinals. The footprint folds it, the write-set
	// rule reads its flags and the decomposition's second pass reads its
	// slots, so however many projections a run consumes, the log is
	// searched once.
	indexOnce sync.Once
	index     []oplog.LocInfo

	// locs memoizes the per-location decomposition with its symbolic
	// shapes. Only the sequence detector consumes it — the write-set
	// detector joins the two indexes — so it is computed on first use
	// (locations), not at Prepare: a run under write-set detection never
	// pays for the second pass at all.
	locsOnce sync.Once
	locs     []preparedLoc

	// dec and symArena are the decomposition's backing buffers. They are
	// owned exclusively while indexing and materializing and return to
	// preparedPool with the artifact (Recycle), whether its attempt
	// aborted or its history entry was reclaimed.
	dec      oplog.Decomposer
	symArena []oplog.Sym

	// foot memoizes the log's location footprint (Footprint); the stm's
	// striped commit path reads it on every commit attempt. sigAll and
	// sigWrite are the footprint folded into 64-bit overlap signatures
	// (Signatures), computed alongside it: the one place they are folded,
	// for the detectors' screens and the commit path's alike.
	footOnce sync.Once
	foot     []FootprintLoc
	sigAll   uint64
	sigWrite uint64

	poisoned bool // recycled under PoisonRecycled: any further use is a bug
}

// FootprintLoc is one distinct shared location a prepared log accesses,
// with the log's aggregate access mode for it and a precomputed FNV-1a
// hash. The footprint is the commit-concurrency interface: two logs whose
// footprints are disjoint commute trivially (no operation of one can
// observe or disturb the other), which is what lets the stm replay their
// commits concurrently under per-location stripe locks. Hashes are
// precomputed so stripe mapping and overlap signatures never re-hash
// location strings on the commit path.
type FootprintLoc struct {
	Loc   state.Loc
	Hash  uint64
	Write bool
}

// Footprint returns the log's distinct accessed locations in first-access
// order, each with its aggregate write flag and location hash, computed
// on first use and shared read-only thereafter. Projection locations
// collapse to their underlying state location: accesses to different keys
// of one relation land on the same footprint entry. It is a fold of the
// log's index, one step per distinct projection location, with no search:
// the index already numbers each one's shared location.
func (p *Prepared) Footprint() []FootprintLoc {
	p.footOnce.Do(func() {
		for _, in := range p.indexed() {
			if in.LocIdx < len(p.foot) {
				f := &p.foot[in.LocIdx]
				f.Write = f.Write || in.Write
				continue
			}
			p.foot = append(p.foot, FootprintLoc{Loc: in.P.Loc, Hash: fnv64a(string(in.P.Loc)), Write: in.Write})
		}
		for i := range p.foot {
			bit := uint64(1) << (p.foot[i].Hash % 64)
			p.sigAll |= bit
			if p.foot[i].Write {
				p.sigWrite |= bit
			}
		}
	})
	return p.foot
}

// indexed returns the log's location index, computing it on first use.
func (p *Prepared) indexed() []oplog.LocInfo {
	p.indexOnce.Do(func() {
		p.checkLive()
		p.index = p.dec.Index(p.log)
	})
	return p.index
}

// Signatures returns the footprint folded into 64-bit overlap
// signatures: one bit per location hash, over all accessed locations and
// over written locations. Two logs can only share a location — and
// therefore can only conflict under any sound detector — if
// (A.sigWrite & B.sigAll) | (A.sigAll & B.sigWrite) is non-zero: equal
// locations set equal bits, so the test has no false negatives, and a
// collision merely costs a precise check.
func (p *Prepared) Signatures() (sigAll, sigWrite uint64) {
	p.Footprint()
	return p.sigAll, p.sigWrite
}

// DirtyWrites joins p's footprint exactly against the write footprints of
// window: dirty[i] is set iff p writes Footprint()[i] and some entry of
// window writes the same location; n counts the set entries. It is the
// per-location refinement of the signature screen — signatures first
// (entry, then location bit), then the precomputed hash, then the
// location string, so the common disjoint window costs one AND per entry.
// The stm's install commit replays only the dirty locations: a written
// location no window entry wrote still holds, in the transaction's
// private state, the value a replay would compute. dirty reuses buf's
// capacity.
func (p *Prepared) DirtyWrites(window []*Prepared, buf []bool) (dirty []bool, n int) {
	foot := p.Footprint()
	if cap(buf) < len(foot) {
		buf = make([]bool, len(foot))
	}
	dirty = buf[:len(foot)]
	clear(dirty)
	if p.sigWrite == 0 {
		return dirty, 0
	}
	for _, c := range window {
		if _, cw := c.Signatures(); cw&p.sigWrite == 0 {
			continue
		}
		for _, fc := range c.Footprint() {
			if !fc.Write || p.sigWrite&(1<<(fc.Hash%64)) == 0 {
				continue
			}
			for i := range foot {
				if foot[i].Hash != fc.Hash || foot[i].Loc != fc.Loc {
					continue
				}
				if foot[i].Write && !dirty[i] {
					dirty[i] = true
					n++
				}
				break
			}
		}
	}
	return dirty, n
}

// fnv64a is the 64-bit FNV-1a string hash.
func fnv64a(s string) uint64 { return fnvFold(14695981039346656037, s) }

// fnvFold continues an FNV-1a hash h over s.
func fnvFold(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// plocHash is a projection location's join hash: FNV-1a over the location
// and then the key. Equal projection locations hash equal, so the
// detector's join compares hashes before strings.
func plocHash(p oplog.PLoc) uint64 { return fnvFold(fnv64a(string(p.Loc)), p.Key) }

// preparedLoc is one per-projection-location subsequence with its
// memoized projections. Accessed by pointer only (it embeds a sync.Once).
type preparedLoc struct {
	p    oplog.PLoc
	h    uint64 // plocHash(p)
	seq  oplog.Log
	syms []oplog.Sym
	// in is the log's index entry at p, whose access mode the write-set
	// fallback paths (cache misses, relaxed residuals) compare.
	in *oplog.LocInfo

	// key memoizes the subsequence's rendered specification key, so pair
	// lookups join two prepared keys instead of re-running the
	// idempotent-block abstraction per query. Keys depend only on the
	// cache's abstraction mode, so the memo is tagged with the mode it was
	// rendered under.
	keyOnce sync.Once
	keyMode spec.Mode
	key     []byte
}

// seqKey returns the projection's key under mode m, rendering it on first
// use. A memo rendered under the other mode is rendered again into a new
// buffer: never the case in production, where one detector owns one cache
// for the life of the run.
func (pl *preparedLoc) seqKey(m spec.Mode) []byte {
	pl.keyOnce.Do(func() {
		pl.keyMode = m
		pl.key = m.AppendKey(pl.key[:0], pl.syms)
	})
	if pl.keyMode != m {
		return m.AppendKey(nil, pl.syms)
	}
	return pl.key
}

// preparedPool recycles artifacts (Begin / Recycle) with everything they
// grew — log and event slab, decomposer buffers, descriptor arena,
// per-location entries and their key buffers, footprint — so a
// transaction runs in what an earlier one left behind. The pool is
// package-wide because the storage must outlive a runtime: a server
// builds one per batch, shorter than any reclamation window.
var preparedPool = sync.Pool{New: func() any { return new(Prepared) }}

// maxPooledOps bounds the log a pooled artifact may have room for: one
// outlier transaction's storage is left to the collector instead of
// parking megabytes in the pool.
const maxPooledOps = 1 << 14

// Begin returns an empty artifact for a transaction about to run, drawn
// with its backing buffers from the pool. The transaction logs into it
// with Append; all projections are deferred to first use behind sync.Once
// memos: the location index when a detector or the commit path first
// needs any of them, the footprint and its signatures when a detector
// screens or the commit path plans its stripes, the decomposition and
// symbolic shapes when a sequence detector first asks for them
// (locations) — so each run pays only for the projections its
// configuration consumes.
//
// Ownership: the caller owns the artifact, log included, exclusively. An
// attempt that aborts calls Recycle. One that commits publishes the
// artifact to the committed history, where it is shared read-only with
// every transaction whose window reaches it; the history calls Recycle
// once no such transaction is left (stm's reclamation floor). Either way
// nothing the artifact handed out — the Log slice, the *oplog.Event
// pointers in it, the footprint an event's Accesses returns, Footprint's
// slice — may be used after Recycle: the next transaction overwrites them.
// A copy of an event is whole (its operation and one-location footprint
// are stored in the struct), and what an event refers to (the operation's
// strings, Observed, a multi-location footprint's slice) is allocated per
// operation, never reused, and may be kept.
func Begin() *Prepared {
	return preparedPool.Get().(*Prepared)
}

// Append logs one executed operation.
func (p *Prepared) Append(ev oplog.Event) {
	if len(p.slab) == cap(p.slab) {
		n := 2 * cap(p.slab)
		if n == 0 {
			n = 8
		}
		p.slab = make([]oplog.Event, 0, n)
	}
	p.slab = append(p.slab, ev)
	p.log = append(p.log, &p.slab[len(p.slab)-1])
}

// Prepare returns the artifact of a log recorded elsewhere, copying its
// events (not what they refer to) into the artifact's own storage. The
// runtime never needs it — transactions log into their artifact from the
// first operation — but detector tests build logs by hand.
func Prepare(l oplog.Log) *Prepared {
	p := Begin()
	for _, e := range l {
		p.Append(*e)
	}
	return p
}

// poisonRecycled makes Recycle poison what it takes back instead of
// pooling it (see PoisonRecycled).
var poisonRecycled atomic.Bool

// PoisonRecycled is a fault-detection switch for tests: while on, Recycle
// overwrites every event of the recycled log with a tombstone whose
// operation and footprint panic (oplog.Event.Poison) and the descriptor
// arena with a sentinel, marks the artifact so that its projections panic
// too, and leaves it out of the pool — so whoever still holds a recycled
// artifact, its log or one of its events fails with a stack at the next
// use, every time, instead of reading zeroed storage or another
// transaction's log. (Reuse itself is
// what every other test runs on, and where -race reports a reader that
// overlaps the next writer.) It returns the function that restores the
// previous setting.
func PoisonRecycled(on bool) (restore func()) {
	was := poisonRecycled.Swap(on)
	return func() { poisonRecycled.Store(was) }
}

// recycledKind is the kind of a poisoned event's operation.
type recycledKind struct{}

const recycledMsg = "conflict: use of a transaction log after its artifact was recycled"

func (recycledKind) Apply(oplog.Op, *state.State) (state.Value, error) { panic(recycledMsg) }
func (recycledKind) AppendAccesses(oplog.Op, []oplog.Access, *state.State) []oplog.Access {
	panic(recycledMsg)
}
func (recycledKind) Sym(oplog.Op) oplog.Sym { panic(recycledMsg) }
func (recycledKind) IsRead(oplog.Op) bool   { panic(recycledMsg) }
func (recycledKind) String(oplog.Op) string { return "recycled" }

// checkLive guards the lazily computed projections: they are recomputed
// after Recycle reset their memos, which is where a stale holder of a
// poisoned artifact arrives first.
func (p *Prepared) checkLive() {
	if p.poisoned {
		panic(recycledMsg)
	}
}

// Recycle returns the artifact and all its storage to the pool. The
// caller must guarantee no other goroutine can still reach p: the artifact
// of an attempt that aborted without publishing, or a history entry at or
// below every active transaction's begin. Everything is cleared first — a
// pooled artifact pins no event, operation or value of its old log.
func (p *Prepared) Recycle() {
	if p == nil {
		return
	}
	p.indexOnce = sync.Once{}
	p.locsOnce = sync.Once{}
	p.footOnce = sync.Once{}
	if poisonRecycled.Load() {
		// Through the logged pointers, so abandoned slabs are reached too.
		for _, e := range p.log {
			e.Poison(recycledKind{})
		}
		for i := range p.symArena {
			p.symArena[i] = oplog.Sym{Kind: "conflict.recycled"}
		}
		p.poisoned = true
		return
	}
	clear(p.slab)
	p.slab = p.slab[:0]
	clear(p.log)
	p.log = p.log[:0]
	p.dec.Release()
	p.index = nil
	clear(p.symArena)
	p.symArena = p.symArena[:0]
	for i := range p.locs {
		p.locs[i] = preparedLoc{key: p.locs[i].key[:0]}
	}
	p.locs = p.locs[:0]
	clear(p.foot)
	p.foot = p.foot[:0]
	p.sigAll, p.sigWrite = 0, 0
	if cap(p.log) <= maxPooledOps {
		preparedPool.Put(p)
	}
}

// locations returns the per-location decomposition, materializing it on
// first use from the log's index and sharing it read-only thereafter
// (safe for concurrent detectors via the sync.Once). The buffers behind
// it (dec, symArena) belong to the artifact and recycle with it.
func (p *Prepared) locations() []preparedLoc {
	p.locsOnce.Do(p.materializeLocs)
	return p.locs
}

func (p *Prepared) materializeLocs() {
	index := p.indexed()
	decomp := p.dec.Fill(p.log)
	if len(decomp) == 0 {
		p.locs = p.locs[:0]
		return
	}
	total := 0
	for i := range decomp {
		total += len(decomp[i].Seq)
	}
	if cap(p.symArena) < total {
		p.symArena = make([]oplog.Sym, total)
	} else {
		p.symArena = p.symArena[:total]
	}
	if cap(p.locs) < len(decomp) {
		p.locs = make([]preparedLoc, len(decomp))
	} else {
		p.locs = p.locs[:len(decomp)]
	}
	off := 0
	for i := range decomp {
		d := &decomp[i]
		syms := p.symArena[off : off+len(d.Seq) : off+len(d.Seq)]
		off += len(d.Seq)
		for j, e := range d.Seq {
			syms[j] = e.Op.Sym()
		}
		p.locs[i] = preparedLoc{p: d.P, h: plocHash(d.P), seq: d.Seq, syms: syms, in: &index[i], key: p.locs[i].key[:0]}
	}
}

// Log returns the underlying transaction log.
func (p *Prepared) Log() oplog.Log { return p.log }

// Ops returns the number of logged operations.
func (p *Prepared) Ops() int { return len(p.log) }
