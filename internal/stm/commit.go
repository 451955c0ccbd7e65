// Footprint-disjoint parallel commit.
//
// The paper's Figure 7 protocol replays every commit under one global
// write lock, so commit throughput is serial no matter how many cores
// run detection. This file replaces that critical section with a striped
// commit: a committer locks only the stripes covering its footprint
// (read off conflict.Prepared, the PR-5 detection artifact), replays —
// into a private overlay, with no global lock held — only the part of its
// log that touches locations an entry of its validated window wrote,
// takes a commit-time ticket, and then publishes — installs its written
// locations into the committed version, the untouched ones straight from
// its private state, and appends its history entry — in strict ticket
// order through a commit sequencer. Commits whose footprints are
// disjoint never contend past the ticket increment; only
// overlapping-footprint commits serialize, on exactly the stripes they
// share.
//
// Why this preserves Figure 7's serializability invariant (the full
// argument is DESIGN.md §11): a committer with all its stripes held
// knows every concurrently ticketed commit is stripe-disjoint from it —
// an overlapping one would have blocked on a shared stripe before
// ticketing — and stripe-disjoint implies location-disjoint implies
// commuting. History that published after its validation snapshot but
// before its stripes were held is screened by a footprint-signature
// check (no false negatives: equal locations set equal bits); any
// overlap there aborts the commit back to re-detection. So the log
// takes effect against exactly the state its detector validated it
// against, up to commuting reorderings — the same guarantee the global
// lock bought, without the convoy. And where no commit since begin wrote
// a location, "takes effect" needs no second execution: the value the
// transaction computed privately is the value a replay would compute.
package stm

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/conflict"
	"repro/internal/obs"
	"repro/internal/state"
)

// commitStripes is the commit-path location lock table size; a commit
// locks the stripes its footprint hashes into, so only transactions whose
// footprints collide serialize their replays. 64 stripes keep the
// false-sharing rate (distinct locations hashing to one stripe) negligible
// for the footprint sizes the workloads exhibit while the table stays
// small enough to sit in cache.
const commitStripes = 64

// stripeRef is one resolved stripe of a transaction's footprint: the
// table index and the lock mode (write side iff some location on the
// stripe is written).
type stripeRef struct {
	idx   int32
	write bool
}

// planStripes resolves the footprint into the transaction's sorted,
// deduplicated stripe set. Sorting makes multi-stripe acquisition
// deadlock-free (every committer locks in ascending index order);
// deduplication merges two locations on one stripe into a single
// acquisition in the stronger mode.
func (t *Tx) planStripes(foot []conflict.FootprintLoc) {
	t.stripes = t.stripes[:0]
	for _, f := range foot {
		idx := int32(f.Hash % commitStripes)
		pos := len(t.stripes)
		for i := range t.stripes {
			if t.stripes[i].idx >= idx {
				pos = i
				break
			}
		}
		if pos < len(t.stripes) && t.stripes[pos].idx == idx {
			t.stripes[pos].write = t.stripes[pos].write || f.Write
			continue
		}
		t.stripes = append(t.stripes, stripeRef{})
		copy(t.stripes[pos+1:], t.stripes[pos:])
		t.stripes[pos] = stripeRef{idx: idx, write: f.Write}
	}
}

// lockStripes acquires the transaction's planned stripes in ascending
// index order, write side for stripes carrying a written location.
func (r *Runtime) lockStripes(t *Tx) {
	for _, s := range t.stripes {
		if s.write {
			r.stripes[s.idx].Lock()
		} else {
			r.stripes[s.idx].RLock()
		}
	}
}

// unlockStripes releases the planned stripes.
func (r *Runtime) unlockStripes(t *Tx) {
	for i := len(t.stripes) - 1; i >= 0; i-- {
		s := t.stripes[i]
		if s.write {
			r.stripes[s.idx].Unlock()
		} else {
			r.stripes[s.idx].RUnlock()
		}
	}
}

// seqWaiter is one goroutine parked in waitPublished: the watermark it
// waits for and the channel that wakes it.
type seqWaiter struct {
	target int64
	wake   chan struct{}
}

// waitPublished blocks until the sequencer's published watermark reaches
// target or the run fails, reporting whether the watermark got there.
// This is the order-maintenance query behind both the publication turn
// and the ordered-mode commit turn: tickets are dense and publish in
// order, so the watermark passes through every integer and each waiter
// registers under exactly the value it needs — advancePublished wakes
// only the waiters of the value it publishes, not a broadcast over all.
//
// wake is the caller's own channel, with room for one wake-up, reused
// from wait to wait (a transaction shell's): waiting allocates nothing. A
// wait that the run's failure ended leaves its registration behind, so a
// later publication may drop a stale wake-up in the channel; the waiter
// therefore re-checks the watermark and, short of target, waits on —
// still registered, because only the publication of target takes a
// registration for target away.
func (r *Runtime) waitPublished(target int64, wake chan struct{}) bool {
	if r.published.Load() >= target {
		return true
	}
	r.seqMu.Lock()
	if r.published.Load() >= target {
		r.seqMu.Unlock()
		return true
	}
	r.seqWaiters = append(r.seqWaiters, seqWaiter{target: target, wake: wake})
	r.seqMu.Unlock()
	for {
		select {
		case <-wake:
			if r.published.Load() >= target {
				return true
			}
		case <-r.done:
			return r.published.Load() >= target
		}
	}
}

// advancePublished publishes watermark c — always exactly published+1,
// because publication runs in dense ticket order — and wakes the waiters
// registered for c. There are at most as many as there are workers, so
// finding them is a scan of a few entries.
func (r *Runtime) advancePublished(c int64) {
	r.seqMu.Lock()
	r.published.Store(c)
	ws := r.seqWaiters
	for i := 0; i < len(ws); {
		if ws[i].target != c {
			i++
			continue
		}
		select {
		case ws[i].wake <- struct{}{}:
		default: // a stale wake-up is already pending; one is enough
		}
		ws[i] = ws[len(ws)-1]
		ws[len(ws)-1] = seqWaiter{}
		ws = ws[:len(ws)-1]
	}
	r.seqWaiters = ws
	r.seqMu.Unlock()
}

// casMax raises *addr to v if v is greater. Commits publish
// concurrently, so the former load-then-store max (safe only under the
// global write lock) would lose updates.
func casMax(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if v <= cur || atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}

// overlapsPublished reports whether any history entry in commit-time
// window (after, upto] may share a location with prep, by the two
// artifacts' overlap signatures (conflict.Prepared.Signatures, which have
// no false negatives). Entries in that window published after the
// caller's last validated fetch, so an overlap means its verdicts may be
// stale; all signatures disjoint means every such entry is
// location-disjoint from the caller and needs no re-detection. The window
// is fully resident: the caller's begin watermark equals after, which
// pins newer entries against reclamation.
func (r *Runtime) overlapsPublished(after, upto int64, prep *conflict.Prepared) bool {
	sigAll, sigWrite := prep.Signatures()
	r.histMu.Lock()
	defer r.histMu.Unlock()
	lo := searchHist(r.history, after)
	for _, h := range r.history[lo:] {
		if h.commitTime > upto {
			break
		}
		if ha, hw := h.prep.Signatures(); hw&sigAll != 0 || ha&sigWrite != 0 {
			return true
		}
	}
	return false
}

// replayCompute re-applies, onto a private faulting overlay of the
// committed store (tx.overlay), the logged ops whose location tx.dirty
// marks: the locations a window entry wrote, whose committed values have
// moved since the transaction faulted them. Ops on clean locations are
// skipped — their result already sits in tx.priv. No shared state is
// mutated. The caller must hold the footprint stripes, so no concurrent
// publication touches a location the replay reads and the overlay equals
// one computed in the publication turn.
//
// Skipping is per op, and sound because an op reads and writes one
// location: the ops on a dirty location are the whole of the log's
// effect on it. A log that breaks that — an op spanning a dirty and a
// clean location would find the clean one without the skipped ops'
// effects — replays in full, every written location taken from the
// overlay, which is Figure 7's COMMIT.
func (r *Runtime) replayCompute(tx *Tx, foot []conflict.FootprintLoc, nDirty int) error {
	written := 0
	for i := range foot {
		if foot[i].Write {
			written++
		}
	}
	tx.overlay = tx.replay
	tx.overlay.Reset()
	if nDirty < written {
		done, err := tx.replayDirty(foot)
		if done || err != nil {
			return err
		}
		for i := range foot {
			tx.dirty[i] = foot[i].Write
		}
		tx.overlay.Reset()
	}
	return tx.prep.Log().Replay(tx.overlay)
}

// replayDirty applies the logged ops that access a dirty location, or
// that access nothing and name one, to tx.overlay, in log order. It
// reports false, leaving the overlay unfinished, at the first op that
// accesses dirty and clean locations both.
func (t *Tx) replayDirty(foot []conflict.FootprintLoc) (bool, error) {
	locs := t.dirtyLocs(foot)
	for _, e := range t.prep.Log() {
		acc := e.Accesses()
		if len(acc) == 0 {
			// A clear of a relation its private view held empty accesses
			// nothing there, but on the committed value it removes what
			// the window added.
			if slices.Contains(locs, e.Op.L) {
				if _, err := e.Op.Apply(t.overlay); err != nil {
					return false, fmt.Errorf("stm: replaying %s: %w", e, err)
				}
			}
			continue
		}
		n := 0
		for _, a := range acc {
			if slices.Contains(locs, a.P.Loc) {
				n++
			}
		}
		if n == 0 {
			continue
		}
		if n < len(acc) {
			return false, nil
		}
		if _, err := e.Op.Apply(t.overlay); err != nil {
			return false, fmt.Errorf("stm: replaying %s: %w", e, err)
		}
	}
	return true, nil
}

// dirtyLocs lists the footprint locations the install plan marks dirty,
// in the shell's scratch: valid until the next call.
func (t *Tx) dirtyLocs(foot []conflict.FootprintLoc) []state.Loc {
	locs := t.dirtyLocBuf[:0]
	for i := range foot {
		if t.dirty[i] {
			locs = append(locs, foot[i].Loc)
		}
	}
	t.dirtyLocBuf = locs
	return locs
}

// installed returns the value the commit publishes for footprint
// location i: the replayed one if the location is dirty, otherwise the
// one the transaction computed while it ran. A written location no commit
// in (begin, now] wrote holds the same committed value now as when the
// transaction faulted it, and ops are deterministic, so the private value
// is the value a replay would compute (DESIGN.md §11).
func (t *Tx) installed(i int, loc state.Loc) (state.Value, bool) {
	if t.replayed(i) {
		return t.overlay.Get(loc)
	}
	return t.priv.Get(loc)
}

// replayed reports whether footprint location i takes its committed value
// from the replay overlay.
func (t *Tx) replayed(i int) bool { return t.overlay != nil && t.dirty[i] }

// mergeVersion publishes the transaction's written locations into the
// committed store — one atomic box store per location, of a pointer into
// one slab of values allocated for this commit's writes. The value
// published is the one the view (or the replay overlay) computed, not a
// copy: the commit moves it into the store, and the shell's release
// unbinds it from the view before the shell runs another op, so it has
// one owner, the store, which never mutates it (DESIGN.md §19). A
// relation is frozen before it is published, so the faults that clone it
// concurrently only read it. Callers are serialized by the publication
// turn, which is what location creation in the overflow table relies on.
func (r *Runtime) mergeVersion(tx *Tx, foot []conflict.FootprintLoc) {
	n := 0
	for _, f := range foot {
		if f.Write {
			n++
		}
	}
	// The slab is this commit's alone: a run-wide one would let one still
	// published value pin the dead values of every commit that shared it.
	vals := make([]state.Value, 0, n)
	var fromPriv, fromReplay int64
	for i, f := range foot {
		if !f.Write {
			continue
		}
		v, ok := tx.installed(i, f.Loc)
		if !ok {
			continue
		}
		if rv, isRel := v.(state.Rel); isRel {
			rv.R.Freeze()
		}
		vals = append(vals, v)
		r.storeSet(f.Loc, &vals[len(vals)-1])
		if tx.replayed(i) {
			fromReplay++
		} else {
			fromPriv++
		}
	}
	if fromPriv > 0 {
		atomic.AddInt64(&r.stats.LocsInstalled, fromPriv)
	}
	if fromReplay > 0 {
		atomic.AddInt64(&r.stats.LocsReplayed, fromReplay)
	}
}

// publishEntry appends one committed transaction to the history, tracking
// the peak length, and takes back the entries no active transaction can
// need any more: their artifacts are recycled here, after histMu is
// released, for the next transactions to log into. The new entry itself
// always stays (its commit time is above the published watermark until the
// caller advances it). Publication order (the caller's sequencer turn)
// keeps commit times strictly increasing in history order.
//
// The committer's own begin still pins its window through this pass — the
// drivers that call finish directly read the window after it returns — and
// is dropped at the end of it: nothing of the window is read once another
// commit can publish, and a begin left registered until finish unwinds
// would let a worker descheduled in between pin the history for every
// commit the others make meanwhile.
func (r *Runtime) publishEntry(tid int, ctime int64, prep *conflict.Prepared) {
	var buf [4]*conflict.Prepared
	r.histMu.Lock()
	r.history = append(r.history, histEntry{commitTime: ctime, task: tid, prep: prep})
	casMax(&r.stats.MaxHist, int64(len(r.history)))
	recycle := r.reclaimLocked(buf[:0])
	delete(r.begins, tid)
	r.histMu.Unlock()
	for _, p := range recycle {
		p.Recycle()
	}
}

// commit is COMMIT of Figure 7, striped. The committer locks its
// footprint stripes (sorted; deadlock-free), screens the history that
// published since its last validated fetch with the footprint-signature
// test, replays what the validated window (every entry in (begin, tcheck])
// dirtied, takes a dense commit-time ticket, and publishes in ticket
// order through the sequencer. Nothing else is locked: commits with
// disjoint footprints overlap freely. On any outcome but commitOK no
// shared state was mutated.
func (r *Runtime) commit(ctx obs.Ctx, tx *Tx, tcheck int64) commitResult {
	prep := tx.prep
	foot := prep.Footprint()
	tx.planStripes(foot)
	stripeStart := ctx.Now()
	r.lockStripes(tx)
	defer r.unlockStripes(tx)
	ctx.End(obs.EvCommitStripe, stripeStart)
	// With the stripes held, every ticketed-but-unpublished commit is
	// stripe-disjoint from this one (an overlapping one would still be
	// blocked in lockStripes), so only already-published entries can
	// invalidate the detector's verdicts. Screen the window that
	// published after the last validated fetch; a possible overlap sends
	// the attempt back to re-detection, exactly like the old lost clock
	// race — except disjoint committers no longer pay it.
	if p := r.published.Load(); p != tcheck && r.overlapsPublished(tcheck, p, prep) {
		return commitRace
	}
	if h := r.cfg.Hooks; h != nil && h.CommitDelay != nil {
		h.CommitDelay(tx.tid)
	}
	if r.failed() {
		return commitFailed
	}
	// Install, don't replay: tx.window is every entry in (begin, tcheck] and
	// the screen above cleared (tcheck, published], so a written location
	// no window entry wrote has not moved since the transaction faulted it
	// and publishes straight from tx.priv. Only the rest is replayed —
	// before ticketing: the ticket is the point of no return (a ticket
	// that never publishes would wedge the sequencer), so every fallible
	// step happens first. A replay error is terminal for the whole run —
	// never a retry.
	var nDirty int
	tx.dirty, nDirty = prep.DirtyWrites(tx.window, tx.dirty)
	tx.overlay = nil
	if nDirty > 0 {
		if err := r.replayCompute(tx, foot, nDirty); err != nil {
			r.fail(err)
			return commitFailed
		}
	}
	if r.installCheck != nil {
		r.installCheck(tx, foot)
	}
	ctime := r.clock.Add(1)
	pipeStart := ctx.Now()
	if !r.waitPublished(ctime-1, tx.wake) {
		// Run failed before our turn could come up; nothing was merged
		// and no successor is live to wait on the gap.
		return commitFailed
	}
	ctx.End(obs.EvCommitPipeline, pipeStart)
	r.mergeVersion(tx, foot)
	r.publishEntry(tx.tid, ctime, prep)
	if sink := r.cfg.Record; sink != nil {
		// Inside the publication turn: sinks see commits in strictly
		// increasing commitTime order across all workers.
		sink.ObserveCommitted(tx.tid, ctime, prep.Log())
	}
	r.advancePublished(ctime)
	return commitOK
}

// searchHist returns the index of the first history entry with
// commitTime > after (history is sorted by commitTime).
func searchHist(h []histEntry, after int64) int {
	lo, hi := 0, len(h)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h[mid].commitTime > after {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
