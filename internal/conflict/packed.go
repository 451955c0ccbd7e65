// Compressed committed-history records.
//
// A committed transaction's Prepared artifact holds its full event log
// plus materialized per-location arenas — O(ops) memory per history
// entry, which is why the history window used to be memory-bound. After
// an entry leaves the recent window the stm demotes it: Compress renders
// the artifact into a compact record that keeps exactly what detection
// needs and nothing the replay/commit path ever reads again — the
// footprint signatures for screening, the projection-location index, and
// each location's symbolic subsequence and access modes, delta-varint
// encoded against an interned descriptor table (the internal/rec framing
// idiom, minus the chunk/CRC envelope a purely in-memory record does not
// need; rec's encoder is unexported and rec imports stm, so the handful
// of varint calls live here).
//
// Detectors screen compressed entries by signature — equal locations set
// equal signature bits, so a clear screen is never a false negative — and
// only on overlap decode the one overlapping subsequence into pooled
// per-detection scratch (decode-and-detect, after *Data Race Detection on
// Compressed Traces*). The only check that needs concrete events rather
// than shapes is the optional Online concrete replay; against a
// compressed entry it degrades to the (sound, conservative) write-set
// fallback, documented in DESIGN.md §14.

package conflict

import (
	"encoding/binary"

	"repro/internal/oplog"
	"repro/internal/state"
)

// packedRec is the compressed form of a committed Prepared. Immutable
// after construction, so it is shared read-only by concurrent detectors
// without synchronization.
type packedRec struct {
	ops              int
	sigAll, sigWrite uint64
	// syms interns the distinct symbolic descriptors of the log; per-loc
	// subsequences reference it by index.
	syms []oplog.Sym
	// locs is the projection-location index in first-access order.
	locs []packedLoc
	// buf holds every location's encoded subsequence (delta-zigzag varint
	// descriptor references) and access-mode entries, back to back.
	buf []byte
}

// packedLoc is one projection location's window into the record.
type packedLoc struct {
	p        oplog.PLoc
	wildcard bool
	n        int // subsequence length
	seqOff   int // buf window of the descriptor-reference sequence
	seqEnd   int
	modeOff  int // buf window of the access-mode entries
	modeEnd  int
}

// modeBits packs a mode into one byte.
func modeBits(m mode) byte {
	var b byte
	if m.read {
		b |= 1
	}
	if m.write {
		b |= 2
	}
	return b
}

// packRecord compresses a full artifact from its memoized per-location
// projections. The record shares the descriptor strings with the source
// ops but drops every event, arena, and log reference.
func packRecord(p *Prepared) *packedRec {
	locs := p.locations()
	sigAll, sigWrite := p.Signatures()
	r := &packedRec{ops: len(p.log), sigAll: sigAll, sigWrite: sigWrite}
	r.locs = make([]packedLoc, len(locs))
	// Index PLoc → location slot once: every access-mode key of a
	// subsequence is itself a decomposed location of the log (an event
	// accessing it appears in its own subsequence), so mode entries encode
	// as (slot, bits) pairs.
	slot := make(map[oplog.PLoc]int, len(locs))
	for i := range locs {
		slot[locs[i].p] = i
	}
	intern := make(map[oplog.Sym]int, 16)
	for i := range locs {
		pl := &locs[i]
		pr := &r.locs[i]
		pr.p, pr.wildcard, pr.n = pl.p, pl.wildcard, len(pl.syms)
		pr.seqOff = len(r.buf)
		prev := 0
		for _, s := range pl.syms {
			id, ok := intern[s]
			if !ok {
				id = len(r.syms)
				r.syms = append(r.syms, s)
				intern[s] = id
			}
			r.buf = binary.AppendVarint(r.buf, int64(id-prev))
			prev = id
		}
		pr.seqEnd = len(r.buf)
		pr.modeOff = len(r.buf)
		modes := pl.accessModes()
		r.buf = binary.AppendUvarint(r.buf, uint64(len(modes)))
		for q, m := range modes {
			r.buf = binary.AppendUvarint(r.buf, uint64(slot[q]))
			r.buf = append(r.buf, modeBits(m))
		}
		pr.modeEnd = len(r.buf)
	}
	return r
}

// appendSyms decodes location i's symbolic subsequence into dst.
func (r *packedRec) appendSyms(dst []oplog.Sym, i int) []oplog.Sym {
	b := r.buf[r.locs[i].seqOff:r.locs[i].seqEnd]
	prev := int64(0)
	for len(b) > 0 {
		d, n := binary.Varint(b)
		b = b[n:]
		prev += d
		dst = append(dst, r.syms[prev])
	}
	return dst
}

// locModes decodes location i's access-mode map.
func (r *packedRec) locModes(i int) map[oplog.PLoc]mode {
	b := r.buf[r.locs[i].modeOff:r.locs[i].modeEnd]
	cnt, n := binary.Uvarint(b)
	b = b[n:]
	m := make(map[oplog.PLoc]mode, cnt)
	for k := uint64(0); k < cnt; k++ {
		idx, n := binary.Uvarint(b)
		b = b[n:]
		bits := b[0]
		b = b[1:]
		m[r.locs[idx].p] = mode{read: bits&1 != 0, write: bits&2 != 0}
	}
	return m
}

// allModes reconstructs the whole-log access modes: a location's own
// entry in its own subsequence's mode map aggregates every access to it
// in the whole log (each such event sits in that subsequence), so the
// union of own-entries is exactly the whole-log map.
func (r *packedRec) allModes() map[oplog.PLoc]mode {
	m := make(map[oplog.PLoc]mode, len(r.locs))
	for i := range r.locs {
		lm := r.locModes(i)
		m[r.locs[i].p] = lm[r.locs[i].p]
	}
	return m
}

// footprint reconstructs the distinct-location footprint from the index
// (the commit path never asks a demoted entry for it, but the accessor
// contract holds either way).
func (r *packedRec) footprint() []FootprintLoc {
	own := r.allModes()
	var foot []FootprintLoc
	idx := make(map[state.Loc]int, len(r.locs))
	for i := range r.locs {
		loc := r.locs[i].p.Loc()
		w := own[r.locs[i].p].write
		if j, ok := idx[loc]; ok {
			foot[j].Write = foot[j].Write || w
			continue
		}
		idx[loc] = len(foot)
		foot = append(foot, FootprintLoc{Loc: loc, Hash: fnv64a(string(loc)), Write: w})
	}
	return foot
}

// bytes estimates the record's retained size: the encoded buffer plus the
// index and interned-descriptor tables (slice headers, strings, and
// per-entry bookkeeping). Feeds the stm's hist_bytes gauge.
func (r *packedRec) bytes() int {
	n := len(r.buf) + 64 // struct + slice headers
	n += len(r.locs) * 72
	for i := range r.locs {
		n += len(r.locs[i].p)
	}
	for _, s := range r.syms {
		n += 32 + len(s.Kind) + len(s.Arg)
	}
	return n
}

// Compress returns the artifact's compact committed-history form,
// dropping the event log and materialized arenas. The result answers
// every detection query (screened by signature, decoded on overlap) but
// carries no concrete events: the optional Online concrete check degrades
// to the write-set fallback against it, and Log returns nil. Compressing
// an already-compressed artifact returns it unchanged. The source must be
// a published (shared read-only, never recycled) artifact.
func (p *Prepared) Compress() *Prepared {
	if p.packed != nil {
		return p
	}
	return &Prepared{packed: packRecord(p)}
}

// Compressed reports whether the artifact is a demoted compact record
// (false for nil, like Recycle's nil tolerance).
func (p *Prepared) Compressed() bool { return p != nil && p.packed != nil }

// CompressedBytes returns the retained size of a compressed artifact's
// record, or 0 for a full (or nil) artifact.
func (p *Prepared) CompressedBytes() int {
	if p == nil || p.packed == nil {
		return 0
	}
	return p.packed.bytes()
}
