// Package cache implements the commutativity-specification cache JANUS
// builds during offline training and queries during parallel execution
// (§5.1, §5.3). Entries map a pair of abstract sequence patterns (the
// §5.2 regular forms, or concrete shapes when abstraction is disabled) to
// the condition kind proved sound for that pair.
//
// The cache is N-way sharded by pair-key hash so that concurrent
// production lookups from many detection workers do not serialize on a
// single mutex. Training-time writes take a per-shard write lock;
// production-time reads take only the shard's read lock — or no lock at
// all once Freeze marks training complete and the entry maps immutable.
//
// The cache also keeps the hit/miss accounting behind Figure 11: unique
// queries are tracked by key, classified by their first outcome, so
// repeated hits or misses on the same query count once, matching the
// paper's measurement methodology. Totals are per-shard padded atomics;
// the unique-key tracking takes a per-shard stats read lock on the hot
// path and escalates to the write lock only the first time a key is seen.
package cache

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/commute"
	"repro/internal/oplog"
	"repro/internal/seqabs"
)

// DefaultShards is the shard count used by New. Sixteen ways is enough to
// make shard collisions rare at the paper's 8-thread scale while keeping
// the per-cache footprint trivial.
const DefaultShards = 16

// shard is one lock domain of the cache. Entries and query accounting
// have independent locks so that frozen (lock-free) entry reads never
// contend with stats bookkeeping. The trailing pad keeps the hot atomic
// counters of neighboring shards on different cache lines.
type shard struct {
	mu      sync.RWMutex
	entries map[string]commute.ConditionKind

	statsMu sync.RWMutex
	// firstHit classifies every key ever queried by its first outcome
	// (true = hit). Figure 11's unique-query stats derive from it.
	firstHit map[string]bool

	hits   atomic.Int64
	misses atomic.Int64

	_ [40]byte // pad shard to a 64-byte multiple against false sharing
}

// Cache is a concurrency-safe commutativity specification.
type Cache struct {
	abs    *seqabs.Abstracter
	shards []shard
	mask   uint32
	// frozen flips the cache into read-only production mode: entry maps
	// become immutable, so lookups skip the shard locks entirely.
	frozen atomic.Bool
}

// New returns an empty cache with DefaultShards shards whose keys are
// built under the given abstraction mode.
func New(mode seqabs.Mode) *Cache { return NewSharded(mode, 0) }

// NewSharded returns an empty cache with the given shard count, rounded up
// to a power of two; shards <= 0 selects DefaultShards.
func NewSharded(mode seqabs.Mode, shards int) *Cache {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{
		abs:    &seqabs.Abstracter{Mode: mode},
		shards: make([]shard, n),
		mask:   uint32(n - 1),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]commute.ConditionKind)
		c.shards[i].firstHit = make(map[string]bool)
	}
	return c
}

// Mode returns the cache's abstraction mode.
func (c *Cache) Mode() seqabs.Mode { return c.abs.Mode }

// NumShards returns the shard count.
func (c *Cache) NumShards() int { return len(c.shards) }

// Key renders the cache key for a sequence pair.
func (c *Cache) Key(s1, s2 []oplog.Sym) string { return c.abs.PairKey(s1, s2) }

// shardFor hashes a key to its shard: FNV-1a with a murmur-style
// avalanche finalizer. Rendered keys are highly periodic (repeated
// " · kind" blocks), and raw FNV's low bits cycle on periodic input —
// without the final mix, whole workloads collapse into one shard.
func (c *Cache) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[mix32(h)&c.mask]
}

// shardForBytes is shardFor over an unconverted key buffer.
func (c *Cache) shardForBytes(key []byte) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[mix32(h)&c.mask]
}

// mix32 avalanches every input bit across the output (murmur3 fmix32).
func mix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// keyBufPool recycles the scratch buffers LookupDetail renders pair keys
// into, keeping the production lookup path allocation-free.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Freeze switches the cache into read-only production mode: subsequent
// lookups read the entry maps without locking, and Put/Merge become
// no-ops (Load fails). Freeze after training, before handing the cache to
// production workers; callers using LearnOnline must not freeze, since
// online learning writes entries at detection time. Acquiring every shard
// lock before publishing the flag guarantees any in-flight write completes
// before the first lock-free read.
func (c *Cache) Freeze() {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	c.frozen.Store(true)
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
}

// Frozen reports whether the cache is in read-only production mode.
func (c *Cache) Frozen() bool { return c.frozen.Load() }

// Put records a proved condition for the pair's shape. CondNone entries
// are ignored (an unprovable pair stays a miss). Puts on a frozen cache
// are dropped.
func (c *Cache) Put(s1, s2 []oplog.Sym, kind commute.ConditionKind) {
	c.putKey(c.Key(s1, s2), kind)
}

// putKey is the write path shared by Put, Merge, and Load: conflicting
// kinds for one key resolve by commute.Resolve, so cache contents are
// independent of insertion order.
func (c *Cache) putKey(key string, kind commute.ConditionKind) {
	if kind == commute.CondNone {
		return
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.frozen.Load() {
		return
	}
	sh.entries[key] = commute.Resolve(sh.entries[key], kind)
}

// LookupDetail is Lookup with abort-reason attribution: on a conflicting
// hit, failed names the check of the cached condition that rejected the
// pair (same-read, commute, or theory when the instance left the
// condition's theory and the answer is conservative).
func (c *Cache) LookupDetail(s1, s2 []oplog.Sym) (conflict bool, failed commute.Check, hit bool) {
	// The key is rendered into a pooled buffer and looked up via the
	// compiler's no-copy map[string] access on string(buf), so a hit on a
	// known key allocates nothing.
	bp := keyBufPool.Get().(*[]byte)
	buf := c.abs.AppendPairKey((*bp)[:0], s1, s2)
	conflict, failed, hit = c.lookupBuf(buf, s1, s2)
	*bp = buf
	keyBufPool.Put(bp)
	return conflict, failed, hit
}

// AppendSeqKey renders one sequence's cache key into dst under the
// cache's abstraction. Prepared projections memoize this per-location
// rendering so LookupDetailKeys can skip re-abstracting either side.
func (c *Cache) AppendSeqKey(dst []byte, syms []oplog.Sym) []byte {
	return c.abs.AppendKey(dst, syms)
}

// LookupDetailKeys is LookupDetail for callers holding the two sequences'
// pre-rendered keys (from AppendSeqKey): the pair key is assembled by
// canonically joining them, skipping the per-call idempotent-block search
// that dominates key rendering. The symbolic sequences are still required
// to evaluate a cached condition on the concrete instance.
func (c *Cache) LookupDetailKeys(k1, k2 []byte, s1, s2 []oplog.Sym) (conflict bool, failed commute.Check, hit bool) {
	bp := keyBufPool.Get().(*[]byte)
	buf := seqabs.AppendJoinedKeys((*bp)[:0], k1, k2)
	conflict, failed, hit = c.lookupBuf(buf, s1, s2)
	*bp = buf
	keyBufPool.Put(bp)
	return conflict, failed, hit
}

// lookupBuf is the lookup body shared by LookupDetail and
// LookupDetailKeys; buf holds the rendered canonical pair key.
func (c *Cache) lookupBuf(buf []byte, s1, s2 []oplog.Sym) (conflict bool, failed commute.Check, hit bool) {
	sh := c.shardForBytes(buf)
	var kind commute.ConditionKind
	var ok bool
	if c.frozen.Load() {
		kind, ok = sh.entries[string(buf)]
	} else {
		sh.mu.RLock()
		kind, ok = sh.entries[string(buf)]
		sh.mu.RUnlock()
	}
	sh.note(buf, ok)
	if !ok {
		return true, commute.CheckNone, false
	}
	conflict, failed, evalOK := commute.EvaluateDetail(kind, s1, s2)
	if !evalOK {
		// Shape matched but the instance left the theory (should not
		// happen with consistent abstraction); be conservative.
		return true, commute.CheckTheory, true
	}
	return conflict, failed, true
}

// note records one query outcome: totals on the shard's atomic counters,
// plus the key's first outcome for the unique-query stats. Re-queried keys
// (the steady state) only take the stats read lock and allocate nothing;
// the key string is materialized once, when a key is first seen.
func (s *shard) note(key []byte, hit bool) {
	if hit {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	s.statsMu.RLock()
	_, seen := s.firstHit[string(key)]
	s.statsMu.RUnlock()
	if seen {
		return
	}
	s.statsMu.Lock()
	if _, seen := s.firstHit[string(key)]; !seen {
		s.firstHit[string(key)] = hit
	}
	s.statsMu.Unlock()
}

// Len returns the number of cached shape pairs.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		if c.frozen.Load() {
			n += len(sh.entries)
			continue
		}
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// snapshotEntries copies the live entry maps (for Merge/Save/Dump).
func (c *Cache) snapshotEntries() map[string]commute.ConditionKind {
	out := make(map[string]commute.ConditionKind)
	for i := range c.shards {
		sh := &c.shards[i]
		if c.frozen.Load() {
			for k, v := range sh.entries {
				out[k] = v
			}
			continue
		}
		sh.mu.RLock()
		for k, v := range sh.entries {
			out[k] = v
		}
		sh.mu.RUnlock()
	}
	return out
}

// Merge folds another cache's entries into c (multiple training runs).
// Conflicting kinds resolve by commute.Resolve, so the merged contents are
// independent of merge order. Merging into a frozen cache is a no-op.
func (c *Cache) Merge(o *Cache) {
	for k, v := range o.snapshotEntries() {
		c.putKey(k, v)
	}
}

// ResetStats clears hit/miss accounting (e.g. between the cold run and the
// measured production runs). It works on frozen caches: accounting is
// separate from the immutable entry maps.
func (c *Cache) ResetStats() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.statsMu.Lock()
		sh.firstHit = make(map[string]bool)
		sh.hits.Store(0)
		sh.misses.Store(0)
		sh.statsMu.Unlock()
	}
}

// Stats summarizes query accounting.
type Stats struct {
	Lookups       int // total Lookup calls
	Hits          int // total hits
	Misses        int // total misses
	UniqueQueries int // distinct query keys seen
	UniqueHits    int // distinct keys whose first query hit
	UniqueMisses  int // distinct keys whose first query missed
	Entries       int
	Shards        int
}

// UniqueMissRate returns the Figure 11 metric: the fraction of unique
// queries with no matching cache entry. Keys are classified by their first
// outcome (a key that misses once and later hits — possible under online
// learning — counts as a unique miss, since its first query forced a
// fallback), so UniqueHits + UniqueMisses == UniqueQueries always holds.
func (s Stats) UniqueMissRate() float64 {
	if s.UniqueQueries == 0 {
		return 0
	}
	return float64(s.UniqueMisses) / float64(s.UniqueQueries)
}

// Stats returns a snapshot of the accounting. Concurrent lookups may land
// between shard visits, so the snapshot is only exact when quiescent.
func (c *Cache) Stats() Stats {
	st := Stats{Entries: c.Len(), Shards: len(c.shards)}
	for i := range c.shards {
		sh := &c.shards[i]
		st.Hits += int(sh.hits.Load())
		st.Misses += int(sh.misses.Load())
		sh.statsMu.RLock()
		for _, hit := range sh.firstHit {
			if hit {
				st.UniqueHits++
			} else {
				st.UniqueMisses++
			}
		}
		st.UniqueQueries += len(sh.firstHit)
		sh.statsMu.RUnlock()
	}
	st.Lookups = st.Hits + st.Misses
	return st
}

// Dump renders the cache contents deterministically for inspection and
// golden tests.
func (c *Cache) Dump() string {
	entries := c.snapshotEntries()
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s → %s\n", k, entries[k])
	}
	return b.String()
}
