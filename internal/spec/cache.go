package spec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/oplog"
)

// The store of the specification (§5.1, §5.3): entries map a pair key —
// two sequence keys rendered by AppendKey and joined by appendJoinedKeys —
// to the condition kind proved sound for that pair.
//
// The cache is sharded by pair-key hash so that concurrent production
// lookups from many detection workers do not serialize on a single mutex.
// Training-time writes take a per-shard write lock; production-time reads
// take only the shard's read lock — or no lock at all once Freeze marks
// training complete and the entry maps immutable.
//
// The cache also keeps the hit/miss accounting behind Figure 11: unique
// queries are tracked by key, classified by their first outcome, so
// repeated hits or misses on the same query count once, matching the
// paper's measurement methodology. Totals are per-shard padded atomics;
// the unique-key tracking takes a per-shard stats read lock on the hot
// path and escalates to the write lock only the first time a key is seen.

// numShards is the shard count, a power of two. Sixteen ways is enough
// to make shard collisions rare at the paper's 8-thread scale while
// keeping the per-cache footprint trivial.
const numShards = 16

// shard is one lock domain of the cache. Entries and query accounting
// have independent locks so that frozen (lock-free) entry reads never
// contend with stats bookkeeping. The trailing pad keeps the hot atomic
// counters of neighboring shards on different cache lines.
type shard struct {
	mu      sync.RWMutex
	entries map[string]conditionKind

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
	mode Mode
	// learn makes a miss prove and store the pair's condition on the spot
	// (online learning, §5.3); such a cache never freezes.
	learn  bool
	shards [numShards]shard
	// frozen flips the cache into read-only production mode: entry maps
	// become immutable, so lookups skip the shard locks entirely.
	frozen atomic.Bool
}

// New returns an empty cache whose keys are rendered under mode. A
// learning cache implements the §5.3 remark that "memoization can be used
// to support online training": a miss whose pair a theory covers proves
// the condition right away and stores it, so an untrained system
// converges to trained behavior after one miss per shape pair.
func New(mode Mode, learn bool) *Cache {
	c := &Cache{mode: mode, learn: learn}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]conditionKind)
		c.shards[i].firstHit = make(map[string]bool)
	}
	return c
}

// Mode returns the cache's abstraction mode: the mode its queries' keys
// must be rendered under.
func (c *Cache) Mode() Mode { return c.mode }

// shardFor hashes a key to its shard: FNV-1a with a murmur-style
// avalanche finalizer. Rendered keys are highly periodic (repeated
// " · kind" blocks), and raw FNV's low bits cycle on periodic input —
// without the final mix, whole workloads collapse into one shard.
func shardFor[K string | []byte](c *Cache, key K) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[mix32(h)&(numShards-1)]
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

// keyBufPool recycles the scratch buffers Lookup joins pair keys into,
// keeping the production lookup path allocation-free.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Freeze switches the cache into read-only production mode: subsequent
// lookups read the entry maps without locking, and puts become no-ops
// (Load fails). Freeze after training, before handing the cache to
// production workers. A learning cache ignores it: online learning writes
// entries at detection time. Acquiring every shard lock before publishing
// the flag guarantees any in-flight write completes before the first
// lock-free read.
func (c *Cache) Freeze() {
	if c.learn {
		return
	}
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

// put records a proved condition under a pair key: the write path shared
// by training, online learning, Merge and Load. condNone is ignored (an
// unprovable pair stays a miss), puts on a frozen cache are dropped, and
// conflicting kinds for one key resolve by resolve, so cache contents are
// independent of insertion order.
func (c *Cache) put(key string, kind conditionKind) {
	if kind == condNone {
		return
	}
	sh := shardFor(c, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.frozen.Load() {
		return
	}
	sh.entries[key] = resolve(sh.entries[key], kind)
}

// Answer is the specification's reply to one per-location query.
type Answer struct {
	// Hit reports that the pair's key had an entry: a Figure 11 hit.
	Hit bool
	// Known reports that the specification decides the pair: on a hit,
	// and on a learning cache's miss whose condition it proved on the
	// spot. A pair it does not know falls back to write-set detection.
	Known bool
	// Conflict is a known pair's verdict, and Failed the check of the
	// condition that rejected it: same-read, commute, or theory when the
	// instance left the condition's theory and the answer is
	// conservative.
	Conflict bool
	Failed   Check
}

// Lookup answers one per-location query: k1 and k2 are the two
// sequences' keys (AppendKey under the cache's mode), s1 and s2 the
// sequences themselves, on which a cached condition is evaluated. The
// pair key is joined into a pooled buffer and looked up via the
// compiler's no-copy map[string] access on string(buf), so a hit on a
// known key allocates nothing.
func (c *Cache) Lookup(k1, k2 []byte, s1, s2 []oplog.Sym) Answer {
	bp := keyBufPool.Get().(*[]byte)
	buf := appendJoinedKeys((*bp)[:0], k1, k2)
	a := c.lookup(buf, s1, s2)
	*bp = buf
	keyBufPool.Put(bp)
	return a
}

// lookup is Lookup over the joined pair key.
func (c *Cache) lookup(key []byte, s1, s2 []oplog.Sym) Answer {
	sh := shardFor(c, key)
	var kind conditionKind
	var ok bool
	if c.frozen.Load() {
		kind, ok = sh.entries[string(key)]
	} else {
		sh.mu.RLock()
		kind, ok = sh.entries[string(key)]
		sh.mu.RUnlock()
	}
	sh.note(key, ok)
	if ok {
		conflict, failed, evalOK := evaluate(kind, s1, s2)
		if !evalOK {
			// Shape matched but the instance left the theory (should not
			// happen with consistent abstraction); be conservative.
			return Answer{Hit: true, Known: true, Conflict: true, Failed: CheckTheory}
		}
		return Answer{Hit: true, Known: true, Conflict: conflict, Failed: failed}
	}
	if !c.learn {
		return Answer{}
	}
	// Online learning: this query stays a miss in the accounting above,
	// the next one on the shape hits.
	kind = prove(s1, s2)
	if kind == condNone {
		return Answer{}
	}
	c.put(string(key), kind)
	conflict, failed, evalOK := evaluate(kind, s1, s2)
	if !evalOK {
		return Answer{}
	}
	return Answer{Known: true, Conflict: conflict, Failed: failed}
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
func (c *Cache) snapshotEntries() map[string]conditionKind {
	out := make(map[string]conditionKind)
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
// Conflicting kinds resolve by resolve, so the merged contents are
// independent of merge order. Merging into a frozen cache is a no-op.
func (c *Cache) Merge(o *Cache) {
	for k, v := range o.snapshotEntries() {
		c.put(k, v)
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
	st := Stats{Entries: c.Len(), Shards: numShards}
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
	var b strings.Builder
	for _, k := range sortedKeys(entries) {
		fmt.Fprintf(&b, "%s → %s\n", k, entries[k])
	}
	return b.String()
}

// sortedKeys returns the entries' keys in order (Dump and Save).
func sortedKeys(entries map[string]conditionKind) []string {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
