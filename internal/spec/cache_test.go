package spec

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
)

// putPair stores kind under the pair's key, as training does.
func putPair(c *Cache, s1, s2 []oplog.Sym, kind conditionKind) {
	c.put(pairKey(c.Mode(), s1, s2), kind)
}

// lookup asks c about a pair, its keys rendered as a prepared projection
// renders them. A pair c does not know conflicts (the caller falls back
// to write-set detection).
func lookup(c *Cache, s1, s2 []oplog.Sym) (conflict bool, failed Check, hit bool) {
	a := c.Lookup(c.Mode().AppendKey(nil, s1), c.Mode().AppendKey(nil, s2), s1, s2)
	return !a.Known || a.Conflict, a.Failed, a.Hit
}

func idPair(a string) []oplog.Sym {
	return []oplog.Sym{sym(adt.KindNumAdd, a), sym(adt.KindNumAdd, "-"+a)}
}

func TestPutLookupHit(t *testing.T) {
	c := New(Abstract, false)
	putPair(c, idPair("2"), idPair("3"), condRegister)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	conflict, _, hit := lookup(c, idPair("7"), idPair("9"))
	if !hit || conflict {
		t.Fatalf("Lookup = conflict=%v hit=%v", conflict, hit)
	}
	// Longer instance still hits under abstraction.
	long := append(idPair("1"), idPair("4")...)
	conflict, _, hit = lookup(c, long, idPair("9"))
	if !hit || conflict {
		t.Fatalf("long Lookup = conflict=%v hit=%v", conflict, hit)
	}
}

func TestCondNoneIgnored(t *testing.T) {
	c := New(Abstract, false)
	putPair(c, idPair("1"), idPair("2"), condNone)
	if c.Len() != 0 {
		t.Fatalf("condNone must not be stored")
	}
}

func TestStats(t *testing.T) {
	c := New(Abstract, false)
	putPair(c, idPair("2"), idPair("3"), condAlways)
	lookup(c, idPair("1"), idPair("2")) // hit
	lookup(c, idPair("5"), idPair("6")) // hit, same key
	store := []oplog.Sym{sym(adt.KindNumStore, "5")}
	lookup(c, store, store)       // miss
	lookup(c, store, store)       // miss, same key
	lookup(c, store, idPair("1")) // miss, new key
	st := c.Stats()
	if st.Lookups != 5 || st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.UniqueQueries != 3 || st.UniqueHits != 1 || st.UniqueMisses != 2 {
		t.Fatalf("unique stats = %+v", st)
	}
	if got := st.UniqueMissRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("UniqueMissRate = %v, want 2/3", got)
	}
	c.ResetStats()
	if st := c.Stats(); st.Lookups != 0 || st.UniqueQueries != 0 {
		t.Fatalf("after reset: %+v", st)
	}
	if (Stats{}).UniqueMissRate() != 0 {
		t.Errorf("empty stats miss rate must be 0")
	}
}

func TestPutConflictResolution(t *testing.T) {
	c := New(Abstract, false)
	// Register first, then Always for the same shape: register wins.
	store := []oplog.Sym{sym(adt.KindNumStore, "5")}
	putPair(c, store, store, condRegister)
	putPair(c, store, store, condAlways)
	// store(5) vs store(6) must still evaluate (and conflict) under the
	// kept register condition.
	store6 := []oplog.Sym{sym(adt.KindNumStore, "6")}
	conflict, _, hit := lookup(c, store, store6)
	if !hit || !conflict {
		t.Fatalf("register condition must be kept: conflict=%v hit=%v", conflict, hit)
	}
}

func TestMerge(t *testing.T) {
	a := New(Abstract, false)
	b := New(Abstract, false)
	putPair(a, idPair("1"), idPair("2"), condAlways)
	store := []oplog.Sym{sym(adt.KindNumStore, "5")}
	putPair(b, store, store, condRegister)
	a.Merge(b)
	if a.Len() != 2 {
		t.Fatalf("merged Len = %d, want 2", a.Len())
	}
	// Merge does not let Always overwrite an existing register entry.
	b2 := New(Abstract, false)
	putPair(b2, store, store, condAlways)
	a.Merge(b2)
	store6 := []oplog.Sym{sym(adt.KindNumStore, "6")}
	if conflict, _, hit := lookup(a, store, store6); !hit || !conflict {
		t.Fatalf("merge must keep register entry: conflict=%v hit=%v", conflict, hit)
	}
}

func TestModeAffectsKeys(t *testing.T) {
	abs := New(Abstract, false)
	conc := New(Concrete, false)
	if abs.Mode() != Abstract || conc.Mode() != Concrete {
		t.Fatalf("modes wrong")
	}
	short := idPair("2")
	long := append(idPair("2"), idPair("3")...)
	if pairKey(Abstract, short, short) != pairKey(Abstract, long, long) {
		t.Errorf("abstract keys must unify lengths")
	}
	if pairKey(Concrete, short, short) == pairKey(Concrete, long, long) {
		t.Errorf("concrete keys must distinguish lengths")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(Abstract, false)
	putPair(c, idPair("1"), idPair("1"), condAlways)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				lookup(c, idPair("3"), idPair("4"))
				c.Stats()
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Lookups != 1600 {
		t.Fatalf("Lookups = %d, want 1600", st.Lookups)
	}
}

// distinctSeq builds length-distinct symbolic sequences: concrete keys
// render kind sequences, so varying the length yields distinct keys.
func distinctSeq(n int) []oplog.Sym {
	out := make([]oplog.Sym, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, sym(adt.KindNumAdd, "1"))
	}
	return out
}

func TestShardDistribution(t *testing.T) {
	c := New(Concrete, false)
	const keys = 256
	for i := 1; i <= keys; i++ {
		putPair(c, distinctSeq(i), distinctSeq(i+keys), condAlways)
	}
	if c.Len() != keys {
		t.Fatalf("Len = %d, want %d", c.Len(), keys)
	}
	total := 0
	for i := range c.shards {
		n := len(c.shards[i].entries)
		total += n
		// A uniform hash puts ~16 keys per shard; any shard holding more
		// than half the keys means the hash is effectively unsharded.
		if n > keys/2 {
			t.Errorf("shard %d holds %d of %d keys — distribution collapsed", i, n, keys)
		}
	}
	if total != keys {
		t.Fatalf("shard lens sum to %d, want %d", total, keys)
	}
}

// TestConcurrentPutLookupMerge exercises parallel writers, readers, and
// mergers under -race: the training-time contract (per-shard write locks)
// must hold while production-style lookups run.
func TestConcurrentPutLookupMerge(t *testing.T) {
	c := New(Concrete, false)
	other := New(Concrete, false)
	for i := 1; i <= 32; i++ {
		putPair(other, distinctSeq(i), distinctSeq(i+100), condRegister)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 50; i++ {
				putPair(c, distinctSeq(i%16+1), distinctSeq(i%16+200), condAlways)
				lookup(c, distinctSeq(i%32+1), distinctSeq(i%32+100))
				if w == 0 && i%10 == 0 {
					c.Merge(other)
				}
				c.Stats()
			}
		}(w)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Fatal("no entries after concurrent writes")
	}
	st := c.Stats()
	if st.Lookups != 200 {
		t.Fatalf("Lookups = %d, want 200", st.Lookups)
	}
	if st.UniqueHits+st.UniqueMisses != st.UniqueQueries {
		t.Fatalf("unique stats inconsistent: %+v", st)
	}
}

// TestMergeOrderDeterminism asserts the satellite bugfix: merging the same
// training runs in any order yields identical cache contents, including
// when runs proved different non-Always kinds for one key.
func TestMergeOrderDeterminism(t *testing.T) {
	store := []oplog.Sym{sym(adt.KindNumStore, "5")}
	build := func() (*Cache, *Cache, *Cache) {
		a, b, d := New(Abstract, false), New(Abstract, false), New(Abstract, false)
		putPair(a, idPair("1"), idPair("2"), condAlways)
		putPair(a, store, store, condRegister)
		putPair(b, store, store, condStackIdentity) // conflicting non-Always kind
		putPair(b, idPair("3"), idPair("4"), condRegister)
		putPair(d, store, store, condAlways)
		return a, b, d
	}
	var dumps []string
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		a, b, d := build()
		caches := []*Cache{a, b, d}
		dst := New(Abstract, false)
		for _, i := range order {
			dst.Merge(caches[i])
		}
		dumps = append(dumps, dst.Dump())
	}
	for i := 1; i < len(dumps); i++ {
		if dumps[i] != dumps[0] {
			t.Fatalf("merge order changed contents:\norder 0:\n%s\norder %d:\n%s", dumps[0], i, dumps[i])
		}
	}
	// The weakest kind must have won for the contested key.
	if !strings.Contains(dumps[0], "stack-identity") {
		t.Errorf("contested key did not resolve to the weakest kind:\n%s", dumps[0])
	}
}

// TestStatsFirstOutcome asserts the satellite bugfix: a key that misses
// and later hits (online learning) is classified by its first outcome, so
// UniqueHits + UniqueMisses == UniqueQueries always holds.
func TestStatsFirstOutcome(t *testing.T) {
	c := New(Abstract, false)
	store := []oplog.Sym{sym(adt.KindNumStore, "5")}
	lookup(c, store, store) // miss
	putPair(c, store, store, condRegister)
	lookup(c, store, store) // now hits, but the key's first query missed
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("totals = %+v", st)
	}
	if st.UniqueQueries != 1 || st.UniqueHits != 0 || st.UniqueMisses != 1 {
		t.Fatalf("unique stats must classify by first outcome: %+v", st)
	}
	if st.UniqueHits+st.UniqueMisses != st.UniqueQueries {
		t.Fatalf("invariant violated: %+v", st)
	}
	if got := st.UniqueMissRate(); got != 1 {
		t.Fatalf("UniqueMissRate = %v, want 1", got)
	}
}

func TestFreeze(t *testing.T) {
	c := New(Abstract, false)
	store := []oplog.Sym{sym(adt.KindNumStore, "5")}
	putPair(c, store, store, condRegister)
	if c.Frozen() {
		t.Fatal("new cache must not be frozen")
	}
	c.Freeze()
	if !c.Frozen() {
		t.Fatal("Freeze did not stick")
	}
	// Writes are dropped; reads and stats keep working.
	putPair(c, idPair("1"), idPair("2"), condAlways)
	if c.Len() != 1 {
		t.Fatalf("Put on frozen cache must be a no-op; Len = %d", c.Len())
	}
	o := New(Abstract, false)
	putPair(o, idPair("1"), idPair("2"), condAlways)
	c.Merge(o)
	if c.Len() != 1 {
		t.Fatalf("Merge into frozen cache must be a no-op; Len = %d", c.Len())
	}
	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("Load into frozen cache must fail")
	}
	if conflict, _, hit := lookup(c, store, store); !hit || conflict {
		t.Fatalf("frozen lookup: conflict=%v hit=%v", conflict, hit)
	}
	c.ResetStats()
	if st := c.Stats(); st.Lookups != 0 {
		t.Fatalf("ResetStats on frozen cache: %+v", st)
	}
	// Lock-free frozen reads must be race-clean under concurrency.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				lookup(c, store, store)
				c.Stats()
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Hits != 400 {
		t.Fatalf("frozen concurrent Hits = %d, want 400", st.Hits)
	}
}

// TestFreezeDuringWrites races Freeze against concurrent trainers and
// readers: the all-shard lock handoff in Freeze must make every completed
// pre-freeze write visible to post-freeze lock-free readers (-race is the
// actual assertion here).
func TestFreezeDuringWrites(t *testing.T) {
	c := New(Concrete, false)
	// Seed one entry so the landed-writes assertion below can't lose the
	// race to Freeze on a single-core scheduler.
	putPair(c, distinctSeq(1), distinctSeq(101), condAlways)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 100; i++ {
				putPair(c, distinctSeq(i), distinctSeq(i+100), condAlways)
				lookup(c, distinctSeq(i), distinctSeq(i+100))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Freeze()
	}()
	wg.Wait()
	if !c.Frozen() {
		t.Fatal("cache must end frozen")
	}
	n := c.Len()
	if n == 0 {
		t.Fatal("no writes landed before the freeze")
	}
	if again := c.Len(); again != n {
		t.Fatalf("frozen contents changed: %d vs %d", n, again)
	}
}
