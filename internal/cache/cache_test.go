package cache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/commute"
	"repro/internal/oplog"
	"repro/internal/seqabs"
)

// sym builds a descriptor as an op builds it: a numeric kind's argument
// is its integer when arg spells one.
func sym(kind, arg string) oplog.Sym {
	switch kind {
	case adt.KindNumAdd, adt.KindNumStore, adt.KindListPush:
		if n, err := strconv.ParseInt(arg, 10, 64); err == nil {
			return oplog.Sym{Kind: kind, N: n, Int: true}
		}
	}
	return oplog.Sym{Kind: kind, Arg: arg}
}

func idPair(a string) []oplog.Sym {
	return []oplog.Sym{sym(adt.KindNumAdd, a), sym(adt.KindNumAdd, "-"+a)}
}

func TestPutLookupHit(t *testing.T) {
	c := New(seqabs.Abstract)
	c.Put(idPair("2"), idPair("3"), commute.CondRegister)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	conflict, _, hit := c.LookupDetail(idPair("7"), idPair("9"))
	if !hit || conflict {
		t.Fatalf("Lookup = conflict=%v hit=%v", conflict, hit)
	}
	// Longer instance still hits under abstraction.
	long := append(idPair("1"), idPair("4")...)
	conflict, _, hit = c.LookupDetail(long, idPair("9"))
	if !hit || conflict {
		t.Fatalf("long Lookup = conflict=%v hit=%v", conflict, hit)
	}
}

func TestMissIsConservative(t *testing.T) {
	c := New(seqabs.Abstract)
	conflict, _, hit := c.LookupDetail(idPair("1"), idPair("2"))
	if hit || !conflict {
		t.Fatalf("empty cache must miss conservatively: conflict=%v hit=%v", conflict, hit)
	}
}

func TestCondNoneIgnored(t *testing.T) {
	c := New(seqabs.Abstract)
	c.Put(idPair("1"), idPair("2"), commute.CondNone)
	if c.Len() != 0 {
		t.Fatalf("CondNone must not be stored")
	}
}

func TestStats(t *testing.T) {
	c := New(seqabs.Abstract)
	c.Put(idPair("2"), idPair("3"), commute.CondAlways)
	c.LookupDetail(idPair("1"), idPair("2")) // hit
	c.LookupDetail(idPair("5"), idPair("6")) // hit, same key
	store := []oplog.Sym{sym(adt.KindNumStore, "5")}
	c.LookupDetail(store, store)       // miss
	c.LookupDetail(store, store)       // miss, same key
	c.LookupDetail(store, idPair("1")) // miss, new key
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
	c := New(seqabs.Abstract)
	// Register first, then Always for the same shape: register wins.
	store := []oplog.Sym{sym(adt.KindNumStore, "5")}
	c.Put(store, store, commute.CondRegister)
	c.Put(store, store, commute.CondAlways)
	// store(5) vs store(6) must still evaluate (and conflict) under the
	// kept register condition.
	store6 := []oplog.Sym{sym(adt.KindNumStore, "6")}
	conflict, _, hit := c.LookupDetail(store, store6)
	if !hit || !conflict {
		t.Fatalf("register condition must be kept: conflict=%v hit=%v", conflict, hit)
	}
}

func TestMerge(t *testing.T) {
	a := New(seqabs.Abstract)
	b := New(seqabs.Abstract)
	a.Put(idPair("1"), idPair("2"), commute.CondAlways)
	store := []oplog.Sym{sym(adt.KindNumStore, "5")}
	b.Put(store, store, commute.CondRegister)
	a.Merge(b)
	if a.Len() != 2 {
		t.Fatalf("merged Len = %d, want 2", a.Len())
	}
	// Merge does not let Always overwrite an existing register entry.
	b2 := New(seqabs.Abstract)
	b2.Put(store, store, commute.CondAlways)
	a.Merge(b2)
	store6 := []oplog.Sym{sym(adt.KindNumStore, "6")}
	if conflict, _, hit := a.LookupDetail(store, store6); !hit || !conflict {
		t.Fatalf("merge must keep register entry: conflict=%v hit=%v", conflict, hit)
	}
}

func TestModeAffectsKeys(t *testing.T) {
	abs := New(seqabs.Abstract)
	conc := New(seqabs.Concrete)
	if abs.Mode() != seqabs.Abstract || conc.Mode() != seqabs.Concrete {
		t.Fatalf("modes wrong")
	}
	short := idPair("2")
	long := append(idPair("2"), idPair("3")...)
	if abs.Key(short, short) != abs.Key(long, long) {
		t.Errorf("abstract keys must unify lengths")
	}
	if conc.Key(short, short) == conc.Key(long, long) {
		t.Errorf("concrete keys must distinguish lengths")
	}
}

// TestJoinedSeqKeysEqualPairKey: over random descriptor sequences, in both
// abstraction modes, joining two sequences' separately rendered keys gives
// exactly the pair key rendered from the sequences — the identity training
// and the runtime's LookupDetailKeys rely on to render each sequence once.
func TestJoinedSeqKeysEqualPairKey(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	kinds := []string{
		adt.KindNumAdd, adt.KindNumStore, adt.KindNumLoad, adt.KindStrStore, adt.KindRelPut,
		adt.KindRelGet, adt.KindRelRemove, adt.KindListPush, adt.KindListPop, adt.KindListSize,
	}
	genSeq := func() []oplog.Sym {
		out := make([]oplog.Sym, rng.Intn(10))
		for i := range out {
			out[i] = sym(kinds[rng.Intn(len(kinds))], strconv.Itoa(rng.Intn(5)-2))
		}
		return out
	}
	for _, mode := range []seqabs.Mode{seqabs.Concrete, seqabs.Abstract} {
		c := New(mode)
		for i := 0; i < 2000; i++ {
			s1, s2 := genSeq(), genSeq()
			k1, k2 := c.AppendSeqKey(nil, s1), c.AppendSeqKey(nil, s2)
			got := string(seqabs.AppendJoinedKeys(nil, k1, k2))
			if want := c.Key(s1, s2); got != want {
				t.Fatalf("%s: joined keys %q, pair key %q for %v, %v", mode, got, want, s1, s2)
			}
		}
	}
}

func TestDump(t *testing.T) {
	c := New(seqabs.Abstract)
	c.Put(idPair("1"), idPair("2"), commute.CondAlways)
	d := c.Dump()
	if !strings.Contains(d, "always") || !strings.Contains(d, "(num.add num.add)+") {
		t.Errorf("Dump = %q", d)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(seqabs.Abstract)
	c.Put(idPair("1"), idPair("1"), commute.CondAlways)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.LookupDetail(idPair("3"), idPair("4"))
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
	c := NewSharded(seqabs.Concrete, 8)
	if c.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", c.NumShards())
	}
	const keys = 256
	for i := 1; i <= keys; i++ {
		c.Put(distinctSeq(i), distinctSeq(i+keys), commute.CondAlways)
	}
	if c.Len() != keys {
		t.Fatalf("Len = %d, want %d", c.Len(), keys)
	}
	total := 0
	for i := range c.shards {
		n := len(c.shards[i].entries)
		total += n
		// A uniform hash puts ~32 keys per shard; any shard holding more
		// than half the keys means the hash is effectively unsharded.
		if n > keys/2 {
			t.Errorf("shard %d holds %d of %d keys — distribution collapsed", i, n, keys)
		}
	}
	if total != keys {
		t.Fatalf("shard lens sum to %d, want %d", total, keys)
	}
}

func TestNewShardedRoundsUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {-3, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := NewSharded(seqabs.Abstract, tc.in).NumShards(); got != tc.want {
			t.Errorf("NewSharded(%d).NumShards = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestConcurrentPutLookupMerge exercises parallel writers, readers, and
// mergers under -race: the training-time contract (per-shard write locks)
// must hold while production-style lookups run.
func TestConcurrentPutLookupMerge(t *testing.T) {
	c := NewSharded(seqabs.Concrete, 4)
	other := New(seqabs.Concrete)
	for i := 1; i <= 32; i++ {
		other.Put(distinctSeq(i), distinctSeq(i+100), commute.CondRegister)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 50; i++ {
				c.Put(distinctSeq(i%16+1), distinctSeq(i%16+200), commute.CondAlways)
				c.LookupDetail(distinctSeq(i%32+1), distinctSeq(i%32+100))
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
		a, b, d := New(seqabs.Abstract), New(seqabs.Abstract), New(seqabs.Abstract)
		a.Put(idPair("1"), idPair("2"), commute.CondAlways)
		a.Put(store, store, commute.CondRegister)
		b.Put(store, store, commute.CondStackIdentity) // conflicting non-Always kind
		b.Put(idPair("3"), idPair("4"), commute.CondRegister)
		d.Put(store, store, commute.CondAlways)
		return a, b, d
	}
	var dumps []string
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		a, b, d := build()
		caches := []*Cache{a, b, d}
		dst := New(seqabs.Abstract)
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
	c := New(seqabs.Abstract)
	store := []oplog.Sym{sym(adt.KindNumStore, "5")}
	c.LookupDetail(store, store) // miss
	c.Put(store, store, commute.CondRegister)
	c.LookupDetail(store, store) // now hits, but the key's first query missed
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
	c := New(seqabs.Abstract)
	store := []oplog.Sym{sym(adt.KindNumStore, "5")}
	c.Put(store, store, commute.CondRegister)
	if c.Frozen() {
		t.Fatal("new cache must not be frozen")
	}
	c.Freeze()
	if !c.Frozen() {
		t.Fatal("Freeze did not stick")
	}
	// Writes are dropped; reads and stats keep working.
	c.Put(idPair("1"), idPair("2"), commute.CondAlways)
	if c.Len() != 1 {
		t.Fatalf("Put on frozen cache must be a no-op; Len = %d", c.Len())
	}
	o := New(seqabs.Abstract)
	o.Put(idPair("1"), idPair("2"), commute.CondAlways)
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
	if conflict, _, hit := c.LookupDetail(store, store); !hit || conflict {
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
				c.LookupDetail(store, store)
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
	c := NewSharded(seqabs.Concrete, 4)
	// Seed one entry so the landed-writes assertion below can't lose the
	// race to Freeze on a single-core scheduler.
	c.Put(distinctSeq(1), distinctSeq(101), commute.CondAlways)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 100; i++ {
				c.Put(distinctSeq(i), distinctSeq(i+100), commute.CondAlways)
				c.LookupDetail(distinctSeq(i), distinctSeq(i+100))
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

func TestSaveLoadRoundTrip(t *testing.T) {
	src := New(seqabs.Abstract)
	store := []oplog.Sym{sym(adt.KindNumStore, "5")}
	src.Put(idPair("1"), idPair("2"), commute.CondAlways)
	src.Put(store, store, commute.CondRegister)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New(seqabs.Abstract)
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("loaded %d entries, want %d", dst.Len(), src.Len())
	}
	if dst.Dump() != src.Dump() {
		t.Fatalf("round trip changed contents:\n%s\nvs\n%s", dst.Dump(), src.Dump())
	}
	// Loaded conditions behave: identity hit, different stores conflict.
	if conflict, _, hit := dst.LookupDetail(idPair("9"), idPair("4")); !hit || conflict {
		t.Fatalf("loaded identity pair: conflict=%v hit=%v", conflict, hit)
	}
	store6 := []oplog.Sym{sym(adt.KindNumStore, "6")}
	if conflict, _, hit := dst.LookupDetail(store, store6); !hit || !conflict {
		t.Fatalf("loaded store pair: conflict=%v hit=%v", conflict, hit)
	}
}

func TestLoadRejectsModeMismatch(t *testing.T) {
	src := New(seqabs.Concrete)
	src.Put(idPair("1"), idPair("2"), commute.CondAlways)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New(seqabs.Abstract)
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatalf("mode mismatch must be rejected")
	}
	if dst.Len() != 0 {
		t.Fatalf("failed load must leave cache unchanged")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dst := New(seqabs.Abstract)
	for _, bad := range []string{
		"not json",
		`{"format":99,"mode":"abstract","entries":{}}`,
		`{"format":1,"mode":"abstract","entries":{"k":"bogus-kind"}}`,
	} {
		if err := dst.Load(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q must be rejected", bad)
		}
	}
	if dst.Len() != 0 {
		t.Fatalf("failed loads must leave cache unchanged")
	}
}

// saveSample saves a small cache and returns the artifact bytes.
func saveSample(t testing.TB) []byte {
	t.Helper()
	src := New(seqabs.Abstract)
	src.Put(idPair("1"), idPair("2"), commute.CondAlways)
	store := []oplog.Sym{sym(adt.KindNumStore, "5")}
	src.Put(store, store, commute.CondRegister)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSpecEnvelopeFields(t *testing.T) {
	raw := saveSample(t)
	var env map[string]any
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env["magic"] != "JANUS-SPEC" {
		t.Errorf("magic = %v", env["magic"])
	}
	if env["format"] != float64(2) {
		t.Errorf("format = %v", env["format"])
	}
	if env["mode"] != "abstract" {
		t.Errorf("mode = %v", env["mode"])
	}
	if s, ok := env["shards"].(float64); !ok || s < 1 {
		t.Errorf("shards = %v", env["shards"])
	}
	if _, ok := env["crc32"].(float64); !ok {
		t.Errorf("crc32 missing: %v", env["crc32"])
	}
}

// TestLoadRejectsBitFlip is the acceptance criterion: flipping any single
// payload bit must be caught by the checksum (or, if the flip breaks JSON
// syntax, by the parser) and reported as *SpecError, leaving the cache
// unchanged.
func TestLoadRejectsBitFlip(t *testing.T) {
	raw := saveSample(t)
	// Flip a bit inside the payload's entry data: find a key character
	// past the `"payload"` field start so the envelope metadata stays
	// intact and the corruption lands in checksummed bytes.
	at := bytes.Index(raw, []byte(`"entries"`))
	if at < 0 {
		t.Fatalf("no entries in artifact:\n%s", raw)
	}
	for _, flip := range []int{at + 12, at + 13, at + 14} {
		mut := append([]byte(nil), raw...)
		mut[flip] ^= 0x10
		dst := New(seqabs.Abstract)
		err := dst.Load(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("bit flip at %d not detected", flip)
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Fatalf("bit flip at %d: error %v is not *SpecError", flip, err)
		}
		if dst.Len() != 0 {
			t.Fatalf("rejected load changed the cache (%d entries)", dst.Len())
		}
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	raw := saveSample(t)
	dst := New(seqabs.Abstract)
	err := dst.Load(bytes.NewReader(raw[:len(raw)/2]))
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("truncated artifact: error %v is not *SpecError", err)
	}
}

func TestLoadSpecErrorReasons(t *testing.T) {
	bogus := `{"entries":{"k":"bogus-kind"}}`
	cases := []struct {
		in   string
		want SpecReason
	}{
		{`{"magic":"OTHER-SPEC","format":2,"mode":"abstract","crc32":0,"payload":{}}`, SpecBadMagic},
		{`{"magic":"JANUS-SPEC","format":9,"mode":"abstract","crc32":0,"payload":{}}`, SpecBadFormat},
		{`{"magic":"JANUS-SPEC","format":2,"mode":"concrete","crc32":0,"payload":{}}`, SpecModeMismatch},
		{`{"magic":"JANUS-SPEC","format":2,"mode":"abstract","crc32":1,"payload":{"entries":{}}}`, SpecBadChecksum},
		{`not json`, SpecBadPayload},
		{fmt.Sprintf(`{"magic":"JANUS-SPEC","format":2,"mode":"abstract","crc32":%d,"payload":%s}`,
			crc32.ChecksumIEEE([]byte(bogus)), bogus), SpecBadEntry},
	}
	for _, tc := range cases {
		dst := New(seqabs.Abstract)
		err := dst.Load(strings.NewReader(tc.in))
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("input %q: error %v is not *SpecError", tc.in, err)
			continue
		}
		if se.Reason != tc.want {
			t.Errorf("input %q: reason %v, want %v", tc.in, se.Reason, tc.want)
		}
	}
}

// TestLoadLegacyV1 pins that stripping the envelope does not bypass the
// checksum: a magic-less v1 document, which carries none, is rejected
// with a typed error and leaves the cache unchanged.
func TestLoadLegacyV1(t *testing.T) {
	dst := New(seqabs.Abstract)
	v1 := `{"format":1,"mode":"abstract","entries":{"num.add|num.add":"always"}}`
	err := dst.Load(strings.NewReader(v1))
	var se *SpecError
	if !errors.As(err, &se) || se.Reason != SpecBadMagic {
		t.Fatalf("magic-less v1 spec: %v, want *SpecError{SpecBadMagic}", err)
	}
	if dst.Len() != 0 {
		t.Fatalf("rejected load left %d entries in the cache", dst.Len())
	}
}

func TestLoadFrozenIsErrFrozenNotSpecError(t *testing.T) {
	raw := saveSample(t)
	dst := New(seqabs.Abstract)
	dst.Freeze()
	err := dst.Load(bytes.NewReader(raw))
	if !errors.Is(err, ErrFrozen) {
		t.Fatalf("frozen load: %v, want ErrFrozen", err)
	}
	var se *SpecError
	if errors.As(err, &se) {
		t.Fatalf("ErrFrozen must not be a *SpecError (contract violation, not artifact fault)")
	}
}
