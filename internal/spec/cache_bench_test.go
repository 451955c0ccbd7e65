package spec

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
)

// BenchmarkLookupHit measures the production-path cost of a cached
// commutativity query — the cost §5.3 argues stays "on a par with
// write-set detection".
func BenchmarkLookupHit(b *testing.B) {
	c := New(Abstract, false)
	id := func(n int64) []oplog.Sym {
		return []oplog.Sym{
			{Kind: adt.KindNumAdd, N: n, Int: true}, {Kind: adt.KindNumAdd, N: -n, Int: true},
		}
	}
	putPair(c, id(1), id(2), condRegister)
	q1, q2 := id(7), id(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if conflict, _, hit := lookup(c, q1, q2); !hit || conflict {
			b.Fatal("unexpected result")
		}
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	c := New(Abstract, false)
	q1 := []oplog.Sym{{Kind: adt.KindNumStore, N: 1, Int: true}, {Kind: adt.KindNumLoad}}
	q2 := []oplog.Sym{{Kind: adt.KindNumAdd, N: 5, Int: true}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, hit := lookup(c, q1, q2); hit {
			b.Fatal("unexpected hit")
		}
	}
}

// lookupParallel hammers the cache with hit queries over a spread of keys
// from every worker — the access pattern of the detection loop at high
// thread counts. Concrete keys render the kind sequence, so varying the
// sequence lengths keeps the 64 key pairs distinct and spreads the load
// over the key space (and the shards).
func lookupParallel(b *testing.B, freeze bool) {
	c := New(Concrete, false)
	seq := func(n int) []oplog.Sym {
		out := make([]oplog.Sym, 0, 2*n)
		for i := 0; i < n; i++ {
			out = append(out,
				oplog.Sym{Kind: adt.KindNumAdd, N: int64(i + 1), Int: true},
				oplog.Sym{Kind: adt.KindNumAdd, N: int64(-i - 1), Int: true})
		}
		return out
	}
	queries := make([][2][]oplog.Sym, 64)
	for i := range queries {
		s1, s2 := seq(i%8+1), seq(i/8+1)
		putPair(c, s1, s2, condRegister)
		queries[i] = [2][]oplog.Sym{s1, s2}
	}
	if freeze {
		c.Freeze()
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := queries[i&(len(queries)-1)]
			i++
			if _, _, hit := lookup(c, q[0], q[1]); !hit {
				b.Fatal("unexpected miss")
			}
		}
	})
}

// BenchmarkLookupParallel measures contended lookups in production mode
// (frozen cache, lock-free entry reads). Run with -cpu 1,4,8 to see how
// lookup throughput scales.
func BenchmarkLookupParallel(b *testing.B) { lookupParallel(b, true) }

// BenchmarkLookupParallelTraining is the same load against an unfrozen
// cache, where lookups take the shard read lock.
func BenchmarkLookupParallelTraining(b *testing.B) { lookupParallel(b, false) }

func BenchmarkLookupStackIdentity(b *testing.B) {
	c := New(Abstract, false)
	bal := func(n int) []oplog.Sym {
		var out []oplog.Sym
		for i := 0; i < n; i++ {
			out = append(out,
				oplog.Sym{Kind: adt.KindListPush, N: int64(i), Int: true},
				oplog.Sym{Kind: adt.KindListPop})
		}
		return out
	}
	putPair(c, bal(2), bal(3), condStackIdentity)
	q1, q2 := bal(5), bal(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if conflict, _, hit := lookup(c, q1, q2); !hit || conflict {
			b.Fatal("unexpected result")
		}
	}
}
