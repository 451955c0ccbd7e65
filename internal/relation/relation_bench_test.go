package relation

import (
	"fmt"
	"testing"
)

func benchKeys(n int) ([]string, *Relation) {
	keys := make([]string, n)
	r := New()
	for i := range keys {
		keys[i] = fmt.Sprintf("loc-%d", i)
		r.Put(keys[i], "init")
	}
	return keys, r
}

func BenchmarkPut(b *testing.B) {
	keys, r := benchKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Clone().Put(keys[i%len(keys)], "x")
	}
}

func BenchmarkGet(b *testing.B) {
	keys, r := benchKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Get(keys[i%len(keys)]); !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkSnapshotVsDeepCopy contrasts the O(1) persistent snapshot
// against deep-copying a built-in map of the same size — the §4.1
// privatization trade-off.
func BenchmarkSnapshotVsDeepCopy(b *testing.B) {
	const n = 4096
	keys, r := benchKeys(n)
	gm := make(map[string]string, n)
	for _, k := range keys {
		gm[k] = "init"
	}
	b.Run("persistent-snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Clone().Put("loc-0", "x")
		}
	})
	b.Run("map-deep-copy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cp := make(map[string]string, len(gm))
			for k, v := range gm {
				cp[k] = v
			}
			cp["loc-0"] = "x"
		}
	})
}
