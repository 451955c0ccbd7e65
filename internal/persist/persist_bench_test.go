package persist

import (
	"fmt"
	"testing"
)

func BenchmarkMapSet(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("loc-%d", i)
	}
	m := NewMap[int]()
	for i, k := range keys {
		m = m.Set(k, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Set(keys[i%len(keys)], i)
	}
}

func BenchmarkMapGet(b *testing.B) {
	keys := make([]string, 1024)
	m := NewMap[int]()
	for i := range keys {
		keys[i] = fmt.Sprintf("loc-%d", i)
		m = m.Set(keys[i], i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get(keys[i%len(keys)]); !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkMapSnapshotVsDeepCopy contrasts the O(1) persistent snapshot
// against deep-copying a built-in map of the same size — the §4.1
// privatization trade-off.
func BenchmarkMapSnapshotVsDeepCopy(b *testing.B) {
	const n = 4096
	pm := NewMap[int]()
	gm := make(map[string]int, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("loc-%d", i)
		pm = pm.Set(k, i)
		gm[k] = i
	}
	b.Run("persistent-snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap := pm // O(1): the version handle is the snapshot
			_ = snap.Set("loc-0", i)
		}
	})
	b.Run("map-deep-copy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cp := make(map[string]int, len(gm))
			for k, v := range gm {
				cp[k] = v
			}
			cp["loc-0"] = i
		}
	})
}
