package oplog

import (
	"strconv"
	"testing"

	"repro/internal/state"
)

// benchLog builds a large log: total single-access events spread over
// nLocs scalar locations.
func benchLog(nLocs, total int) Log {
	st := state.New()
	l := make(Log, 0, total)
	for i := 0; i < total; i++ {
		loc := state.Loc("l" + strconv.Itoa(i%nLocs))
		l = append(l, mkEvent(1, i, fakeAdd(loc), st))
	}
	return l
}

// BenchmarkDecomposerCrossover measures the first-pass (Index)
// crossover between the linear scan and the index maps, pinning each path
// in turn at equal input sizes by overriding linearScanAccesses. The
// interesting regime is many distinct locations (the scan's worst case:
// loc count ≈ access count); the fixture keeps locations = accesses/2 so
// half the finds are misses over a growing output slice. Used to tune
// the linearScanAccesses constant; see the comment there for the result.
func BenchmarkDecomposerCrossover(b *testing.B) {
	for _, total := range []int{16, 24, 32, 40, 48, 64, 96, 128, 256} {
		l := benchLog(total/2, total)
		b.Run("scan/"+strconv.Itoa(total), func(b *testing.B) {
			defer func(v int) { linearScanAccesses = v }(linearScanAccesses)
			linearScanAccesses = 1 << 30
			var d Decomposer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Decompose(l)
			}
		})
		b.Run("map/"+strconv.Itoa(total), func(b *testing.B) {
			defer func(v int) { linearScanAccesses = v }(linearScanAccesses)
			linearScanAccesses = 0
			var d Decomposer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Decompose(l)
			}
		})
	}
}
