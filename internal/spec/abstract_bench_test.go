package spec

import (
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/oplog"
)

// benchSeq builds a realistic mined sequence: balanced push/pop runs of
// varying payloads (the JFileSync monitor shape).
func benchSeq(pairs int) []oplog.Sym {
	out := make([]oplog.Sym, 0, 2*pairs+4)
	out = append(out,
		oplog.Sym{Kind: adt.KindListPush, N: 2, Int: true},
		oplog.Sym{Kind: adt.KindListPush, N: 9, Int: true},
	)
	for i := 0; i < pairs; i++ {
		out = append(out,
			oplog.Sym{Kind: adt.KindListPush, N: int64(i), Int: true},
			oplog.Sym{Kind: adt.KindListPop},
		)
	}
	out = append(out, oplog.Sym{Kind: adt.KindListPop}, oplog.Sym{Kind: adt.KindListPop})
	return out
}

func BenchmarkAbstract(b *testing.B) {
	for _, pairs := range []int{4, 16, 64} {
		seq := benchSeq(pairs)
		b.Run(strconv.Itoa(len(seq))+"ops", func(b *testing.B) {
			a := Abstract
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = keyOf(a, seq)
			}
		})
	}
}

func BenchmarkPairKey(b *testing.B) {
	a := Abstract
	s1, s2 := benchSeq(8), benchSeq(12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = pairKey(a, s1, s2)
	}
}

// BenchmarkConcreteKey is the no-abstraction baseline of Figure 11 — key
// rendering without collapse.
func BenchmarkConcreteKey(b *testing.B) {
	a := Concrete
	seq := benchSeq(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = keyOf(a, seq)
	}
}
