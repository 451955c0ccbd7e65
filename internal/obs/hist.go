package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the bucket count of a power-of-two latency histogram:
// bucket i counts samples with bits.Len64(ns) == i, so bucket boundaries
// double from 1ns up past 4 hours.
const histBuckets = 45

// Hist is a lock-free latency histogram with power-of-two buckets.
// Record is wait-free (two atomic adds); snapshots are approximate under
// concurrent writes, which is fine for monitoring.
type Hist struct {
	count atomic.Int64
	sum   atomic.Int64
	b     [histBuckets]atomic.Int64
}

// Record adds one duration sample in nanoseconds.
func (h *Hist) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.b[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// reset zeroes the histogram in place (atomics are not copyable).
func (h *Hist) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.b {
		h.b[i].Store(0)
	}
}

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 { return h.count.Load() }

// Mean returns the average sample in nanoseconds.
func (h *Hist) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) in
// nanoseconds: the upper edge of the bucket containing it.
func (h *Hist) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.b[i].Load()
		if seen > rank {
			if i == 0 {
				return 0
			}
			return int64(1)<<uint(i) - 1
		}
	}
	return int64(1)<<uint(histBuckets-1) - 1
}

// Snapshot returns the non-empty buckets as upper-bound → count, for
// expvar export.
func (h *Hist) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	for i := 0; i < histBuckets; i++ {
		if n := h.b[i].Load(); n > 0 {
			out[fmtNanos(int64(1)<<uint(i)-1)] = n
		}
	}
	return out
}

// String renders a one-line summary.
func (h *Hist) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s",
		h.Count(), fmtNanos(int64(h.Mean())),
		fmtNanos(h.Quantile(0.50)), fmtNanos(h.Quantile(0.95)), fmtNanos(h.Quantile(0.99)))
}

// fmtNanos renders nanoseconds with a human unit.
func fmtNanos(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
