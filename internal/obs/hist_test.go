package obs

import (
	"math/bits"
	"testing"
)

// TestHistBucketAssignment pins the power-of-two bucketing: a sample of
// ns nanoseconds lands in bucket bits.Len64(ns), whose upper edge is
// 2^i - 1.
func TestHistBucketAssignment(t *testing.T) {
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1000, 10},    // 2^9 = 512 ≤ 1000 < 1024 = 2^10
		{1 << 20, 21}, // exact powers of two open a new bucket
		{-5, 0},       // negative samples clamp to 0
	}
	for _, c := range cases {
		var h Hist
		h.Record(c.ns)
		for i := 0; i < histBuckets; i++ {
			want := int64(0)
			if i == c.bucket {
				want = 1
			}
			if got := h.b[i].Load(); got != want {
				t.Errorf("Record(%d): bucket %d = %d, want %d", c.ns, i, got, want)
			}
		}
	}
	// The clamp: a sample past the top bucket's range stays in-range.
	var h Hist
	huge := int64(1) << 62
	if bits.Len64(uint64(huge)) < histBuckets {
		t.Fatalf("test sample %d does not exceed the bucket range", huge)
	}
	h.Record(huge)
	if got := h.b[histBuckets-1].Load(); got != 1 {
		t.Errorf("oversized sample must clamp into the top bucket, got count %d", got)
	}
}

// TestHistQuantile checks the bucket → quantile math on hand-computed
// distributions: Quantile returns the upper edge 2^i - 1 of the bucket
// holding the rank-⌊q·n⌋ sample.
func TestHistQuantile(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var h Hist
		if got := h.Quantile(0.5); got != 0 {
			t.Errorf("empty histogram p50 = %d, want 0", got)
		}
	})

	t.Run("uniform-spread", func(t *testing.T) {
		// 100 samples: 50 in bucket 4 (values 8..15), 45 in bucket 7
		// (64..127), 5 in bucket 11 (1024..2047).
		var h Hist
		for i := 0; i < 50; i++ {
			h.Record(10)
		}
		for i := 0; i < 45; i++ {
			h.Record(100)
		}
		for i := 0; i < 5; i++ {
			h.Record(2000)
		}
		// rank(0.50) = 50 → first bucket with cumulative > 50 is bucket 7.
		if got, want := h.Quantile(0.50), int64(127); got != want {
			t.Errorf("p50 = %d, want %d", got, want)
		}
		// rank(0.49) = 49 → still inside bucket 4's cumulative 50.
		if got, want := h.Quantile(0.49), int64(15); got != want {
			t.Errorf("p49 = %d, want %d", got, want)
		}
		// rank(0.95) = 95 → cumulative 95 not > 95: the 5 tail samples in
		// bucket 11 hold ranks 95..99.
		if got, want := h.Quantile(0.95), int64(2047); got != want {
			t.Errorf("p95 = %d, want %d", got, want)
		}
		if got, want := h.Quantile(0.99), int64(2047); got != want {
			t.Errorf("p99 = %d, want %d", got, want)
		}
		// q=1 caps the rank at n-1 instead of walking off the end.
		if got, want := h.Quantile(1.0), int64(2047); got != want {
			t.Errorf("p100 = %d, want %d", got, want)
		}
	})

	t.Run("all-zero", func(t *testing.T) {
		var h Hist
		for i := 0; i < 10; i++ {
			h.Record(0)
		}
		if got := h.Quantile(0.99); got != 0 {
			t.Errorf("all-zero p99 = %d, want 0 (bucket 0 reports edge 0)", got)
		}
	})

	t.Run("single-sample", func(t *testing.T) {
		var h Hist
		h.Record(1_000_000) // bucket 20, edge 2^20-1
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got, want := h.Quantile(q), int64(1<<20-1); got != want {
				t.Errorf("Quantile(%v) = %d, want %d", q, got, want)
			}
		}
	})
}

// TestHistVarsQuantiles checks the expvar export carries the derived
// quantiles next to the raw buckets for every published span type.
func TestHistVarsQuantiles(t *testing.T) {
	tr := NewTrace(16)
	tr.Emit(Event{Type: EvTxRun, When: 0, Dur: 1000, Worker: 0, Task: 1})
	tr.Emit(Event{Type: EvTxBackoff, When: 0, Dur: 500, Worker: 0, Task: 1})
	vars := tr.Vars()
	hists, ok := vars["hist"].(map[string]any)
	if !ok {
		t.Fatalf("Vars()[hist] missing or mistyped: %T", vars["hist"])
	}
	for _, name := range []string{EvTxRun.String(), EvTxBackoff.String()} {
		entry, ok := hists[name].(map[string]any)
		if !ok {
			t.Fatalf("hist[%q] missing: have %v", name, hists)
		}
		for _, key := range []string{"count", "mean_ns", "p50_ns", "p95_ns", "p99_ns", "buckets"} {
			if _, ok := entry[key]; !ok {
				t.Errorf("hist[%q] lacks %q", name, key)
			}
		}
	}
}
