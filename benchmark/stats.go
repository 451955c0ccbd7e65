package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty sample.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// fastest is the smallest sample: the estimate of what a sequential step
// costs on an undisturbed machine. This sandbox shares its cores and the
// interference only ever adds time; over eight runs of heavy-txn in a
// noisy hour the mean Run moved by 19 % from run to run, the median by
// 16 %, the lower decile by 10 % and the fastest by 5 % (quartile spread
// over median). 0 for an empty sample.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with quartiles as Python's
// statistics.quantiles(xs, n=4) gives them (exclusive method) — the
// spread the driver computes. It needs at least two values.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k)*float64(len(s)+1)/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			lo = 0
		}
		if lo > len(s)-2 {
			lo = len(s) - 2
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / m)
}

// geomean is the geometric mean of the positive values in xs; 0 when
// none are positive.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0: the layer was not exercised.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
