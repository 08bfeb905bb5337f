package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates linearly between the order statistics of
// an ascending sample, as numpy's default does.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantileSorted(sorted(xs), 0.5) }

// minBeyond is the number of samples that must lie beyond a reported
// percentile: with fewer, the percentile is set by one or two outliers
// and does not repeat.
const minBeyond = 10

// percentile returns the q-quantile of xs, and refuses when fewer than
// minBeyond samples lie beyond it (a p99 needs 1000 samples).
func percentile(xs []float64, q float64) (float64, error) {
	beyond := int(math.Floor(float64(len(xs))*(1-q) + 1e-9))
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples keeps %d beyond it, need %d", q*100, len(xs), beyond, minBeyond)
	}
	return quantileSorted(sorted(xs), q), nil
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75}

// tailPercentile reports the highest percentile of the ladder that the
// sample supports, and which one that was. A workload's operation count
// is fixed by its script, so its tail is always the same percentile.
func tailPercentile(xs []float64) (value, q float64, err error) {
	for _, q := range tailLadder {
		if v, err := percentile(xs, q); err == nil {
			return v, q, nil
		}
	}
	return 0, 0, fmt.Errorf("%d samples support no tail percentile (p%g needs %d)",
		len(xs), tailLadder[len(tailLadder)-1]*100, int(minBeyond/(1-tailLadder[len(tailLadder)-1])))
}

// pythonQuartiles returns the first and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive
// method), which is what the driver's spread check uses.
func pythonQuartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	at := func(i int) float64 { // i-th of 4 cut points
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the
// median: the steadiness statistic of the driver.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := pythonQuartiles(xs)
	return (q3 - q1) / median(xs)
}

// pairTimer times two alternatives as interleaved pairs. Which side
// runs first alternates from pair to pair, so neither always inherits
// the caches and the heap the other left behind, and the first warmup
// pairs are dropped.
type pairTimer struct {
	warmup int
	pairs  int
	// after, when set, runs untimed after every pair (warm-up pairs
	// included) with the pair's index, negative during warm-up.
	after func(pair int)
}

// run calls base and impl once per pair and returns their times in
// seconds, warm-up pairs excluded. Each function times itself; run only
// decides the order.
func (p pairTimer) run(base, impl func() float64) (tBase, tImpl []float64) {
	for i := 0; i < p.warmup+p.pairs; i++ {
		var b, m float64
		if i%2 == 0 {
			b = base()
			m = impl()
		} else {
			m = impl()
			b = base()
		}
		if i >= p.warmup {
			tBase = append(tBase, b)
			tImpl = append(tImpl, m)
		}
		if p.after != nil {
			p.after(i - p.warmup)
		}
	}
	return tBase, tImpl
}

// ratios divides pairwise.
func ratios(num, den []float64) []float64 {
	out := make([]float64, len(num))
	for i := range num {
		out[i] = num[i] / den[i]
	}
	return out
}
