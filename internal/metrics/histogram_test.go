package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// TestObserveBucketPlacement checks the le contract directly: a sample
// lands in the first bucket whose bound is >= the sample, boundary
// values inclusive.
func TestObserveBucketPlacement(t *testing.T) {
	bounds := []float64{1, 10, 100}
	h := NewHistogram(bounds)
	cases := []struct {
		v    float64
		cell int
	}{
		{0.5, 0}, {1, 0}, // on-boundary goes to the le bucket
		{1.0001, 1}, {10, 1},
		{11, 2}, {100, 2},
		{100.5, 3}, {1e9, 3}, // overflow cell
	}
	for _, c := range cases {
		before := h.Snapshot()
		h.Observe(c.v)
		after := h.Snapshot()
		for i := range after.Counts {
			want := before.Counts[i]
			if i == c.cell {
				want++
			}
			if after.Counts[i] != want {
				t.Fatalf("Observe(%g): cell %d went %d -> %d, want %d",
					c.v, i, before.Counts[i], after.Counts[i], want)
			}
		}
	}
	h.Observe(math.NaN())
	if got := h.Count(); got != int64(len(cases)) {
		t.Fatalf("NaN changed the count: %d", got)
	}
}

// TestHistogramPropertyQuantiles is the property test over random
// workloads: for log-spaced buckets and random samples, (a) every
// sample is counted exactly once in the bucket its value selects, and
// (b) the p50/p90/p99 estimates are within one bucket width of the
// exact-sort oracle.
func TestHistogramPropertyQuantiles(t *testing.T) {
	bounds := ExpBuckets(1e-4, 2, 22)
	r := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		h := NewHistogram(bounds)
		n := 100 + r.Intn(5000)
		samples := make([]float64, n)
		for i := range samples {
			// Log-uniform over ~the bucket span, plus occasional
			// overflow and exact-boundary values.
			v := 1e-4 * math.Pow(2, r.Float64()*21)
			switch r.Intn(20) {
			case 0:
				v = bounds[r.Intn(len(bounds))] // exact boundary
			case 1:
				v = bounds[len(bounds)-1] * 4 // overflow bucket
			}
			samples[i] = v
			h.Observe(v)
		}
		s := h.Snapshot()
		if s.Count != int64(n) {
			t.Fatalf("trial %d: count %d, want %d", trial, s.Count, n)
		}
		// (a) bucket placement: recompute the expected cells by brute
		// force.
		want := make([]int64, len(bounds)+1)
		for _, v := range samples {
			want[sort.SearchFloat64s(bounds, v)]++
		}
		for i := range want {
			if s.Counts[i] != want[i] {
				t.Fatalf("trial %d: cell %d has %d, want %d", trial, i, s.Counts[i], want[i])
			}
		}
		// (b) quantiles vs the sort oracle, within one bucket width.
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			oracle := sorted[int(q*float64(n-1))]
			est := s.Quantile(q)
			i := sort.SearchFloat64s(bounds, oracle)
			if i == len(bounds) {
				// Oracle in the unbounded overflow bucket: the estimate
				// clamps to the last finite bound by contract.
				if est != bounds[len(bounds)-1] {
					t.Fatalf("trial %d: q%.2f overflow estimate %g, want clamp to %g",
						trial, q, est, bounds[len(bounds)-1])
				}
				continue
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			width := bounds[i] - lo
			if math.Abs(est-oracle) > width {
				t.Fatalf("trial %d: q%.2f estimate %g vs oracle %g: off by more than the bucket width %g",
					trial, q, est, oracle, width)
			}
		}
	}
}

// TestHistogramConcurrentObserve drives parallel writers (under -race
// in CI) and checks no observation is lost: cells, count, and sum all
// reconcile exactly.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 10))
	const workers = 8
	const perWorker = 20_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.New(uint64(100 + id))
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(r.Intn(2048)))
				if i%64 == 0 {
					_ = h.Snapshot() // concurrent scrapes must not disturb writers
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("lost observations: count %d, want %d", s.Count, workers*perWorker)
	}
	var cells int64
	for _, c := range s.Counts {
		cells += c
	}
	if cells != workers*perWorker {
		t.Fatalf("cells sum to %d, want %d", cells, workers*perWorker)
	}
	if s.Sum < 0 || s.Sum > float64(workers*perWorker)*2048 {
		t.Fatalf("implausible sum %g", s.Sum)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	s := NewHistogram(ExpBuckets(1, 2, 4)).Snapshot()
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(100) // overflow only
	if got := h.Snapshot().Quantile(0.5); got != 4 {
		t.Fatalf("overflow-only quantile = %g, want the last finite bound 4", got)
	}
}
