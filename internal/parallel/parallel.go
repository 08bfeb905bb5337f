// Package parallel provides the shared-memory parallel primitives that the
// rest of the repository is built on: grain-scheduled parallel for loops,
// reductions, prefix scans, histograms and a stable scatter (the
// placement pass of a parallel counting sort).
//
// It stands in for the Cilk-style work scheduler that Ligra uses in the
// original C++ implementation. The primitives are deliberately simple:
// static block partitioning with a configurable grain size, which matches
// the access patterns of the GEE kernels (dense, uniform edge maps) and
// keeps scheduling overhead predictable for strong-scaling experiments.
package parallel

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the minimum number of iterations assigned to a worker
// chunk when no explicit grain is requested. Small enough to load-balance
// skewed per-iteration costs (e.g. power-law vertex degrees), large enough
// to amortize goroutine scheduling.
const DefaultGrain = 1024

// Workers returns the effective worker count: w if w > 0, otherwise
// runtime.GOMAXPROCS(0).
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// For runs body(i) for every i in [0, n) using up to workers goroutines.
// workers <= 0 selects GOMAXPROCS. Iterations are distributed dynamically
// in grain-sized chunks so skewed iteration costs still balance.
func For(workers, n int, body func(i int)) {
	ForChunk(workers, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunk runs body(lo, hi) over disjoint chunks covering [0, n).
// grain <= 0 selects an automatic grain targeting ~4 chunks per worker.
// workers <= 0 selects GOMAXPROCS. Chunks are claimed dynamically from a
// shared atomic counter, which balances skewed chunk costs.
func ForChunk(workers, n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if grain <= 0 {
		grain = n / (4 * w)
		if grain < 1 {
			grain = 1
		}
		if grain > DefaultGrain {
			grain = DefaultGrain
		}
	}
	nChunks := (n + grain - 1) / grain
	if w > nChunks {
		w = nChunks
	}
	if w <= 1 {
		body(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// ForStatic runs body(worker, lo, hi) over exactly min(workers, n)
// contiguous, statically assigned ranges covering [0, n). Use it when the
// body needs a stable per-worker identity (e.g. private accumulation
// buffers indexed by worker).
func ForStatic(workers, n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	chunk := (n + w - 1) / w
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			lo := g * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if lo < hi {
				body(g, lo, hi)
			}
		}(g)
	}
	wg.Wait()
}

// Reduce computes combine over per-chunk partial results of f applied to
// disjoint ranges covering [0, n). identity must satisfy
// combine(identity, x) == x. combine must be associative; the combination
// order across chunks is deterministic (ascending worker index).
func Reduce[T any](workers, n int, identity T, f func(lo, hi int) T, combine func(a, b T) T) T {
	if n <= 0 {
		return identity
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		return combine(identity, f(0, n))
	}
	parts := make([]T, w)
	for i := range parts {
		// Seed with the identity: ForStatic's chunk rounding can leave
		// trailing workers without a range, and a zero-value partial is
		// wrong for non-additive reductions (e.g. a min).
		parts[i] = identity
	}
	ForStatic(w, n, func(g, lo, hi int) {
		parts[g] = f(lo, hi)
	})
	acc := identity
	for _, p := range parts {
		acc = combine(acc, p)
	}
	return acc
}

// Integer is the constraint for the scan/histogram helpers.
type Integer interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64
}

// ExclusiveSum replaces s with its exclusive prefix sum and returns the
// total. It is the core primitive for building CSR offsets. Runs in two
// parallel passes (per-block sums, then per-block rewrite).
func ExclusiveSum[T Integer](workers int, s []T) T {
	n := len(s)
	if n == 0 {
		return 0
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 || n < 4096 {
		var acc T
		for i := range s {
			v := s[i]
			s[i] = acc
			acc += v
		}
		return acc
	}
	blockSums := make([]T, w)
	chunk := (n + w - 1) / w
	ForStatic(w, n, func(g, lo, hi int) {
		var acc T
		for i := lo; i < hi; i++ {
			acc += s[i]
		}
		blockSums[g] = acc
	})
	var total T
	for g := range blockSums {
		v := blockSums[g]
		blockSums[g] = total
		total += v
	}
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		lo := g * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(g, lo, hi int) {
			defer wg.Done()
			acc := blockSums[g]
			for i := lo; i < hi; i++ {
				v := s[i]
				s[i] = acc
				acc += v
			}
		}(g, lo, hi)
	}
	wg.Wait()
	return total
}

// SplitByWeight partitions the index range [0, n) into parts contiguous
// ranges of roughly equal total weight, where prefix is the exclusive
// prefix-sum array of the per-index weights (len n+1, monotone,
// prefix[n] = total). It returns parts+1 monotone boundaries b with
// b[0] = 0 and b[parts] = n; ranges may be empty when a single index
// outweighs its fair share (e.g. a power-law hub vertex).
//
// This is the range-partition primitive behind the destination-sharded
// executor: handed a CSR's Offsets array (a degree prefix sum), it yields
// vertex ranges with balanced incident-arc counts rather than balanced
// vertex counts.
func SplitByWeight[T Integer](parts int, prefix []T) []int {
	n := len(prefix) - 1
	if n < 0 {
		panic("parallel: SplitByWeight needs a non-empty prefix array")
	}
	if parts < 1 {
		parts = 1
	}
	bounds := make([]int, parts+1)
	bounds[parts] = n
	total := prefix[n]
	lo := 0
	for p := 1; p < parts; p++ {
		// Smallest i with prefix[i] >= target, searched from the previous
		// boundary so boundaries stay monotone. Weights are counts, so the
		// uint64 product cannot overflow for any realistic m × parts.
		target := T(uint64(total) * uint64(p) / uint64(parts))
		i := sort.Search(n-lo, func(j int) bool { return prefix[lo+j] >= target }) + lo
		bounds[p] = i
		lo = i
	}
	return bounds
}

// RangeOf returns the index p of the range containing i under the
// boundary array returned by SplitByWeight: bounds[p] <= i < bounds[p+1].
// Empty ranges are skipped (the returned range always contains i).
func RangeOf(bounds []int, i int) int {
	// Largest p with bounds[p] <= i; sort.Search finds the first boundary
	// strictly above i.
	return sort.Search(len(bounds)-1, func(p int) bool { return bounds[p+1] > i })
}

// Histogram counts key(i) occurrences for i in [0, n) into buckets
// [0, nBuckets). Keys outside the range are ignored. Uses per-worker
// private counters merged at the end, so it is contention-free.
func Histogram(workers, n, nBuckets int, key func(i int) int) []int64 {
	out := make([]int64, nBuckets)
	for _, c := range countRanges(workers, n, nBuckets, key) {
		for b, v := range c {
			out[b] += v
		}
	}
	return out
}

// countRanges counts key(i) for i in [0, n) into buckets [0, nBuckets),
// one private count array per ForStatic range of min(workers, n)
// ranges (at least one), skipping keys outside the buckets. A range
// ForStatic's chunk rounding leaves empty keeps a nil array.
func countRanges(workers, n, nBuckets int, key func(i int) int) [][]int64 {
	counts := make([][]int64, max(1, min(Workers(workers), n)))
	ForStatic(len(counts), n, func(g, lo, hi int) {
		c := make([]int64, nBuckets)
		for i := lo; i < hi; i++ {
			if k := key(i); k >= 0 && k < nBuckets {
				c[k]++
			}
		}
		counts[g] = c
	})
	return counts
}

// StableScatter is the placement pass of a parallel stable counting
// sort of the items [0, n) by key(i), which must lie in [0, buckets).
// It counts the keys of each static ForStatic range, turns the counts
// into one absolute cursor per (range, bucket), and calls
// scatter(lo, hi, next) once per range, concurrently: for each i in
// [lo, hi), in order, scatter places item i at slot next[key(i)] of its
// destination and increments that cursor. The ranges' slots are
// disjoint, so the writes need no synchronisation, and bucket b fills
// [start[b], start[b+1]) with its items in index order at any worker
// count. It returns start (len buckets+1, start[buckets] = n).
func StableScatter(workers, n, buckets int, key func(i int) int, scatter func(lo, hi int, next []int64)) (start []int64) {
	counts := countRanges(workers, n, buckets, key)
	w := len(counts)
	start = make([]int64, buckets+1)
	ForChunk(w, buckets, DefaultGrain, func(lo, hi int) {
		for _, c := range counts {
			if c == nil {
				continue
			}
			for b := lo; b < hi; b++ {
				start[b] += c[b]
			}
		}
	})
	ExclusiveSum(w, start)
	// Within a bucket, range r's slots follow those of ranges 0..r-1.
	ForChunk(w, buckets, DefaultGrain, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			at := start[b]
			for _, c := range counts {
				if c != nil {
					c[b], at = at, at+c[b]
				}
			}
		}
	})
	ForStatic(w, n, func(g, lo, hi int) { scatter(lo, hi, counts[g]) })
	return start
}
