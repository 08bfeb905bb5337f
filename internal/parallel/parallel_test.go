package parallel

import (
	"cmp"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 24} {
		for _, n := range []int{0, 1, 2, 3, 100, 1023, 1024, 1025, 100_000} {
			hit := make([]int32, n)
			For(workers, n, func(i int) { atomic.AddInt32(&hit[i], 1) })
			for i, h := range hit {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForChunkDisjointCoverage(t *testing.T) {
	for _, grain := range []int{0, 1, 3, 64, 10_000} {
		n := 12345
		hit := make([]int32, n)
		ForChunk(8, n, grain, func(lo, hi int) {
			if lo >= hi {
				t.Errorf("empty chunk [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hit[i], 1)
			}
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("grain=%d: index %d visited %d times", grain, i, h)
			}
		}
	}
}

func TestForChunkZeroAndNegativeN(t *testing.T) {
	called := false
	ForChunk(4, 0, 0, func(lo, hi int) { called = true })
	ForChunk(4, -5, 0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for n <= 0")
	}
}

func TestForStaticWorkerIdentity(t *testing.T) {
	n := 1000
	workers := 8
	owner := make([]int32, n)
	seen := make([]int32, workers)
	ForStatic(workers, n, func(g, lo, hi int) {
		atomic.AddInt32(&seen[g], 1)
		for i := lo; i < hi; i++ {
			atomic.StoreInt32(&owner[i], int32(g))
		}
	})
	for g := 0; g < workers; g++ {
		if seen[g] != 1 {
			t.Fatalf("worker %d invoked %d times", g, seen[g])
		}
	}
	// Static ranges must be contiguous and ascending by worker id.
	for i := 1; i < n; i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("non-monotone ownership at %d: %d then %d", i, owner[i-1], owner[i])
		}
	}
}

func TestForStaticMoreWorkersThanItems(t *testing.T) {
	var count atomic.Int64
	ForStatic(64, 3, func(g, lo, hi int) {
		count.Add(int64(hi - lo))
	})
	if count.Load() != 3 {
		t.Fatalf("covered %d items, want 3", count.Load())
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{0, 1, 10, 1000, 123_457} {
		got := Reduce(8, n, int64(0), func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			return s
		}, func(a, b int64) int64 { return a + b })
		want := int64(n) * int64(n-1) / 2
		if n == 0 {
			want = 0
		}
		if got != want {
			t.Fatalf("n=%d: got %d want %d", n, got, want)
		}
	}
}

func TestReduceMax(t *testing.T) {
	vals := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 97, 2}
	got := Reduce(4, len(vals), -1, func(lo, hi int) int {
		m := -1
		for i := lo; i < hi; i++ {
			if vals[i] > m {
				m = vals[i]
			}
		}
		return m
	}, func(a, b int) int {
		if a > b {
			return a
		}
		return b
	})
	if got != 97 {
		t.Fatalf("got %d want 97", got)
	}
}

// TestReduceMinIdentityWithSkippedWorkers is a regression test: when n
// is not divisible by the worker count, ForStatic's chunk rounding can
// leave trailing workers without a range, and their partials must be
// the identity — not the zero value, which would poison a min.
func TestReduceMinIdentityWithSkippedWorkers(t *testing.T) {
	// n=9, workers=8: chunk=2, workers 5-7 get no range.
	const n = 9
	got := Reduce(8, n, n, func(lo, hi int) int {
		return n // nothing found in any chunk
	}, func(a, b int) int {
		if b < a {
			return b
		}
		return a
	})
	if got != n {
		t.Fatalf("min-reduce with skipped workers: got %d want %d", got, n)
	}
}

func TestExclusiveSumSmall(t *testing.T) {
	s := []int64{3, 1, 4, 1, 5}
	total := ExclusiveSum(4, s)
	want := []int64{0, 3, 4, 8, 9}
	if total != 14 {
		t.Fatalf("total=%d want 14", total)
	}
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("s[%d]=%d want %d", i, s[i], want[i])
		}
	}
}

func TestExclusiveSumEmpty(t *testing.T) {
	if got := ExclusiveSum(4, []int64(nil)); got != 0 {
		t.Fatalf("empty scan total = %d", got)
	}
}

func TestExclusiveSumMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 5, 4095, 4096, 4097, 100_003} {
		orig := make([]int64, n)
		for i := range orig {
			orig[i] = int64(rng.Intn(100))
		}
		serial := make([]int64, n)
		copy(serial, orig)
		var acc int64
		for i := range serial {
			v := serial[i]
			serial[i] = acc
			acc += v
		}
		par := make([]int64, n)
		copy(par, orig)
		total := ExclusiveSum(8, par)
		if total != acc {
			t.Fatalf("n=%d: total %d want %d", n, total, acc)
		}
		for i := range par {
			if par[i] != serial[i] {
				t.Fatalf("n=%d: par[%d]=%d want %d", n, i, par[i], serial[i])
			}
		}
	}
}

func TestExclusiveSumUint32(t *testing.T) {
	s := []uint32{1, 2, 3}
	if total := ExclusiveSum(2, s); total != 6 {
		t.Fatalf("total=%d", total)
	}
	if s[0] != 0 || s[1] != 1 || s[2] != 3 {
		t.Fatalf("scan=%v", s)
	}
}

func TestHistogram(t *testing.T) {
	n := 10_000
	keys := make([]int, n)
	rng := rand.New(rand.NewSource(7))
	want := make([]int64, 13)
	for i := range keys {
		keys[i] = rng.Intn(15) - 1 // includes out-of-range -1 and 13, 14
		if keys[i] >= 0 && keys[i] < 13 {
			want[keys[i]]++
		}
	}
	got := Histogram(8, n, 13, func(i int) int { return keys[i] })
	for b := range want {
		if got[b] != want[b] {
			t.Fatalf("bucket %d: got %d want %d", b, got[b], want[b])
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	got := Histogram(4, 0, 5, func(i int) int { t.Fatal("key called"); return 0 })
	for _, v := range got {
		if v != 0 {
			t.Fatal("nonzero bucket for empty input")
		}
	}
}

// TestStableScatterMatchesStableSort places random keys with
// StableScatter and compares the placement, item for item, with a
// stable sort of the indices by key, at worker counts from GOMAXPROCS
// (workers 0, which go test -cpu varies) to more workers than items.
func TestStableScatterMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 3, 9, 1000, 70_000} {
		for _, buckets := range []int{1, 5, 3000} {
			keys := make([]int, n)
			for i := range keys {
				keys[i] = rng.Intn(buckets)
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
			for _, workers := range []int{0, 1, 2, 3, 4, 8, 64} {
				got := make([]int, n)
				start := StableScatter(workers, n, buckets, func(i int) int { return keys[i] },
					func(lo, hi int, next []int64) {
						for i := lo; i < hi; i++ {
							got[next[keys[i]]] = i
							next[keys[i]]++
						}
					})
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d buckets=%d workers=%d: placement differs from the stable sort", n, buckets, workers)
				}
				if len(start) != buckets+1 || start[0] != 0 || start[buckets] != int64(n) {
					t.Fatalf("n=%d buckets=%d workers=%d: start %v..%v, want %d entries from 0 to n", n, buckets, workers, start[0], start[len(start)-1], buckets+1)
				}
				for b := 0; b < buckets; b++ {
					for j := start[b]; j < start[b+1]; j++ {
						if keys[got[j]] != b {
							t.Fatalf("n=%d buckets=%d workers=%d: slot %d holds key %d, in bucket %d", n, buckets, workers, j, keys[got[j]], b)
						}
					}
				}
			}
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(5) != 5 {
		t.Fatal("explicit workers not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("default workers must be >= 1")
	}
}

func TestReducePropertySumEqualsSerial(t *testing.T) {
	f := func(vals []int32) bool {
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		got := Reduce(6, len(vals), int64(0), func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(vals[i])
			}
			return s
		}, func(a, b int64) int64 { return a + b })
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitByWeightBalancesSkewedWeights(t *testing.T) {
	// Power-law-ish weights: one heavy index among many light ones.
	weights := make([]int64, 1000)
	for i := range weights {
		weights[i] = 1
	}
	weights[17] = 5000
	prefix := make([]int64, len(weights)+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	for _, parts := range []int{1, 2, 3, 7, 16} {
		bounds := SplitByWeight(parts, prefix)
		if len(bounds) != parts+1 || bounds[0] != 0 || bounds[parts] != len(weights) {
			t.Fatalf("parts=%d: bounds=%v", parts, bounds)
		}
		total := prefix[len(weights)]
		fair := total / int64(parts)
		for p := 0; p < parts; p++ {
			if bounds[p] > bounds[p+1] {
				t.Fatalf("parts=%d: non-monotone bounds %v", parts, bounds)
			}
			got := prefix[bounds[p+1]] - prefix[bounds[p]]
			// Each range holds at most its fair share plus one item's
			// weight (the indivisible heavy index).
			if got > fair+5000 {
				t.Fatalf("parts=%d range %d: weight %d over fair share %d", parts, p, got, fair)
			}
		}
	}
}

func TestSplitByWeightEdgeCases(t *testing.T) {
	// Empty range.
	bounds := SplitByWeight(4, []int64{0})
	if len(bounds) != 5 || bounds[4] != 0 {
		t.Fatalf("empty: %v", bounds)
	}
	// Zero total weight: all boundaries collapse but cover [0, n).
	bounds = SplitByWeight(3, []int64{0, 0, 0})
	if bounds[0] != 0 || bounds[3] != 2 {
		t.Fatalf("zero-weight: %v", bounds)
	}
	// parts < 1 clamps to 1.
	bounds = SplitByWeight(0, []int64{0, 3, 9})
	if len(bounds) != 2 || bounds[1] != 2 {
		t.Fatalf("clamped: %v", bounds)
	}
}

func TestRangeOfLocatesEveryIndex(t *testing.T) {
	prefix := []int64{0, 4, 4, 10, 11, 20}
	for _, parts := range []int{1, 2, 3, 5} {
		bounds := SplitByWeight(parts, prefix)
		for i := 0; i < 5; i++ {
			p := RangeOf(bounds, i)
			if p < 0 || p >= parts || bounds[p] > i || i >= bounds[p+1] {
				t.Fatalf("parts=%d i=%d: p=%d bounds=%v", parts, i, p, bounds)
			}
		}
	}
}
