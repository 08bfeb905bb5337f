package main

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/graph"
)

// The benchmark makes its own inputs: its generators and its random
// number stream live here, not in the repository's gen/xrand/labels
// packages, so a change to those packages can neither move a workload's
// inputs nor remove something the benchmark needs. The program under
// test receives only the generated edges, labels and request scripts.

// rng is SplitMix64: tiny, seedable per stream, and good enough for
// input generation.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ (stream+1)*0x9e3779b97f4a7c15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n) (multiply-shift; the bias of at most
// n/2^64 is irrelevant for input generation).
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// genChunk is the number of edges one generator stream produces; the
// chunking, not the goroutine count, fixes the output.
const genChunk = 1 << 16

// forChunks runs fn over [0, chunks) on at most loadWorkers goroutines.
func forChunks(chunks int, fn func(c int)) {
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := w; c < chunks; c += loadWorkers {
				fn(c)
			}
		}(w)
	}
	wg.Wait()
}

// rmatEdges samples m unit-weight edges from the R-MAT model with the
// Graph500 quadrant probabilities (0.57, 0.19, 0.19, 0.05) over
// 2^scale vertices and relabels the vertices by a random permutation,
// as internal/bench/specs.go does for its Table I stand-ins, so the
// generator's locality does not flatter the cache behaviour.
func rmatEdges(scale int, m int, seed uint64) []graph.Edge {
	n := 1 << scale
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	pr := newRNG(seed, 1<<40)
	for i := n - 1; i > 0; i-- {
		j := pr.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	// Cumulative quadrant thresholds on a 16-bit draw: four levels are
	// decided per 64-bit random word.
	const ta, tb, tc = 37356, 37356 + 12452, 37356 + 2*12452 // 0.57, 0.19, 0.19 of 65536
	edges := make([]graph.Edge, m)
	forChunks((m+genChunk-1)/genChunk, func(c int) {
		r := newRNG(seed, uint64(c))
		lo, hi := c*genChunk, min((c+1)*genChunk, m)
		for i := lo; i < hi; i++ {
			var u, v uint32
			var word uint64
			for level := 0; level < scale; level++ {
				if level%4 == 0 {
					word = r.next()
				}
				x := word & 0xffff
				word >>= 16
				// Quadrants, by the cumulative thresholds: [0,ta) neither
				// bit, [ta,tb) v, [tb,tc) u, [tc,65536) both. ge is
				// branch-free: the draws are unpredictable by design.
				u |= ge(x, tb) << level
				v |= (ge(x, ta) ^ ge(x, tb) ^ ge(x, tc)) << level
			}
			edges[i] = graph.Edge{U: perm[u], V: perm[v], W: 1}
		}
	})
	return edges
}

// ge is 1 when x >= t and 0 otherwise, for 1 <= t and x < 2^63.
func ge(x, t uint64) uint32 { return uint32((t - 1 - x) >> 63) }

// blockEdges samples m edges over n vertices with weights 1..4. A
// fraction blockFrac of them stays inside a planted block (u ≡ v mod
// k, the blocks roundRobinLabels plants), so the served embedding has
// the clustered structure an approximate-neighbour index needs.
func blockEdges(r *rng, n, k, m int, blockFrac float64) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		u := r.intn(n)
		v := r.intn(n)
		if r.float() < blockFrac {
			v = u%k + k*r.intn((n-1-u%k)/k+1)
		}
		edges[i] = graph.Edge{U: uint32(u), V: uint32(v), W: float32(r.intn(4) + 1)}
	}
	return edges
}

// sampledLabels labels round(frac·n) uniformly chosen vertices with a
// uniform class in [0, k); the rest stay unlabelled (-1).
func sampledLabels(n, k int, frac float64, seed uint64) []int32 {
	y := make([]int32, n)
	for i := range y {
		y[i] = -1
	}
	r := newRNG(seed, 1<<41)
	budget := int(math.Round(frac * float64(n)))
	for labelled := 0; labelled < budget; {
		v := r.intn(n)
		if y[v] < 0 {
			y[v] = int32(r.intn(k))
			labelled++
		}
	}
	return y
}

// roundRobinLabels labels the first round(frac·n) vertices v with
// class v mod k.
func roundRobinLabels(n, k int, frac float64) []int32 {
	y := make([]int32, n)
	budget := int(math.Round(frac * float64(n)))
	for v := range y {
		y[v] = -1
		if v < budget {
			y[v] = int32(v % k)
		}
	}
	return y
}
