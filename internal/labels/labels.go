// Package labels produces the class-label vector Y that GEE consumes.
//
// The paper's protocol (§IV): "We generated the Y labels uniformly at
// random from [0, K = 50] for 10% of nodes, which were also selected
// uniformly at random." SampleSemiSupervised reproduces that exactly.
// The paper also notes Y "may be derived from unsupervised clustering,
// such as by running the Leiden community detection algorithm";
// Propagation provides that role with synchronous label propagation
// (the documented Leiden substitute, DESIGN.md §3).
package labels

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// Unknown marks an unlabeled vertex in Y.
const Unknown int32 = -1

// SampleSemiSupervised returns Y of length n with exactly
// round(fraction*n) vertices labeled uniformly from [0, K) and the rest
// Unknown. Labeled vertices are a uniform random subset. Deterministic
// in seed.
func SampleSemiSupervised(n, k int, fraction float64, seed uint64) []int32 {
	if k <= 0 {
		panic(fmt.Sprintf("labels: k=%d must be positive", k))
	}
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("labels: fraction=%v out of [0,1]", fraction))
	}
	y := make([]int32, n)
	for i := range y {
		y[i] = Unknown
	}
	budget := int(fraction*float64(n) + 0.5)
	r := xrand.New(seed)
	// partial Fisher-Yates over vertex ids: the first `budget` draws are
	// a uniform subset
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	for i := 0; i < budget; i++ {
		j := i + r.Intn(n-i)
		ids[i], ids[j] = ids[j], ids[i]
		y[ids[i]] = int32(r.Intn(k))
	}
	return y
}

// Full returns Y with every vertex labeled uniformly from [0, K).
func Full(n, k int, seed uint64) []int32 {
	y := make([]int32, n)
	r := xrand.New(seed)
	for i := range y {
		y[i] = int32(r.Intn(k))
	}
	return y
}

// Validate checks that all labels are in [-1, k).
func Validate(y []int32, k int) error {
	for i, v := range y {
		if v < Unknown || int(v) >= k {
			return fmt.Errorf("labels: y[%d]=%d outside [-1,%d)", i, v, k)
		}
	}
	return nil
}

// Propagation runs synchronous label propagation on a symmetrized graph
// for at most rounds iterations: every vertex adopts the most frequent
// label among its neighbors (ties to the smallest label), starting from
// singleton labels. Returns a dense community labeling renumbered to
// [0,#communities). This is the repository's stand-in for Leiden as an
// unsupervised source of Y (see package comment).
func Propagation(workers int, g *graph.CSR, rounds int, seed uint64) []int32 {
	n := g.N
	cur := make([]int32, n)
	for i := range cur {
		cur[i] = int32(i)
	}
	next := make([]int32, n)
	for round := 0; round < rounds; round++ {
		var changed int64
		changed = parallel.Reduce(workers, n, int64(0), func(lo, hi int) int64 {
			var ch int64
			counts := map[int32]int{}
			for u := lo; u < hi; u++ {
				nbrs := g.Neighbors(graph.NodeID(u))
				if len(nbrs) == 0 {
					next[u] = cur[u]
					continue
				}
				clear(counts)
				for _, v := range nbrs {
					counts[cur[v]]++
				}
				best, bestCount := cur[u], 0
				for l, c := range counts {
					if c > bestCount || (c == bestCount && l < best) {
						best, bestCount = l, c
					}
				}
				next[u] = best
				if best != cur[u] {
					ch++
				}
			}
			return ch
		}, func(a, b int64) int64 { return a + b })
		cur, next = next, cur
		if changed == 0 {
			break
		}
	}
	return Relabel(cur)
}

// Relabel maps arbitrary non-negative label values to a dense [0, K)
// range preserving first-occurrence order; Unknown stays Unknown.
func Relabel(y []int32) []int32 {
	out := make([]int32, len(y))
	seen := map[int32]int32{}
	for i, v := range y {
		if v < 0 {
			out[i] = Unknown
			continue
		}
		id, ok := seen[v]
		if !ok {
			id = int32(len(seen))
			seen[v] = id
		}
		out[i] = id
	}
	return out
}
