package cluster

import (
	"math"
	"slices"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// Metric selects the distance for TopK.
type Metric int

const (
	// L2 is the Euclidean distance between embedding rows.
	L2 Metric = iota
	// Cosine is the cosine distance 1 − cos(a, b) ∈ [0, 2]. A zero row
	// has no direction; its distance to anything is defined as 1
	// (indifferent), so unembedded vertices neither attract nor repel.
	Cosine
)

// Neighbor is one TopK result: a row index and its distance to the
// query under the requested metric.
type Neighbor struct {
	V    int
	Dist float64
}

// TopK returns the k rows of X nearest to query under the metric,
// sorted by ascending distance (ties by ascending row id), excluding
// row `exclude` (pass a negative value to keep every row). Brute force:
// the matrix is streamed through the scan kernel, split across workers
// once it is large enough to pay for the fork (scanGrain); each worker
// maintains a k-bounded max-heap (partial selection — nothing sorts its
// whole range) and the survivors are merged at the end. This is the
// serving layer's exact nearest-neighbor read: index-free and
// O(nK/workers + k log k) per query against an immutable snapshot.
func TopK(workers int, X *mat.Dense, query []float64, k int, m Metric, exclude int) []Neighbor {
	if len(query) != X.C {
		panic("cluster: query width mismatch")
	}
	n := X.R
	if k <= 0 || n == 0 {
		return nil
	}
	// Normalize up front so an out-of-range Metric value behaves as the
	// documented default (L2) everywhere — including the final sqrt —
	// instead of silently returning squared distances.
	if m != Cosine {
		m = L2
	}
	q := newQuery(query, k, m, exclude)
	dim := X.C
	w := scanWorkers(workers, n)
	locals := make([][]Neighbor, w)
	parallel.ForStatic(w, n, func(worker, lo, hi int) {
		locals[worker] = q.scan(q.heap(hi-lo), X.Data[lo*dim:hi*dim], hi-lo, nil, nil, lo)
	})
	return finalizeNeighbors(locals, k, m)
}

// MergeNeighbors merges already-finalized per-partition result lists
// (as returned by TopK or IVF.Search over disjoint row sets) into one
// k-bounded list under the same order: ascending distance, ties by
// ascending id. The lists carry final distances — no metric parameter
// and no deferred sqrt — so this is the scatter-gather reduce of the
// sharded /v1/neighbors path: each shard ranks its owned rows, the
// router merges the partials with the same k-bounded heap.
func MergeNeighbors(k int, lists ...[]Neighbor) []Neighbor {
	if k <= 0 {
		return nil
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	h := make([]Neighbor, 0, min(k, total))
	for _, l := range lists {
		for _, nb := range l {
			h = pushNeighbor(h, k, nb)
		}
	}
	slices.SortFunc(h, compareNeighbors)
	return h
}

// finalizeNeighbors merges per-worker survivors into the final result:
// ascending sort, truncate to k, and the deferred sqrt for L2 (the
// heaps ran on squared distances).
func finalizeNeighbors(locals [][]Neighbor, k int, m Metric) []Neighbor {
	all := locals[0]
	for _, h := range locals[1:] {
		all = append(all, h...)
	}
	slices.SortFunc(all, compareNeighbors)
	if len(all) > k {
		all = all[:k]
	}
	if m == L2 {
		for i := range all {
			all[i].Dist = math.Sqrt(all[i].Dist)
		}
	}
	return all
}
