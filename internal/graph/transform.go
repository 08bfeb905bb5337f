package graph

import (
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// Symmetrize returns an edge list in which every edge {u,v} of el appears
// as both (u,v) and (v,u). Self loops are kept single. Use it to build the
// out-edge CSR of an undirected graph for neighbourhood-style algorithms
// (label propagation); the GEE kernels do NOT need it because
// Algorithm 1 already applies both endpoint updates per row.
func Symmetrize(el *EdgeList) *EdgeList {
	out := &EdgeList{N: el.N, Weighted: el.Weighted, Edges: make([]Edge, 0, 2*len(el.Edges))}
	for _, e := range el.Edges {
		out.Edges = append(out.Edges, e)
		if e.U != e.V {
			out.Edges = append(out.Edges, Edge{U: e.V, V: e.U, W: e.W})
		}
	}
	return out
}

// Permute relabels vertices by perm (node i becomes perm[i]) and returns
// a new edge list. Useful for cache-behaviour experiments: a random
// permutation destroys any locality in generated IDs.
func Permute(el *EdgeList, perm []NodeID) *EdgeList {
	out := &EdgeList{N: el.N, Weighted: el.Weighted, Edges: make([]Edge, len(el.Edges))}
	for i, e := range el.Edges {
		out.Edges[i] = Edge{U: perm[e.U], V: perm[e.V], W: e.W}
	}
	return out
}

// RandomPermutation returns a uniform random relabeling of n vertices.
func RandomPermutation(n int, seed uint64) []NodeID {
	r := xrand.New(seed)
	p := make([]NodeID, n)
	for i := range p {
		p[i] = NodeID(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// SortAdjacency sorts each vertex's adjacency (and matching weights) by
// target id, giving the CSR a canonical form independent of scatter
// interleaving.
func SortAdjacency(workers int, g *CSR) {
	g.InvalidatePlan() // arc order changes; any cached plan is stale
	parallel.For(workers, g.N, func(u int) {
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		if hi-lo < 2 {
			return
		}
		if g.Weights == nil {
			insertionSortIDs(g.Targets[lo:hi])
			return
		}
		insertionSortPairs(g.Targets[lo:hi], g.Weights[lo:hi])
	})
}

// insertionSortIDs sorts small adjacency slices; vertex degrees in the
// benchmark graphs are modest per-list, and insertion sort avoids
// interface overhead in this hot path.
func insertionSortIDs(a []NodeID) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func insertionSortPairs(a []NodeID, w []float32) {
	for i := 1; i < len(a); i++ {
		v, vw := a[i], w[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1], w[j+1] = a[j], w[j]
			j--
		}
		a[j+1], w[j+1] = v, vw
	}
}
