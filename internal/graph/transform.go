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

// RemoveSelfLoops filters u->u edges in place and returns el.
func RemoveSelfLoops(el *EdgeList) *EdgeList {
	kept := el.Edges[:0]
	for _, e := range el.Edges {
		if e.U != e.V {
			kept = append(kept, e)
		}
	}
	el.Edges = kept
	return el
}

// Deduplicate removes duplicate (u,v) arcs, keeping the first occurrence.
// It sorts the edge list as a side effect.
func Deduplicate(workers int, el *EdgeList) *EdgeList {
	if len(el.Edges) == 0 {
		return el
	}
	parallel.SortFunc(workers, el.Edges, func(a, b Edge) bool {
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	kept := el.Edges[:1]
	for _, e := range el.Edges[1:] {
		last := kept[len(kept)-1]
		if e.U != last.U || e.V != last.V {
			kept = append(kept, e)
		}
	}
	el.Edges = kept
	return el
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

// Transpose returns the in-edge CSR (reverse of every arc).
func Transpose(workers int, g *CSR) *CSR {
	el := &EdgeList{N: g.N, Weighted: g.Weights != nil, Edges: make([]Edge, g.NumEdges())}
	parallel.For(workers, g.N, func(u int) {
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		for i := lo; i < hi; i++ {
			el.Edges[i] = Edge{U: g.Targets[i], V: NodeID(u), W: g.Weight(i)}
		}
	})
	return BuildCSR(workers, el)
}
