package graph

import "repro/internal/xrand"

// Symmetrize returns an edge list in which every edge {u,v} of el appears
// as both (u,v) and (v,u). Self loops are kept single. Use it to build the
// out-edge CSR of an undirected graph for neighbourhood-style algorithms
// (label propagation); the GEE kernels do NOT need it because
// Algorithm 1 already applies both endpoint updates per row.
func Symmetrize(el *EdgeList) *EdgeList {
	out := &EdgeList{N: el.N, Edges: make([]Edge, 0, 2*len(el.Edges))}
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
	out := &EdgeList{N: el.N, Edges: make([]Edge, len(el.Edges))}
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
