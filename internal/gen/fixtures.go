package gen

import "repro/internal/graph"

// Deterministic small fixture graphs used throughout the test suite.

// Path returns the path graph 0-1-2-...-(n-1) as n-1 edges.
func Path(n int) *graph.EdgeList {
	el := &graph.EdgeList{N: n}
	for v := 0; v+1 < n; v++ {
		el.Edges = append(el.Edges, graph.Edge{U: graph.NodeID(v), V: graph.NodeID(v + 1), W: 1})
	}
	return el
}

// Star returns the star with center 0 and n-1 leaves.
func Star(n int) *graph.EdgeList {
	el := &graph.EdgeList{N: n}
	for v := 1; v < n; v++ {
		el.Edges = append(el.Edges, graph.Edge{U: 0, V: graph.NodeID(v), W: 1})
	}
	return el
}

// TwoTriangles returns two disjoint triangles {0,1,2} and {3,4,5} joined
// by nothing — the smallest graph with two perfectly separable
// communities, used to sanity-check embedding quality.
func TwoTriangles() (*graph.EdgeList, []int32) {
	el := &graph.EdgeList{N: 6, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 3, W: 1},
	}}
	return el, []int32{0, 0, 0, 1, 1, 1}
}
