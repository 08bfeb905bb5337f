// Package graph provides the graph substrate for the GEE reproduction:
// edge lists, a compressed sparse row (CSR) representation with a parallel
// builder, statistics, and file I/O in three formats:
// SNAP edge list, Ligra AdjacencyGraph and a binary CSR.
//
// Node identifiers are uint32 (supports up to ~4.29B nodes); edge counts
// and CSR offsets are int64 so billion-edge graphs index correctly.
package graph

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/parallel"
)

// NodeID identifies a vertex. Vertices are dense integers [0, N).
type NodeID = uint32

// Edge is one row of the paper's edge list E ∈ R^{s×3}: source, target,
// weight. Unweighted graphs carry unit weights.
type Edge struct {
	U, V NodeID
	W    float32
}

// EdgeList is the paper's input representation (Algorithm 1 consumes it
// directly). Each logical edge appears exactly once; GEE's kernel applies
// both endpoint updates per row, so undirected graphs need no
// symmetrization at this layer. An edge's W is its weight, 1 when the
// source gave none; it is the only record of the weight.
type EdgeList struct {
	N     int    // number of vertices
	Edges []Edge // s rows
}

// NumEdges returns s.
func (el *EdgeList) NumEdges() int { return len(el.Edges) }

// Validate checks that every endpoint is within [0, N) and every
// weight is finite.
func (el *EdgeList) Validate() error {
	if el.N < 0 {
		return fmt.Errorf("graph: negative vertex count %d", el.N)
	}
	n := uint32(el.N)
	for i, e := range el.Edges {
		if e.U >= n || e.V >= n {
			return fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, e.U, e.V, el.N)
		}
		if !finite(e.W) {
			return fmt.Errorf("graph: edge %d (%d->%d) has weight %v", i, e.U, e.V, e.W)
		}
	}
	return nil
}

// finite reports whether w is neither NaN nor ±Inf.
func finite(w float32) bool { return !math.IsNaN(float64(w)) && !math.IsInf(float64(w), 0) }

// FirstInvalidEdge returns the index of the first edge whose endpoint
// falls outside [0, n), or -1 when every edge is valid. The scan is
// chunked across workers, so validating a large ingest batch is not a
// serial pre-pass in front of a parallel kernel; the reported index is
// the smallest one, matching the serial scan.
func FirstInvalidEdge(workers, n int, edges []Edge) int {
	limit := uint32(n)
	bad := parallel.Reduce(workers, len(edges), len(edges), func(lo, hi int) int {
		for i := lo; i < hi; i++ {
			if edges[i].U >= limit || edges[i].V >= limit {
				return i
			}
		}
		return len(edges)
	}, func(a, b int) int {
		if b < a {
			return b
		}
		return a
	})
	if bad == len(edges) {
		return -1
	}
	return bad
}

// Clone deep-copies the edge list.
func (el *EdgeList) Clone() *EdgeList {
	out := &EdgeList{N: el.N, Edges: make([]Edge, len(el.Edges))}
	copy(out.Edges, el.Edges)
	return out
}

// CSR is a compressed sparse row graph over the out-edges of each vertex:
// the arcs of vertex u are Targets[Offsets[u]:Offsets[u+1]] (and the
// matching Weights range when weighted). This is the representation
// the GEE edge map (exec.walk) traverses. Its arcs are immutable once
// BuildCSR (or a reader) returns it.
type CSR struct {
	N       int
	Offsets []int64   // len N+1
	Targets []NodeID  // len M
	Weights []float32 // len M, nil for unweighted graphs

	// plan caches a derived execution structure on the graph (the
	// destination-shard plan of internal/exec). The arcs never change,
	// so the cache survives for the graph's lifetime and repeated runs
	// skip the O(m) derivation. Access is atomic.
	plan atomic.Pointer[planBox]
}

// planBox wraps the cached plan so heterogeneous plan types can share
// the one atomic slot.
type planBox struct{ v any }

// CachePlan stores an opaque derived execution plan on the graph,
// replacing any previous one. The cached value must be safe for
// concurrent use by multiple readers.
func (g *CSR) CachePlan(p any) { g.plan.Store(&planBox{v: p}) }

// CachedPlan returns the plan stored by CachePlan, or nil.
func (g *CSR) CachedPlan() any {
	if b := g.plan.Load(); b != nil {
		return b.v
	}
	return nil
}

// NumEdges returns the number of stored arcs.
func (g *CSR) NumEdges() int64 { return int64(len(g.Targets)) }

// Degree returns the out-degree of u.
func (g *CSR) Degree(u NodeID) int64 { return g.Offsets[u+1] - g.Offsets[u] }

// Neighbors returns the adjacency slice of u (aliases internal storage).
func (g *CSR) Neighbors(u NodeID) []NodeID {
	return g.Targets[g.Offsets[u]:g.Offsets[u+1]]
}

// Weight returns the weight of arc index i (1 for unweighted graphs).
func (g *CSR) Weight(i int64) float32 {
	if g.Weights == nil {
		return 1
	}
	return g.Weights[i]
}

// Validate checks structural invariants: monotone offsets covering
// exactly len(Targets), in-range targets and finite weights.
func (g *CSR) Validate() error {
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("graph: offsets length %d, want N+1=%d", len(g.Offsets), g.N+1)
	}
	if g.N > 0 && g.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0]=%d, want 0", g.Offsets[0])
	}
	for u := 0; u < g.N; u++ {
		if g.Offsets[u+1] < g.Offsets[u] {
			return fmt.Errorf("graph: offsets not monotone at %d", u)
		}
	}
	if g.N >= 0 && len(g.Offsets) > 0 && g.Offsets[g.N] != int64(len(g.Targets)) {
		return fmt.Errorf("graph: offsets end %d != %d targets", g.Offsets[g.N], len(g.Targets))
	}
	if g.Weights != nil && len(g.Weights) != len(g.Targets) {
		return fmt.Errorf("graph: %d weights for %d targets", len(g.Weights), len(g.Targets))
	}
	n := uint32(g.N)
	for i, v := range g.Targets {
		if v >= n {
			return fmt.Errorf("graph: target %d at arc %d out of range", v, i)
		}
	}
	for i, w := range g.Weights {
		if !finite(w) {
			return fmt.Errorf("graph: arc %d has weight %v", i, w)
		}
	}
	return nil
}

// BuildCSR constructs the CSR form of el in parallel, as a stable
// counting sort of the edges by source (parallel.StableScatter): each
// row's arcs keep edge-list order, so the CSR is the same at every
// worker count. workers <= 0 selects GOMAXPROCS. The CSR carries
// Weights unless every W is 1.
func BuildCSR(workers int, el *EdgeList) *CSR {
	m := len(el.Edges)
	g := &CSR{N: el.N, Targets: make([]NodeID, m)}
	if !unitWeights(workers, el.Edges) {
		g.Weights = make([]float32, m)
	}
	g.Offsets = parallel.StableScatter(workers, m, el.N, func(i int) int { return int(el.Edges[i].U) },
		func(lo, hi int, next []int64) {
			for _, e := range el.Edges[lo:hi] {
				slot := next[e.U]
				next[e.U]++
				g.Targets[slot] = e.V
				if g.Weights != nil {
					g.Weights[slot] = e.W
				}
			}
		})
	return g
}

// unitWeights reports whether every edge's W is 1, scanning in parallel.
func unitWeights(workers int, edges []Edge) bool {
	return parallel.Reduce(workers, len(edges), true, func(lo, hi int) bool {
		for _, e := range edges[lo:hi] {
			if e.W != 1 {
				return false
			}
		}
		return true
	}, func(a, b bool) bool { return a && b })
}

// ToEdgeList expands the CSR back to an edge list (arc per row, in CSR
// order).
func (g *CSR) ToEdgeList() *EdgeList {
	el := &EdgeList{N: g.N, Edges: make([]Edge, g.NumEdges())}
	for u := 0; u < g.N; u++ {
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		for i := lo; i < hi; i++ {
			el.Edges[i] = Edge{U: NodeID(u), V: g.Targets[i], W: g.Weight(i)}
		}
	}
	return el
}
