package gee

import (
	"repro/internal/graph"
	"repro/internal/mat"
)

// EmbedCompressed runs the parallel GEE kernel directly over a Ligra+-
// style compressed graph: adjacency lists are varint-decoded on the fly
// inside the edge map, never materialized. This trades decode ALU work
// for 2-4x less adjacency memory traffic — on a kernel the paper argues
// is memory-bound, that trade is worth measuring (see the compression
// benchmarks). The per-arc math is the shared exec kernel applied with
// atomic adds (the decoder streams arcs with no ownership structure, so
// the atomic discipline is the only race-free one without bucketing).
// Unweighted graphs only (the compressed format carries no weights).
func EmbedCompressed(c *graph.CompressedCSR, y []int32, opts Options) (*Result, error) {
	k, err := opts.normalize(c.N, y)
	if err != nil {
		return nil, err
	}
	workers := opts.workers()
	var deg []float64
	if opts.Laplacian {
		// degrees from a streaming pass over the compressed arcs
		deg = make([]float64, c.N)
		c.ProcessEdges(1, func(u, v graph.NodeID) { // serial: plain adds
			deg[u]++
			deg[v]++
		})
	}
	kern := buildKernel(workers, y, k, deg)
	z := mat.NewDense(c.N, k)
	zd := z.Data
	c.ProcessEdges(workers, func(u, v graph.NodeID) {
		kern.ApplyAtomic(zd, u, v, 1)
	})
	// Impl enumerates execution disciplines, not graph representations:
	// this path runs the LigraParallel (atomic) discipline over the
	// compressed form, so that is what the result reports.
	return &Result{Z: z, K: k, Impl: LigraParallel}, nil
}
