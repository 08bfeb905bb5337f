package gee

import (
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/mat"
)

// referenceEmbed is the faithful transcription of Algorithm 1
// (Semi-Supervised GEE) from the paper, computed the way the original
// interpreted implementation computes it:
//
//	W = zeros(n, K)                      // lines 2-6
//	for k in 0..K-1:
//	    idx = { v : Y[v] = k }
//	    W[idx, k] = 1 / count(Y = k)
//	for each edge (u, v, w):             // lines 7-12
//	    Z[u, Y[v]] += W[v, Y[v]] * w
//	    Z[v, Y[u]] += W[u, Y[u]] * w
//
// The full n×K projection matrix is materialized (that memory footprint
// is part of what the paper's Numba/Ligra versions eliminate) and every
// coefficient is read back through its 2-D index. The edge loop itself
// is the shared serial exec kernel over E — the same pass, applied in
// edge-list order on one worker. It is the correctness oracle for the
// optimized implementations.
func referenceEmbed(el *graph.EdgeList, y []int32, k int, opts Options) (*mat.Dense, error) {
	n := el.N
	// Lines 2-6: the literal projection matrix.
	w := referenceProjection(n, y, k)
	// The kernel coefficient of class c is W(v, c) of its vertices v, read
	// through the materialized matrix as Algorithm 1's inner loop does.
	cls := make([]float64, k)
	for v := 0; v < n; v++ {
		if c := y[v]; c >= 0 {
			cls[c] = w.At(v, int(c))
		}
	}
	var deg []float64
	if opts.Laplacian {
		deg = incidentDegreesEdgeList(el)
	}
	kern := exec.NewKernel(k, y, cls, invSqrtDegrees(1, deg))
	// Lines 7-12: single serial pass over the edge list.
	z := mat.NewDense(n, k)
	if _, err := exec.SerialEdges(kern, el.Edges, n, z.Data); err != nil {
		return nil, err
	}
	return z, nil
}

// referenceProjection exposes the full W matrix of Algorithm 1 lines 2-6
// for tests that check the projection construction in isolation.
func referenceProjection(n int, y []int32, k int) *mat.Dense {
	w := mat.NewDense(n, k)
	counts := make([]int64, k)
	for _, c := range y {
		if c >= 0 {
			counts[c]++
		}
	}
	for v := 0; v < n; v++ {
		if c := y[v]; c >= 0 && counts[c] > 0 {
			w.Set(v, int(c), 1/float64(counts[c]))
		}
	}
	return w
}
