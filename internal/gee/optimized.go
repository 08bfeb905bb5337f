package gee

import (
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/mat"
)

// optimizedEmbed is the Numba-JIT analog (Table I "Numba Serial"): the
// same single pass over the edge list as Algorithm 1, but with the
// projection matrix compressed to one coefficient per class and flat
// row-major storage — exactly the loop a tracing JIT emits for the
// reference kernel. That loop is the shared serial exec kernel; serial
// by construction. Over a CSR, Optimized is LigraSerial's serial walk
// (EmbedCSR).
func optimizedEmbed(el *graph.EdgeList, y []int32, k int, opts Options) (*mat.Dense, error) {
	var deg []float64
	if opts.Laplacian {
		deg = incidentDegreesEdgeList(el)
	}
	kern := buildKernel(1, y, k, deg)
	z := mat.NewDense(el.N, k)
	if _, err := exec.SerialEdges(kern, el.Edges, el.N, z.Data); err != nil {
		return nil, err
	}
	return z, nil
}
