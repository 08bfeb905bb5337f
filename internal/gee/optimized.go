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
// by construction.
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

// optimizedEmbedCSR runs the optimized serial kernel directly over CSR
// arcs (used by benchmarks and EmbedCSR to hold the input representation
// constant across implementations).
func optimizedEmbedCSR(g *graph.CSR, y []int32, k int, opts Options) (*mat.Dense, error) {
	var deg []float64
	if opts.Laplacian {
		deg = incidentDegreesCSR(1, g)
	}
	kern := buildKernel(1, y, k, deg)
	z := mat.NewDense(g.N, k)
	if _, err := exec.Run(exec.Serial, g, kern, z.Data, exec.Options{Workers: 1}); err != nil {
		return nil, err
	}
	return z, nil
}
