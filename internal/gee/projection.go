package gee

import (
	"math"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// classCounts returns the per-class label counts (Algorithm 1's
// count(Y=k)) computed in parallel.
func classCounts(workers int, y []int32, k int) []int64 {
	return parallel.Histogram(workers, len(y), k, func(i int) int { return int(y[i]) })
}

// buildKernel assembles the exec kernel every implementation shares.
// Row v of the projection matrix W has one nonzero, W(v, Y(v)) =
// 1/count(Y=Y(v)), which depends on the class alone, so W is kept as K
// coefficients (Reference materializes the full n×K matrix instead).
// The labels are the kernel's classes, and the optional Laplacian degrees
// become the per-vertex scale 1/sqrt(d). The parallel count is Algorithm
// 2 lines 3-6, which the paper notes dominates on very low-degree graphs.
func buildKernel(workers int, y []int32, k int, deg []float64) exec.Kernel[float64] {
	cls := make([]float64, k)
	for c, n := range classCounts(workers, y, k) {
		if n > 0 {
			cls[c] = 1 / float64(n)
		}
	}
	return exec.NewKernel(k, y, cls, invSqrtDegrees(workers, deg))
}

// invSqrtDegrees maps incident degrees to the kernel scale 1/sqrt(d)
// (0 for empty vertices, preserving the zero-degree guard of
// laplacianScale). nil in, nil out.
func invSqrtDegrees(workers int, deg []float64) []float64 {
	if deg == nil {
		return nil
	}
	s := make([]float64, len(deg))
	parallel.For(workers, len(deg), func(i int) {
		if deg[i] > 0 {
			s[i] = 1 / math.Sqrt(deg[i])
		}
	})
	return s
}

// incidentDegreesEdgeList computes each vertex's total incident weight
// under edge-list semantics: every row (u, v, w) contributes w to both
// endpoints. This is the degree the Laplacian variant normalizes by.
func incidentDegreesEdgeList(el *graph.EdgeList) []float64 {
	d := make([]float64, el.N)
	for _, e := range el.Edges {
		d[e.U] += float64(e.W)
		d[e.V] += float64(e.W)
	}
	return d
}

// incidentDegreesCSR is incidentDegreesEdgeList over a CSR whose arcs are
// edge-list rows. Computed with per-worker private accumulators merged
// deterministically, so it is exact and race-free.
func incidentDegreesCSR(workers int, g *graph.CSR) []float64 {
	w := parallel.Workers(workers)
	partials := make([][]float64, w)
	parallel.ForStatic(w, g.N, func(worker, lo, hi int) {
		d := make([]float64, g.N)
		for u := lo; u < hi; u++ {
			for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
				wt := float64(g.Weight(i))
				d[u] += wt
				d[g.Targets[i]] += wt
			}
		}
		partials[worker] = d
	})
	out := make([]float64, g.N)
	for _, d := range partials {
		if d == nil {
			continue
		}
		for v, x := range d {
			out[v] += x
		}
	}
	return out
}
