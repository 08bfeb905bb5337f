package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// oracle is the benchmark's frozen reference: scalar Algorithm 1 of the
// paper over arrays the benchmark built itself. Its timed loop calls
// nothing in the repository, so no change to the program under test can
// make it faster or slower. It is the denominator of every speed-up the
// benchmark reports and the reference for every correctness check.
type oracle struct {
	n, k  int
	u, v  []uint32
	w     []float32
	y     []int32
	coeff []float64 // 1/count(Y = Y[x]) of labelled x, else 0
}

// newOracle copies the edges, sorted by source vertex with a stable
// counting sort so the oracle walks memory in the same source-major
// order a CSR does, and derives Algorithm 1's projection coefficients
// (lines 2-6) from the labels.
func newOracle(n, k int, edges []graph.Edge, y []int32) *oracle {
	o := &oracle{n: n, k: k, y: append([]int32(nil), y...)}
	o.u = make([]uint32, len(edges))
	o.v = make([]uint32, len(edges))
	o.w = make([]float32, len(edges))
	start := make([]int, n+1)
	for _, e := range edges {
		start[e.U+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	for _, e := range edges {
		i := start[e.U]
		start[e.U]++
		o.u[i], o.v[i], o.w[i] = e.U, e.V, e.W
	}
	o.setLabels(o.y)
	return o
}

// setLabels recomputes the projection coefficients for a label vector.
func (o *oracle) setLabels(y []int32) {
	o.y = y
	counts := make([]int, o.k)
	for _, c := range y {
		if c >= 0 {
			counts[c]++
		}
	}
	o.coeff = make([]float64, o.n)
	for x, c := range y {
		if c >= 0 {
			o.coeff[x] = 1 / float64(counts[c])
		}
	}
}

// embed is Algorithm 1, lines 7-12: one serial pass applying both
// half-updates of every edge. It allocates and zeroes its own n×K
// output, so an implementation that allocates its result pays the same
// page-fault cost as the oracle it is paired with.
func (o *oracle) embed() []float64 {
	z := make([]float64, o.n*o.k)
	for i := range z {
		z[i] = 0
	}
	o.fold(z)
	return z
}

// fold is the edge pass alone, accumulating into a caller-allocated
// buffer: the counterpart of an exec strategy run.
func (o *oracle) fold(z []float64) {
	k, y, coeff := o.k, o.y, o.coeff
	for i, u := range o.u {
		v, w := o.v[i], float64(o.w[i])
		if c := y[v]; c >= 0 {
			z[int(u)*k+int(c)] += coeff[v] * w
		}
		if c := y[u]; c >= 0 {
			z[int(v)*k+int(c)] += coeff[u] * w
		}
	}
}

// checkTol is the absolute tolerance of every embedding comparison:
// parallel and incremental folds differ from the oracle only in
// summation order.
const checkTol = 1e-9

// maxAbsDiff returns the largest absolute difference between two
// equally long vectors (NaN-safe: a NaN compares as +Inf).
func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if !(d <= worst) {
			worst = d
			if math.IsNaN(d) {
				return math.Inf(1)
			}
		}
	}
	return worst
}

// checkEmbedding compares an implementation's row-major embedding with
// the oracle's.
func checkEmbedding(what string, got, want []float64) error {
	if d := maxAbsDiff(got, want); d > checkTol {
		return fmt.Errorf("%s differs from the oracle by %.3g (tolerance %g)", what, d, checkTol)
	}
	return nil
}

// liveEdges replays acknowledged inserts and deletes into the multiset
// of live edges, the input of the serving workloads' final check.
type liveEdges map[graph.Edge]int

func (l liveEdges) insert(edges []graph.Edge) {
	for _, e := range edges {
		l[e]++
	}
}

func (l liveEdges) remove(edges []graph.Edge) {
	for _, e := range edges {
		if l[e]--; l[e] == 0 {
			delete(l, e)
		}
	}
}

// list expands the multiset in a deterministic order.
func (l liveEdges) list() []graph.Edge {
	out := make([]graph.Edge, 0, len(l))
	for e, c := range l {
		for ; c > 0; c-- {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.U != b.U {
			return a.U < b.U
		}
		if a.V != b.V {
			return a.V < b.V
		}
		return a.W < b.W
	})
	return out
}

// exactTopK is the frozen exact scan behind the recall check: the k
// rows of the row-major n×width matrix z nearest to row q under
// squared L2, q itself excluded, nearest first.
func exactTopK(z []float64, width, q, k int) []float64 {
	n := len(z) / width
	qr := z[q*width : (q+1)*width]
	dists := make([]float64, 0, n-1)
	for r := 0; r < n; r++ {
		if r == q {
			continue
		}
		row := z[r*width : (r+1)*width]
		d := 0.0
		for j, x := range row {
			d += (x - qr[j]) * (x - qr[j])
		}
		dists = append(dists, d)
	}
	sort.Float64s(dists)
	return dists[:min(k, len(dists))]
}
