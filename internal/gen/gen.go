// Package gen generates synthetic graphs for benchmarking and testing.
//
// The paper evaluates on SNAP social networks (Twitch, Pokec,
// LiveJournal, Orkut) and the 1.8B-edge Friendster graph, none of which
// are available offline. The generators here stand in for them (see
// the README's paragraph on Table I's stand-ins): RMAT reproduces the
// skewed degree distributions of social graphs; Erdős–Rényi reproduces the paper's
// Figure 4 sweep exactly as specified; the SBM provides ground-truth
// communities for validating embedding quality.
//
// All generators are deterministic for a given seed *and* independent of
// the worker count: each worker derives a substream from (seed, chunk).
package gen

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// genChunk is the number of edges generated per RNG substream.
const genChunk = 1 << 16

// ErdosRenyi samples m edges of G(n, m): endpoints uniform and
// independent (a sparse random multigraph, matching the paper's Figure 4
// workload "Erdős–Rényi random graphs with increasing numbers of edges").
func ErdosRenyi(workers, n int, m int64, seed uint64) *graph.EdgeList {
	el := &graph.EdgeList{N: n, Edges: make([]graph.Edge, m)}
	nChunks := int((m + genChunk - 1) / genChunk)
	parallel.For(workers, nChunks, func(c int) {
		r := xrand.NewStream(seed, uint64(c))
		lo := int64(c) * genChunk
		hi := lo + genChunk
		if hi > m {
			hi = m
		}
		for i := lo; i < hi; i++ {
			el.Edges[i] = graph.Edge{
				U: graph.NodeID(r.Intn(n)),
				V: graph.NodeID(r.Intn(n)),
				W: 1,
			}
		}
	})
	return el
}

// RMATParams are the recursive-matrix quadrant probabilities. They must
// sum to 1.
type RMATParams struct{ A, B, C, D float64 }

// Graph500Params is the standard Graph500 RMAT parameterization, which
// produces the heavy-tailed degree distributions characteristic of social
// networks.
var Graph500Params = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

// RMAT samples m edges from the R-MAT recursive model over n = 2^scale
// vertices. Endpoint bits are chosen quadrant-by-quadrant with slight
// per-level parameter noise (as in the Graph500 reference generator) to
// avoid exact self-similarity artifacts.
func RMAT(workers, scale int, m int64, p RMATParams, seed uint64) *graph.EdgeList {
	n := 1 << scale
	el := &graph.EdgeList{N: n, Edges: make([]graph.Edge, m)}
	nChunks := int((m + genChunk - 1) / genChunk)
	parallel.For(workers, nChunks, func(c int) {
		r := xrand.NewStream(seed, uint64(c))
		lo := int64(c) * genChunk
		hi := lo + genChunk
		if hi > m {
			hi = m
		}
		for i := lo; i < hi; i++ {
			var u, v int
			for level := 0; level < scale; level++ {
				// ±10% symmetric noise keeps expected params identical
				noise := 0.9 + 0.2*r.Float64()
				a := p.A * noise
				b := p.B * noise
				cq := p.C * noise
				norm := a + b + cq + p.D*noise
				x := r.Float64() * norm
				switch {
				case x < a:
					// top-left: no bits set
				case x < a+b:
					v |= 1 << level
				case x < a+b+cq:
					u |= 1 << level
				default:
					u |= 1 << level
					v |= 1 << level
				}
			}
			el.Edges[i] = graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: 1}
		}
	})
	return el
}

// SBM samples a planted-partition stochastic block model: n vertices in k
// equal blocks, within-block edge probability pIn, cross-block pOut.
// Sampling is by expected edge count per block pair (Poisson
// approximation to the binomial), which is O(edges) rather than O(n^2).
// The returned labels are the ground-truth block of each vertex.
func SBM(workers, n, k int, pIn, pOut float64, seed uint64) (*graph.EdgeList, []int32) {
	labels := make([]int32, n)
	blockOf := func(v int) int32 { return int32(v * k / n) }
	for v := range labels {
		labels[v] = blockOf(v)
	}
	blockLo := func(b int) int { return (b*n + k - 1) / k }
	blockHi := func(b int) int { return ((b+1)*n + k - 1) / k } // exclusive

	type pairJob struct {
		bi, bj int
		count  int64
	}
	var jobs []pairJob
	seedRNG := xrand.New(seed)
	var total int64
	for bi := 0; bi < k; bi++ {
		for bj := bi; bj < k; bj++ {
			ni := int64(blockHi(bi) - blockLo(bi))
			nj := int64(blockHi(bj) - blockLo(bj))
			var pairs float64
			var p float64
			if bi == bj {
				pairs = float64(ni*(ni-1)) / 2
				p = pIn
			} else {
				pairs = float64(ni * nj)
				p = pOut
			}
			cnt := seedRNG.Poisson(pairs * p)
			if cnt > 0 {
				jobs = append(jobs, pairJob{bi, bj, cnt})
				total += cnt
			}
		}
	}
	el := &graph.EdgeList{N: n, Edges: make([]graph.Edge, total)}
	starts := make([]int64, len(jobs))
	var acc int64
	for j := range jobs {
		starts[j] = acc
		acc += jobs[j].count
	}
	parallel.For(workers, len(jobs), func(j int) {
		job := jobs[j]
		r := xrand.NewStream(seed, uint64(j)+1)
		lo1, hi1 := blockLo(job.bi), blockHi(job.bi)
		lo2, hi2 := blockLo(job.bj), blockHi(job.bj)
		base := starts[j]
		for i := int64(0); i < job.count; i++ {
			u := lo1 + r.Intn(hi1-lo1)
			v := lo2 + r.Intn(hi2-lo2)
			if job.bi == job.bj {
				for u == v { // no self loops within a block draw
					v = lo2 + r.Intn(hi2-lo2)
				}
			}
			el.Edges[base+i] = graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: 1}
		}
	})
	return el, labels
}
