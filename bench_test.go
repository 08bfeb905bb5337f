package repro

// Microbenchmarks for the substrate hot paths: CSR construction, the
// edge map's bare traversal, and the two graph generators. The paper's
// evaluation (§IV) has one driver, cmd/geebench over internal/bench.

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

func BenchmarkBuildCSR(b *testing.B) {
	el := gen.RMAT(0, 18, 1<<22, gen.Graph500Params, 1)
	b.SetBytes(int64(len(el.Edges)) * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BuildCSR(0, el)
	}
}

// BenchmarkEdgeMapDenseTraversal walks every arc of the CSR in the edge
// map's dense schedule (vertex chunks, each list in order) with no update:
// the traversal floor under every GEE edge map.
func BenchmarkEdgeMapDenseTraversal(b *testing.B) {
	el := gen.RMAT(0, 18, 1<<22, gen.Graph500Params, 2)
	g := graph.BuildCSR(0, el)
	b.SetBytes(g.NumEdges() * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallel.ForChunk(0, g.N, 0, func(lo, hi int) {
			var acc graph.NodeID
			for u := lo; u < hi; u++ {
				for _, v := range g.Neighbors(graph.NodeID(u)) {
					acc += v
				}
			}
			_ = acc
		})
	}
}

func BenchmarkGenerateRMAT(b *testing.B) {
	b.SetBytes((1 << 22) * 12)
	for i := 0; i < b.N; i++ {
		gen.RMAT(0, 18, 1<<22, gen.Graph500Params, uint64(i))
	}
}

func BenchmarkGenerateER(b *testing.B) {
	b.SetBytes((1 << 22) * 12)
	for i := 0; i < b.N; i++ {
		gen.ErdosRenyi(0, 1<<18, 1<<22, uint64(i))
	}
}
