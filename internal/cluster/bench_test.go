package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mat"
	"repro/internal/xrand"
)

// The two neighbor reads at the benchmark's serving shape: n=100k rows
// of a K=10 SBM embedding (~700k edges), top-10 under L2, the query row
// excluded. ns/row divides a query by the rows it scans — all n for
// TopK, the nominal n·nprobe/lists for a default IVF probe — so the two
// are comparable per unit of memory streamed.

const benchRows = 100_000

var benchSink []cluster.Neighbor

func benchEmbedding(b *testing.B) *mat.Dense {
	return sbmEmbedding(b, benchRows, 10, 1e-3, 4.4e-5, 22)
}

func benchQueries(b *testing.B, rowsPerQuery float64, search func(v int) []cluster.Neighbor) {
	r := xrand.New(23)
	queries := make([]int, 256)
	for i := range queries {
		queries[i] = r.Intn(benchRows)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = search(queries[i%len(queries)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rowsPerQuery, "ns/row")
}

func BenchmarkIVFSearch(b *testing.B) {
	Z := benchEmbedding(b)
	ix := cluster.BuildIVF(0, Z, cluster.IVFOptions{})
	scanned := float64(benchRows) * float64(ix.NProbe()) / float64(ix.Lists())
	benchQueries(b, scanned, func(v int) []cluster.Neighbor {
		return ix.Search(0, Z.Row(v), 10, cluster.L2, v, 0)
	})
}

func BenchmarkTopK(b *testing.B) {
	Z := benchEmbedding(b)
	benchQueries(b, benchRows, func(v int) []cluster.Neighbor {
		return cluster.TopK(0, Z, Z.Row(v), 10, cluster.L2, v)
	})
}
