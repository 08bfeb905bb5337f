package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mat"
	"repro/internal/xrand"
)

// The two neighbor reads at the benchmark's serving shape: n=100k rows
// of a K=10 SBM embedding (~700k edges), top-10 under L2, the query row
// excluded. Each reports ns per query and the rows it scanned per query:
// all n for TopK, the distinct rows in the lists the walk visited for
// an IVF search. The blobs case is the regime with no duplicate rows
// to collapse: 100k Gaussian points in 10 dimensions around 64 centres.

const benchRows = 100_000

var benchSink []cluster.Neighbor

func benchEmbedding(b *testing.B) *mat.Dense {
	return sbmEmbedding(b, benchRows, 10, 1e-3, 4.4e-5, 22)
}

func gaussBlobs(n, dim, centres int, seed uint64) *mat.Dense {
	r := xrand.New(seed)
	C := mat.NewDense(centres, dim)
	for i := range C.Data {
		C.Data[i] = r.NormFloat64() * 4
	}
	X := mat.NewDense(n, dim)
	for v := 0; v < n; v++ {
		c := C.Row(r.Intn(centres))
		for j, x := range X.Row(v) {
			X.Row(v)[j] = x + c[j] + r.NormFloat64()
		}
	}
	return X
}

func benchQueries(b *testing.B, search func(v int) ([]cluster.Neighbor, int)) {
	r := xrand.New(23)
	queries := make([]int, 256)
	for i := range queries {
		queries[i] = r.Intn(benchRows)
	}
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		benchSink, n = search(queries[i%len(queries)])
		rows += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
	b.ReportMetric(float64(rows)/float64(b.N), "rows/query")
}

func BenchmarkIVFSearch(b *testing.B) {
	for _, c := range []struct {
		name string
		data func(b *testing.B) *mat.Dense
	}{
		{"sbm", benchEmbedding},
		{"blobs", func(*testing.B) *mat.Dense { return gaussBlobs(benchRows, 10, 64, 24) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			Z := c.data(b)
			ix := cluster.BuildIVF(0, Z, cluster.IVFOptions{})
			benchQueries(b, func(v int) ([]cluster.Neighbor, int) {
				nbrs, vis := ix.Search(0, Z.Row(v), 10, cluster.L2, v)
				return nbrs, vis.Rows
			})
		})
	}
}

func BenchmarkTopK(b *testing.B) {
	Z := benchEmbedding(b)
	benchQueries(b, func(v int) ([]cluster.Neighbor, int) {
		return cluster.TopK(0, Z, Z.Row(v), 10, cluster.L2, v), benchRows
	})
}
