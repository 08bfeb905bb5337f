package repro

// Benchmarks for the Ligra+-style compressed representation: traversal
// and GEE cost of decode-on-the-fly vs the plain CSR, plus the achieved
// compression ratio as a reported metric.

import (
	"sync/atomic"
	"testing"

	"repro/internal/gee"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/parallel"
)

func compressedFixture(b *testing.B) (*graph.CSR, *graph.CompressedCSR, []int32) {
	b.Helper()
	el := gen.RMAT(0, 17, 1<<21, gen.Graph500Params, 31)
	g := graph.BuildCSR(0, el)
	graph.SortAdjacency(0, g)
	c, err := graph.Compress(0, g)
	if err != nil {
		b.Fatal(err)
	}
	y := labels.SampleSemiSupervised(el.N, 50, 0.1, 32)
	return g, c, y
}

func BenchmarkCompressedTraversal(b *testing.B) {
	g, c, _ := compressedFixture(b)
	b.Run("plain", func(b *testing.B) {
		b.SetBytes(g.NumEdges() * 4)
		for i := 0; i < b.N; i++ {
			var count atomic.Int64
			parallel.ForChunk(0, g.N, 0, func(lo, hi int) {
				for u := lo; u < hi; u++ {
					for range g.Neighbors(graph.NodeID(u)) {
						count.Add(1)
					}
				}
			})
		}
	})
	b.Run("compressed", func(b *testing.B) {
		b.SetBytes(c.Bytes())
		for i := 0; i < b.N; i++ {
			var count atomic.Int64
			c.ProcessEdges(0, func(u, v graph.NodeID) { count.Add(1) })
		}
	})
	b.ReportMetric(float64(g.NumEdges()*4)/float64(c.Bytes()), "compression-ratio")
}

func BenchmarkCompressedGEE(b *testing.B) {
	g, c, y := compressedFixture(b)
	opts := gee.Options{K: 50}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gee.EmbedCSR(gee.LigraParallel, g, y, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gee.EmbedCompressed(c, y, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCompressDecompress(b *testing.B) {
	g, _, _ := compressedFixture(b)
	b.Run("compress", func(b *testing.B) {
		b.SetBytes(g.NumEdges() * 4)
		for i := 0; i < b.N; i++ {
			if _, err := graph.Compress(0, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	c, _ := graph.Compress(0, g)
	b.Run("decompress", func(b *testing.B) {
		b.SetBytes(g.NumEdges() * 4)
		for i := 0; i < b.N; i++ {
			c.Decompress(0)
		}
	})
}
