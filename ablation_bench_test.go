package repro

// Ablation benchmarks for design choices beyond the paper's own
// experiments: parallel-for grain size, and replicated buffers against
// one shared matrix.

import (
	"runtime"
	"testing"

	"repro/internal/gee"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/parallel"
)

// BenchmarkAblationGrainSize sweeps the parallel-for chunk grain for the
// raw edge map traversal (scheduling overhead vs load balance).
func BenchmarkAblationGrainSize(b *testing.B) {
	el := gen.RMAT(0, 17, 1<<21, gen.Graph500Params, 11)
	g := graph.BuildCSR(0, el)
	workers := runtime.GOMAXPROCS(0)
	for _, grain := range []int{16, 256, 4096, 65536} {
		b.Run("grain="+itoa(grain), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parallel.ForChunk(workers, g.N, grain, func(lo, hi int) {
					for u := lo; u < hi; u++ {
						nbrs := g.Neighbors(graph.NodeID(u))
						var acc float32
						for range nbrs {
							acc++
						}
						_ = acc
					}
				})
			}
		})
	}
}

// BenchmarkAblationReplicatedMemory pins the memory argument: replicated
// buffers at high worker counts against the single atomic matrix.
func BenchmarkAblationReplicatedMemory(b *testing.B) {
	el := gen.RMAT(0, 15, 1<<19, gen.Graph500Params, 13)
	g := graph.BuildCSR(0, el)
	y := labels.SampleSemiSupervised(el.N, 50, 0.1, 14)
	opts := gee.Options{K: 50}
	b.Run("atomic-sharedZ", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gee.EmbedCSR(gee.LigraParallel, g, y, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replicatedZ", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gee.EmbedCSR(gee.Replicated, g, y, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
