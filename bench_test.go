package repro

// testing.B entry points for every table and figure of the paper's
// evaluation (§IV). These run the same drivers as cmd/geebench but at a
// large scale divisor so `go test -bench=.` completes in minutes; pass
// larger sizes through cmd/geebench for the full-shape reproduction
// recorded in EXPERIMENTS.md.
//
//	BenchmarkTableI      — Table I  (4 implementations × 6 graph stand-ins)
//	BenchmarkFig2        — Figure 2 (largest graph, normalized runtimes)
//	BenchmarkFig3Scaling — Figure 3 (strong scaling of LigraParallel)
//	BenchmarkFig4Sweep   — Figure 4 (ER sweep, runtime vs edges)
//	BenchmarkAblation    — §IV atomics on/off + replicated buffers
//	BenchmarkWInit       — §III O(nk) projection-initialization share

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/gee"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/parallel"
)

// benchCfg is the shared small-scale configuration for testing.B runs.
func benchCfg() bench.Config {
	return bench.Config{
		ScaleDiv:      256,
		Reps:          1,
		Workers:       runtime.GOMAXPROCS(0),
		K:             50,
		LabelFraction: 0.1,
		Seed:          12345,
	}
}

// BenchmarkTableI regenerates Table I: every implementation on every
// graph stand-in. Sub-benchmark names follow "graph/implementation".
func BenchmarkTableI(b *testing.B) {
	cfg := benchCfg()
	for _, spec := range bench.TableISpecs {
		w := bench.PrepareWorkload(spec, cfg)
		for _, impl := range []gee.Impl{gee.Reference, gee.Optimized, gee.LigraSerial, gee.LigraParallel} {
			b.Run(spec.Name+"/"+impl.String(), func(b *testing.B) {
				opts := gee.Options{K: w.K, Workers: cfg.Workers}
				b.SetBytes(int64(len(w.EL.Edges)) * 12) // e = (u,v,w) per row
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if impl == gee.Reference || impl == gee.Optimized {
						_, err = gee.Embed(impl, w.EL, w.Y, opts)
					} else {
						_, err = gee.EmbedCSR(impl, w.G, w.Y, opts)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig2 regenerates Figure 2's three bars on the Friendster
// stand-in.
func BenchmarkFig2(b *testing.B) {
	cfg := benchCfg()
	w := bench.PrepareWorkload(bench.LargestSpec(), cfg)
	for _, impl := range []gee.Impl{gee.Optimized, gee.LigraSerial, gee.LigraParallel} {
		b.Run(impl.String(), func(b *testing.B) {
			opts := gee.Options{K: w.K, Workers: cfg.Workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if impl == gee.Optimized {
					_, err = gee.Embed(impl, w.EL, w.Y, opts)
				} else {
					_, err = gee.EmbedCSR(impl, w.G, w.Y, opts)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3Scaling regenerates Figure 3: LigraParallel runtime as the
// worker count grows.
func BenchmarkFig3Scaling(b *testing.B) {
	cfg := benchCfg()
	w := bench.PrepareWorkload(bench.LargestSpec(), cfg)
	max := runtime.GOMAXPROCS(0)
	for cores := 1; cores <= max; cores *= 2 {
		b.Run(coresName(cores), func(b *testing.B) {
			opts := gee.Options{K: w.K, Workers: cores}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gee.EmbedCSR(gee.LigraParallel, w.G, w.Y, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	if max > 1 && max&(max-1) != 0 {
		b.Run(coresName(max), func(b *testing.B) {
			opts := gee.Options{K: w.K, Workers: max}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gee.EmbedCSR(gee.LigraParallel, w.G, w.Y, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func coresName(c int) string {
	if c < 10 {
		return "cores=0" + string(rune('0'+c))
	}
	return "cores=" + string(rune('0'+c/10)) + string(rune('0'+c%10))
}

// BenchmarkFig4Sweep regenerates Figure 4: runtime vs edges on ER graphs
// (n = m/16, the paper's shape), for each of the four curves.
func BenchmarkFig4Sweep(b *testing.B) {
	cfg := benchCfg()
	for lg := 13; lg <= 19; lg += 2 {
		m := int64(1) << lg
		n := int(m / 16)
		if n < 1024 {
			n = 1024
		}
		el := gen.ErdosRenyi(cfg.Workers, n, m, cfg.Seed+uint64(lg))
		g := graph.BuildCSR(cfg.Workers, el)
		y := labels.SampleSemiSupervised(n, cfg.K, cfg.LabelFraction, cfg.Seed)
		for _, impl := range bench.Fig4Impls {
			b.Run("m=2^"+itoa(lg)+"/"+impl.String(), func(b *testing.B) {
				opts := gee.Options{K: cfg.K, Workers: cfg.Workers}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if impl == gee.Reference || impl == gee.Optimized {
						_, err = gee.Embed(impl, el, y, opts)
					} else {
						_, err = gee.EmbedCSR(impl, g, y, opts)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblation regenerates the §IV race-handling ablation: atomics
// on, atomics off, and the replicated-buffer alternative.
func BenchmarkAblation(b *testing.B) {
	cfg := benchCfg()
	w := bench.PrepareWorkload(bench.TableISpecs[3], cfg) // soc-orkut stand-in
	opts := gee.Options{K: w.K, Workers: cfg.Workers}
	b.Run("atomic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gee.EmbedCSR(gee.LigraParallel, w.G, w.Y, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unsafe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gee.EmbedCSR(gee.LigraParallelUnsafe, w.G, w.Y, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replicated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gee.EmbedCSR(gee.Replicated, w.G, w.Y, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWInit regenerates the §III observation: at fixed edge count,
// the O(nk) projection initialization grows as average degree falls.
func BenchmarkWInit(b *testing.B) {
	cfg := benchCfg()
	const edges = 1 << 18
	for _, deg := range []int{16, 4, 1} {
		n := edges / deg
		el := gen.ErdosRenyi(cfg.Workers, n, edges, cfg.Seed)
		g := graph.BuildCSR(cfg.Workers, el)
		y := labels.SampleSemiSupervised(n, cfg.K, cfg.LabelFraction, cfg.Seed)
		b.Run("avgdeg="+itoa(deg), func(b *testing.B) {
			opts := gee.Options{K: cfg.K, Workers: cfg.Workers}
			b.ResetTimer()
			var winit, emap int64
			for i := 0; i < b.N; i++ {
				_, tm, err := gee.EmbedCSRTimed(gee.LigraParallel, g, y, opts)
				if err != nil {
					b.Fatal(err)
				}
				winit += tm.WInit.Nanoseconds()
				emap += tm.EdgeMap.Nanoseconds()
			}
			b.ReportMetric(float64(winit)/float64(b.N), "winit-ns/op")
			b.ReportMetric(float64(emap)/float64(b.N), "edgemap-ns/op")
		})
	}
}

// Microbenchmarks for the substrate hot paths.

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
