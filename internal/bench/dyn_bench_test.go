package bench

import (
	"fmt"
	"testing"

	"repro/internal/dyn"
	"repro/internal/gee"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/xrand"
)

// Dynamic-ingest throughput: edges folded per second into a live
// DynamicEmbedder, and the cost of a delete's detach. Publishes are
// manual so the numbers isolate ingest; BenchmarkDynamicPublish prices
// the snapshot separately. Run with -benchtime=1x for a smoke pass.
//
// Workers are pinned (not GOMAXPROCS) so the parallel fold path is
// exercised even on a single-core machine; like Table I's Shd/Par
// column, the relative numbers are only meaningful with real cores.

const (
	dynBenchScale   = 15 // 2^15 vertices
	dynBenchN       = 1 << dynBenchScale
	dynBenchK       = 16
	dynBenchWorkers = 4
)

// dynEdgePool pre-generates a skewed edge pool so generation stays out
// of the timed region.
func dynEdgePool(m int64) []graph.Edge {
	return gen.RMAT(0, dynBenchScale, m, gen.Graph500Params, 77).Edges
}

// The serving shape: the benchmark's base100k graph (n = 100k, K = 10,
// 700k edges, the lowest fifth of the vertices labelled round-robin).
const (
	serveBenchN     = 100_000
	serveBenchK     = 10
	serveBenchEdges = 700_000
)

// blockEdges draws m edges shaped like the serving base graph's: nine in
// ten join two vertices of one planted block (ids equal mod K), the
// rest are uniform; weights are 1 to 4.
func blockEdges(r *xrand.Rand, m int) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		u, v := r.Intn(serveBenchN), r.Intn(serveBenchN)
		if r.Float64() < 0.9 {
			v = u%serveBenchK + serveBenchK*r.Intn((serveBenchN-1-u%serveBenchK)/serveBenchK+1)
		}
		edges[i] = graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: float32(r.Intn(4) + 1)}
	}
	return edges
}

// serveEmbedder returns a manual-publish embedder at the serving shape
// with the base graph folded in.
func serveEmbedder(b *testing.B, workers int, r *xrand.Rand) *dyn.DynamicEmbedder {
	y := make([]int32, serveBenchN)
	for v := range y {
		y[v] = labels.Unknown
		if v < serveBenchN/5 {
			y[v] = int32(v % serveBenchK)
		}
	}
	d, err := dyn.New(serveBenchN, y, dyn.Options{K: serveBenchK, Workers: workers, ManualPublish: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Apply(dyn.Batch{Insert: blockEdges(r, serveBenchEdges)}); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDynamicIngest folds insert batches of 4096 to 65536 edges at
// the serving shape, on one worker and on two. Below dyn's 65536-edge
// cut-over the two-worker rows fold serially too, so they read as the
// one-worker rows; from it they owner-compute. BenchmarkFoldPaths in
// internal/dyn forces each path at every size: that is the sweep that
// sets the cut-over.
func BenchmarkDynamicIngest(b *testing.B) {
	pool := blockEdges(xrand.New(77), 1<<18)
	for _, batch := range []int{4096, 8192, 16384, 32768, 65536} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(b *testing.B) {
				d := serveEmbedder(b, workers, xrand.New(7))
				off := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if off+batch > len(pool) {
						off = 0
					}
					if err := d.Apply(dyn.Batch{Insert: pool[off : off+batch]}); err != nil {
						b.Fatal(err)
					}
					off += batch
				}
				b.StopTimer()
				edges := float64(b.N) * float64(batch)
				b.ReportMetric(edges/b.Elapsed().Seconds(), "edges/s")
			})
		}
	}
}

// BenchmarkDynamicDelete times 4096-edge deletes of an earlier batch at
// the serving shape, after 64 cycles of churn (insert a batch, delete
// the oldest of eight live ones), as ingest_follow sends them. Only the
// delete is timed: its detach, its serial fold and its bookkeeping. It
// reports ns per deleted edge.
func BenchmarkDynamicDelete(b *testing.B) {
	const batch, live, churn = 4096, 8, 64
	r := xrand.New(7)
	d := serveEmbedder(b, 2, r)
	var pending [][]graph.Edge
	cycle := func() []graph.Edge {
		e := blockEdges(r, batch)
		if err := d.Apply(dyn.Batch{Insert: e}); err != nil {
			b.Fatal(err)
		}
		pending = append(pending, e)
		if len(pending) <= live {
			return nil
		}
		old := pending[0]
		pending = pending[1:]
		return old
	}
	for i := 0; i < churn; i++ {
		if old := cycle(); old != nil {
			if err := d.Apply(dyn.Batch{Delete: old}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		old := cycle()
		b.StartTimer()
		if err := d.Apply(dyn.Batch{Delete: old}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*batch), "ns/edge")
}

// BenchmarkDynamicChurn interleaves inserts, deletions of an earlier
// batch, and label updates — the mixed write workload a server folds.
func BenchmarkDynamicChurn(b *testing.B) {
	const batch = 8192
	pool := dynEdgePool(1 << 20)
	y := labels.SampleSemiSupervised(dynBenchN, dynBenchK, 0.1, 7)
	d, err := dyn.New(dynBenchN, y, dyn.Options{
		K: dynBenchK, Workers: dynBenchWorkers, ManualPublish: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	var pending [][]graph.Edge // inserted but not yet deleted
	off := 0
	next := func() []graph.Edge {
		if off+batch > len(pool) {
			off = 0
		}
		e := pool[off : off+batch]
		off += batch
		return e
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt := dyn.Batch{Insert: next()}
		if len(pending) > 2 {
			bt.Delete = pending[0]
			pending = pending[1:]
		}
		for v := 0; v < 64; v++ {
			bt.Labels = append(bt.Labels, dyn.LabelUpdate{
				V: graph.NodeID((i*64 + v) % dynBenchN), Class: int32(v % dynBenchK),
			})
		}
		if err := d.Apply(bt); err != nil {
			b.Fatal(err)
		}
		pending = append(pending, bt.Insert)
	}
	b.StopTimer()
	st := d.Stats()
	ops := float64(st.Inserts + st.Deletes + st.LabelMoves)
	b.ReportMetric(ops/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkDynamicPublish prices a publish with nothing dirty — the
// page table and the version, after one bulk-load publish — at the
// benchmark's service size.
func BenchmarkDynamicPublish(b *testing.B) {
	y := labels.SampleSemiSupervised(dynBenchN, dynBenchK, 0.1, 7)
	d, err := dyn.New(dynBenchN, y, dyn.Options{K: dynBenchK, ManualPublish: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Apply(dyn.Batch{Insert: dynEdgePool(1 << 18)}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Publish()
	}
}

// BenchmarkShardedPlanReuse shows the ROADMAP plan-cache payoff: the
// first sharded run on a CSR pays the O(m) bucketing, subsequent runs
// reuse the plan cached on the graph.
func BenchmarkShardedPlanReuse(b *testing.B) {
	el := gen.RMAT(0, dynBenchScale, 1<<19, gen.Graph500Params, 79)
	y := labels.SampleSemiSupervised(el.N, dynBenchK, 0.1, 7)
	for _, fresh := range []bool{true, false} {
		name := "cached-plan"
		if fresh {
			name = "fresh-plan"
		}
		b.Run(name, func(b *testing.B) {
			g := graph.BuildCSR(0, el)
			w := &Workload{Name: name, EL: el, G: g, Y: y, K: dynBenchK}
			cfg := Config{Reps: 1, K: dynBenchK, Workers: dynBenchWorkers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fresh {
					g.InvalidatePlan()
				}
				if _, err := TimeImpl(w, gee.ShardedParallel, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
