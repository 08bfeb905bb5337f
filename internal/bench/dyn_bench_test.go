package bench

import (
	"testing"

	"repro/internal/dyn"
	"repro/internal/gee"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labels"
)

// Dynamic-ingest throughput: edges folded per second into a live
// DynamicEmbedder, across its two fold paths (serial on one worker,
// owner-computes over the sharded edge plan on several) and batch
// sizes. Publishes are manual so the numbers isolate ingest;
// BenchmarkDynamicPublish prices the snapshot separately. Run with
// -benchtime=1x for a smoke pass.
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

func BenchmarkDynamicIngest(b *testing.B) {
	pool := dynEdgePool(1 << 20)
	for _, bc := range []struct {
		name    string
		batch   int
		workers int // 1 folds serially; more owner-computes at these sizes
	}{
		{"serial/batch=4096", 4096, 1},
		{"sharded/batch=4096", 4096, dynBenchWorkers},
		{"serial/batch=65536", 65536, 1},
		{"sharded/batch=65536", 65536, dynBenchWorkers},
	} {
		b.Run(bc.name, func(b *testing.B) {
			y := labels.SampleSemiSupervised(dynBenchN, dynBenchK, 0.1, 7)
			d, err := dyn.New(dynBenchN, y, dyn.Options{
				K: dynBenchK, Workers: bc.workers, ManualPublish: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			off := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if off+bc.batch > len(pool) {
					off = 0
				}
				if err := d.AddEdges(pool[off : off+bc.batch]); err != nil {
					b.Fatal(err)
				}
				off += bc.batch
			}
			b.StopTimer()
			edges := float64(b.N) * float64(bc.batch)
			b.ReportMetric(edges/b.Elapsed().Seconds(), "edges/s")
		})
	}
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
	if err := d.AddEdges(dynEdgePool(1 << 18)); err != nil {
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
