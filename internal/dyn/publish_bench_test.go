package dyn

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/metrics"
	"repro/internal/xrand"
)

// benchEmbedder is the serving benchmark's scale: n=100k, K=10, 20%
// labelled, 700k base edges folded and published (one rebuild), manual
// publish. edges draws m random unit-weight edges from r.
func benchEmbedder(b *testing.B) (d *DynamicEmbedder, y []int32, r *xrand.Rand, edges func(m int) []graph.Edge) {
	const n, k = 100_000, 10
	y = labels.SampleSemiSupervised(n, k, 0.2, 1)
	d, err := New(n, y, Options{K: k, ManualPublish: true})
	if err != nil {
		b.Fatal(err)
	}
	r = xrand.New(2)
	edges = func(m int) []graph.Edge {
		out := make([]graph.Edge, m)
		for i := range out {
			out[i] = graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: 1}
		}
		return out
	}
	if err := d.AddEdges(edges(700_000)); err != nil {
		b.Fatal(err)
	}
	d.Publish()
	return d, y, r, edges
}

// BenchmarkPublish times one publish at the serving benchmark's scale
// (n=100k, K=10, 20% labelled, 700k base edges) after each of three
// writes: a 64-edge insert, a 4096-edge insert, and 64 label moves into
// one class, which changes class counts. Only the publish is timed; the
// write before it, and the write and publish that undo it (so every
// iteration starts from the same graph), are not. Besides time and
// allocations it reports rows/publish: the rows copied into fresh pages.
//
//	go test -run '^$' -bench Publish -benchmem ./internal/dyn
func BenchmarkPublish(b *testing.B) {
	d, y, r, edges := benchEmbedder(b)
	d.Instrument(metrics.NewRegistry())
	var labelled []graph.NodeID
	for v, c := range y {
		if c >= 0 {
			labelled = append(labelled, graph.NodeID(v))
		}
	}
	inserts := func(m int) func(int) (do, undo Batch) {
		return func(int) (Batch, Batch) {
			e := edges(m)
			return Batch{Insert: e}, Batch{Delete: e}
		}
	}
	for _, bc := range []struct {
		name  string
		write func(i int) (do, undo Batch)
	}{
		{"insert64", inserts(64)},
		{"insert4096", inserts(4096)},
		{"relabel64", func(i int) (do, undo Batch) {
			for range 64 {
				v := labelled[r.Intn(len(labelled))]
				do.Labels = append(do.Labels, LabelUpdate{V: v, Class: int32(i % d.k)})
				undo.Labels = append(undo.Labels, LabelUpdate{V: v, Class: y[v]})
			}
			return do, undo
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			copied := 0.0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				do, undo := bc.write(i)
				if err := d.Apply(do); err != nil {
					b.Fatal(err)
				}
				before := d.mCopied.Snapshot().Sum
				b.StartTimer()
				d.Publish()
				b.StopTimer()
				copied += d.mCopied.Snapshot().Sum - before
				if err := d.Apply(undo); err != nil {
					b.Fatal(err)
				}
				d.Publish()
				b.StartTimer()
			}
			b.ReportMetric(copied/float64(b.N), "rows/publish")
		})
	}
}

// BenchmarkDelta times Delta at BenchmarkPublish's scale, from one and
// from 200 publishes back, each against a patched current version (after
// 200 publishes of 64-edge inserts) and a flat one (after a 16384-edge
// insert dirties enough pages to rebuild). Besides time and allocations
// it reports rows/delta: the rows the delta lists.
//
//	go test -run '^$' -bench Delta -benchmem ./internal/dyn
func BenchmarkDelta(b *testing.B) {
	d, _, _, edges := benchEmbedder(b)
	publish := func(m int) {
		if err := d.AddEdges(edges(m)); err != nil {
			b.Fatal(err)
		}
		d.Publish()
	}
	for range 200 {
		publish(64)
	}
	for _, shape := range []string{"patched", "flat"} {
		if shape == "flat" {
			publish(16384)
		}
		if flat := !d.Version().Z.Paged(); flat != (shape == "flat") {
			b.Fatalf("%s case: current version flat=%v", shape, flat)
		}
		for _, back := range []uint64{1, 200} {
			b.Run(fmt.Sprintf("%s/back%d", shape, back), func(b *testing.B) {
				b.ReportAllocs()
				from, rows := d.Epoch()-back, 0
				for i := 0; i < b.N; i++ {
					dl := d.Delta(from)
					if dl.Resync {
						b.Fatalf("delta from %d resynced", from)
					}
					rows += len(dl.Rows)
				}
				b.ReportMetric(float64(rows)/float64(b.N), "rows/delta")
			})
		}
	}
}
