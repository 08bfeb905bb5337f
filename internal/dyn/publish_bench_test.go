package dyn

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/metrics"
	"repro/internal/xrand"
)

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
	const n, k = 100_000, 10
	y := labels.SampleSemiSupervised(n, k, 0.2, 1)
	d, err := New(n, y, Options{K: k, ManualPublish: true})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(2)
	edges := func(m int) []graph.Edge {
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
				do.Labels = append(do.Labels, LabelUpdate{V: v, Class: int32(i % k)})
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
