package client_test

import (
	"context"
	"testing"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/server/client"
	"repro/internal/xrand"
)

// BenchmarkReplicaSync times one Replica.Sync at the serving benchmark's
// scale (n = 100k, K = 10, 50% labelled, 700k base edges, one shard,
// binary wire) after each of three writes: a 64-edge and a 4096-edge
// insert, which the sync applies as a row delta, and a label move that
// changes class counts, after which the sync refetches the section. Only the sync is
// timed. Time and allocations include the primary's side of the round
// trip, which runs in the same process. Besides them it reports
// rows/sync: the rows a delta applied (0 for a refetch).
//
//	go test -run '^$' -bench ReplicaSync -benchmem ./internal/server/client
func BenchmarkReplicaSync(b *testing.B) {
	const n, k = 100_000, 10
	p := newPrimary(b, n, k, 1, dyn.Options{})
	r := xrand.New(101)
	if err := p.shards[0].D.Apply(dyn.Batch{Insert: randEdges(r, n, 700_000)}); err != nil {
		b.Fatal(err)
	}
	c := client.New(p.serve(b), nil, client.WithWire(client.Binary))
	ctx := context.Background()
	rep := client.NewReplica(c)
	if err := rep.Bootstrap(ctx); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		resync bool
		write  func(i int) error
	}{
		{"delta64", false, func(int) error {
			_, err := c.InsertEdges(ctx, randEdges(r, n, 64))
			return err
		}},
		{"delta4096", false, func(int) error {
			_, err := c.InsertEdges(ctx, randEdges(r, n, 4096))
			return err
		}},
		{"resync", true, func(i int) error {
			_, err := c.UpdateLabels(ctx, []dyn.LabelUpdate{{V: graph.NodeID(r.Intn(n)), Class: int32(i % k)}})
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := int64(0)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := bc.write(i); err != nil {
					b.Fatal(err)
				}
				before := rep.Stats().RowsApplied
				b.StartTimer()
				resynced, err := rep.Sync(ctx)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if resynced && !bc.resync {
					b.Fatal("an edge write's sync refetched the section")
				}
				rows += rep.Stats().RowsApplied - before
				b.StartTimer()
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/sync")
		})
	}
}
