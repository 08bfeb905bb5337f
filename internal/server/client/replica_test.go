package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/race"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/shard"
	"repro/internal/xrand"
)

// primary is one serving stack under test: the embedders (for direct
// state comparison) behind a started server.
type primary struct {
	part   *shard.Partition
	shards []*shard.Shard
	h      http.Handler
}

// newPrimary builds an nShards-way serving stack. One shard goes
// through server.New over a plain embedder — the constructor the
// one-embedder deployments use — so the follower property covers both
// entry points.
func newPrimary(t testing.TB, n, k, nShards int, opts dyn.Options) *primary {
	t.Helper()
	opts.K = k
	y := labels.SampleSemiSupervised(n, k, 0.5, 61)
	part, err := shard.NewPartition(n, nShards)
	if err != nil {
		t.Fatal(err)
	}
	p := &primary{part: part}
	var s *server.Server
	if nShards == 1 {
		d, err := dyn.New(n, y, opts)
		if err != nil {
			t.Fatal(err)
		}
		p.shards = []*shard.Shard{{Hi: uint32(n), D: d}}
		s = server.New(d, server.Options{})
	} else {
		if p.shards, err = shard.NewShards(part, y, opts); err != nil {
			t.Fatal(err)
		}
		s = server.NewSharded(part, p.shards, server.Options{})
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	p.h = s.Handler()
	return p
}

// serve exposes the stack over httptest and returns its base URL.
func (p *primary) serve(t testing.TB) string {
	t.Helper()
	ts := httptest.NewServer(p.h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// mustMatch asserts the replica equals the primary's published state
// exactly, section by section: each shard's epoch, instance and owned
// rows — their float32 image, the binary wire's precision and the only
// one a replica holds — plus labels and the summed edge count. This is
// the acceptance bar: a follower fed only deltas (resyncing when told
// to) is indistinguishable from the primary's binary reads.
func mustMatch(t *testing.T, rep *client.Replica, p *primary) {
	t.Helper()
	got := rep.Snapshot()
	if got == nil {
		t.Fatal("replica has no state")
	}
	rn, rk := got.Dims()
	if len(got.Epochs) != len(p.shards) || len(got.Instances) != len(p.shards) {
		t.Fatalf("replica vectors epochs=%v instances=%v, want %d entries each", got.Epochs, got.Instances, len(p.shards))
	}
	var edges int64
	row := make([]float64, rk)
	for i, sh := range p.shards {
		want := sh.D.Snapshot()
		if rn != want.Z.R || rk != want.Z.C {
			t.Fatalf("replica shape %dx%d, primary %dx%d", rn, rk, want.Z.R, want.Z.C)
		}
		if got.Epochs[i] != want.Epoch || got.Instances[i] != want.Instance {
			t.Fatalf("shard %d: replica at epoch %d/instance %d, primary at %d/%d",
				i, got.Epochs[i], got.Instances[i], want.Epoch, want.Instance)
		}
		edges += want.Edges
		lo, hi := p.part.Range(i)
		for v := int(lo); v < int(hi); v++ {
			if got.Y[v] != want.Y[v] {
				t.Fatalf("replica label of %d is %d, primary %d", v, got.Y[v], want.Y[v])
			}
			for j, x := range got.CopyRow(v, row) {
				if w := float64(float32(want.Z.At(v, j))); x != w {
					t.Fatalf("replica Z[%d][%d] = %v, primary %v (not bit-identical)", v, j, x, w)
				}
			}
		}
	}
	if got.Epoch != got.Epochs.Max() || got.Edges != edges {
		t.Fatalf("replica summary epoch %d / %d edges, want %d / %d", got.Epoch, got.Edges, got.Epochs.Max(), edges)
	}
}

// eachTopology runs body over the follower matrix: {1, 3} shards ×
// the Format of the replica's client, {JSON, binary}. A replica reads
// binary frames whatever that Format, so both columns expect the same
// float32 rows.
func eachTopology(t *testing.T, body func(t *testing.T, nShards int, wf client.Format)) {
	for _, nShards := range []int{1, 3} {
		for _, wf := range []client.Format{client.JSON, client.Binary} {
			t.Run(fmt.Sprintf("shards=%d/%s", nShards, wf), func(t *testing.T) {
				body(t, nShards, wf)
			})
		}
	}
}

func randEdges(r *xrand.Rand, n, m int) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)),
			W: float32(r.Intn(3) + 1),
		}
	}
	return edges
}

// TestReplicaFollowsPrimary is the follower acceptance test: a replica
// bootstrapped from snapshot sections and then fed only /v1/delta
// responses equals the primary exactly after a mixed
// insert/delete/relabel workload over HTTP — including counts-changing
// relabels that force full-resync epochs. Along the way it must
// actually use both paths: row-wise deltas for the edge-only windows,
// section refetches for the relabel ones.
func TestReplicaFollowsPrimary(t *testing.T) {
	eachTopology(t, func(t *testing.T, nShards int, wf client.Format) {
		// n well above the per-round churn, so row deltas stay a small
		// fraction of the matrix and the byte-asymmetry assertion below
		// is about the mechanism, not workload luck.
		const n, k, rounds = 1500, 4, 40
		p := newPrimary(t, n, k, nShards, dyn.Options{})
		c := client.New(p.serve(t), nil, client.WithWire(wf))
		ctx := context.Background()
		rep := client.NewReplica(c)
		if err := rep.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
		mustMatch(t, rep, p)
		if st := rep.Stats(); st.SnapshotBytes == 0 || st.SnapshotPayloadBytes == 0 {
			t.Fatalf("bootstrap recorded no bytes: %+v", st)
		}

		// Concurrent local reads must never block or tear while syncs
		// replace the state underneath them (run with -race).
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := xrand.New(67)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if row := rep.Embedding(graph.NodeID(r.Intn(n))); len(row) != k {
					panic("short replica row")
				}
			}
		}()

		r := xrand.New(71)
		var live []graph.Edge
		var ack server.MutationResponse
		var err error
		for round := 0; round < rounds; round++ {
			batch := randEdges(r, n, 15)
			if ack, err = c.InsertEdges(ctx, batch); err != nil {
				t.Fatal(err)
			}
			live = append(live, batch...)
			if len(live) > 300 {
				if ack, err = c.DeleteEdges(ctx, live[:30]); err != nil {
					t.Fatal(err)
				}
				live = live[30:]
			}
			if round%8 == 7 {
				// A counts-changing relabel: the next delta spanning this
				// epoch must be a resync, on every shard (labels broadcast).
				if ack, err = c.UpdateLabels(ctx, []dyn.LabelUpdate{
					{V: graph.NodeID(r.Intn(n)), Class: int32(r.Intn(k))},
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Sync every other round so deltas span multiple epochs too.
			if round%2 == 1 {
				if _, err := rep.Sync(ctx); err != nil {
					t.Fatal(err)
				}
				// Read-your-writes through the follower: its vector covers
				// the last ack's.
				if got := rep.Snapshot().Epochs; !got.Covers(ack.Epochs) {
					t.Fatalf("replica vector %v does not cover last ack %v", got, ack.Epochs)
				}
				mustMatch(t, rep, p)
			}
		}
		close(stop)
		wg.Wait()

		st := rep.Stats()
		if st.Resyncs < 2 {
			t.Fatalf("counts-changing relabels never forced a resync: %+v", st)
		}
		if st.RowsApplied == 0 || st.Syncs <= st.Resyncs {
			t.Fatalf("no row-wise syncs happened: %+v", st)
		}
		if st.DeltaBytes == 0 || st.SnapshotBytes == 0 {
			t.Fatalf("byte accounting missing: %+v", st)
		}
		// Per-transfer, a row delta must be far cheaper than a snapshot
		// (the bootstrap plus one per resync): that asymmetry is the
		// reason the endpoint exists.
		rowSyncs := st.Syncs - st.Resyncs
		if st.DeltaBytes/rowSyncs*4 >= st.SnapshotBytes/(st.Resyncs+1) {
			t.Fatalf("mean delta not ≪ mean snapshot: %+v", st)
		}
		// Payload accounts 4 bytes per applied value (every value is a
		// float32) plus 4 per row id (labels add 8 each; the floor
		// ignores them).
		if min := st.RowsApplied * (int64(k)*4 + 4); st.DeltaPayloadBytes < min {
			t.Fatalf("delta payload %d B below the %d B floor for %d rows", st.DeltaPayloadBytes, min, st.RowsApplied)
		}
		t.Logf("replica: %d syncs (%d resyncs), %d rows applied, %d delta bytes vs %d snapshot bytes",
			st.Syncs, st.Resyncs, st.RowsApplied, st.DeltaBytes, st.SnapshotBytes)

		// An idle primary yields empty deltas, not a transfer.
		before := rep.Stats()
		for i := 0; i < 2; i++ {
			if resynced, err := rep.Sync(ctx); err != nil || resynced {
				t.Fatalf("idle sync: resynced=%v err=%v", resynced, err)
			}
		}
		if after := rep.Stats(); after.RowsApplied != before.RowsApplied || after.SnapshotBytes != before.SnapshotBytes {
			t.Fatalf("idle syncs transferred data: %+v -> %+v", before, after)
		}
		mustMatch(t, rep, p)
	})
}

// TestReplicaDetectsServerRestart covers the instance check, keyed on
// each section's own instance: a restarted server restarts its epoch
// counters, so a replica whose local epochs are "covered" by the new
// history must still discard its sections and refetch — applying the
// new instance's row deltas onto the old instance's base would silently
// corrupt every untouched row.
func TestReplicaDetectsServerRestart(t *testing.T) {
	eachTopology(t, func(t *testing.T, nShards int, wf client.Format) {
		const n, k = 80, 3
		ctx := context.Background()
		var current atomic.Pointer[http.Handler]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*current.Load()).ServeHTTP(w, r)
		}))
		defer ts.Close()
		c := client.New(ts.URL, ts.Client(), client.WithWire(wf))
		// Several batches per stack so both instances sit at epochs a
		// row delta could serve.
		mkStack := func(seed uint64, batches int) *primary {
			p := newPrimary(t, n, k, nShards, dyn.Options{})
			current.Store(&p.h)
			r := xrand.New(seed)
			for b := 0; b < batches; b++ {
				if _, err := c.InsertEdges(ctx, randEdges(r, n, 10)); err != nil {
					t.Fatal(err)
				}
			}
			return p
		}
		p1 := mkStack(83, 12)
		rep := client.NewReplica(c)
		if err := rep.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
		mustMatch(t, rep, p1)
		old := rep.Snapshot()

		// "Restart": the same address now serves a second stack —
		// different data, same shape, fresh epochs — advanced a little
		// further, so every replica epoch is strictly behind (the lag path
		// a naive epoch-only protocol would mis-serve as a row delta).
		p2 := mkStack(89, 14)
		for i, sh := range p2.shards {
			if sh.D.Epoch() <= old.Epochs[i] {
				t.Fatalf("test setup: new shard %d epoch %d not ahead of replica %d", i, sh.D.Epoch(), old.Epochs[i])
			}
			if sh.D.Instance() == old.Instances[i] {
				t.Fatalf("test setup: shard %d kept instance %d across the restart", i, old.Instances[i])
			}
		}
		resynced, err := rep.Sync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !resynced {
			t.Fatal("replica applied a cross-instance delta instead of resyncing")
		}
		mustMatch(t, rep, p2)
	})
}

// TestReplicaLagsWithoutResync checks that how far a follower lags does
// not decide whether it gets a delta: a replica left 200 publishes behind
// on every shard still catches up with changed rows alone — no section
// refetched — and equals the primary bit for bit. n is sized so the
// span's rows stay under half of each section, the one size rule left.
func TestReplicaLagsWithoutResync(t *testing.T) {
	eachTopology(t, func(t *testing.T, nShards int, wf client.Format) {
		const n, k, lag = 3000, 3, 200
		p := newPrimary(t, n, k, nShards, dyn.Options{})
		c := client.New(p.serve(t), nil, client.WithWire(wf))
		ctx := context.Background()
		rep := client.NewReplica(c)
		if resynced, err := rep.Sync(ctx); err != nil || !resynced { // first Sync bootstraps
			t.Fatalf("first sync: resynced=%v err=%v, want bootstrap", resynced, err)
		}
		// One edge inside one section per write, round robin, so every
		// shard publishes lag times.
		r := xrand.New(73)
		for round := 0; round < lag*nShards; round++ {
			lo, hi := p.part.Range(round % nShards)
			e := graph.Edge{U: lo + graph.NodeID(r.Intn(int(hi-lo))), V: lo + graph.NodeID(r.Intn(int(hi-lo))), W: 1}
			if _, err := c.InsertEdges(ctx, []graph.Edge{e}); err != nil {
				t.Fatal(err)
			}
		}
		for i, sh := range p.shards {
			if sh.D.Epoch() != lag {
				t.Fatalf("test setup: shard %d at epoch %d, want %d", i, sh.D.Epoch(), lag)
			}
		}
		before := rep.Stats()
		resynced, err := rep.Sync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if after := rep.Stats(); resynced || after.SnapshotBytes != before.SnapshotBytes || after.RowsApplied == before.RowsApplied {
			t.Fatalf("a replica %d publishes behind resynced=%v: %+v -> %+v", lag, resynced, before, after)
		}
		mustMatch(t, rep, p)
	})
}

// TestReplicaDeltaSyncAllocatesItsRows pins what a row delta costs the
// follower at the serving benchmark's scale (n = 100k, K = 10): a sync
// applying a 64-edge write's rows copies the pages holding them and
// shares every other page with the previous version, so it allocates
// under 5% of the n×K×4 bytes a float32 copy of the matrix would take —
// the primary's side of the round trip, in this same process, included.
// (The race detector's runtime allocates on its own; under -race only
// the rows are checked.)
func TestReplicaDeltaSyncAllocatesItsRows(t *testing.T) {
	eachTopology(t, func(t *testing.T, nShards int, wf client.Format) {
		const n, k = 100_000, 10
		p := newPrimary(t, n, k, nShards, dyn.Options{})
		c := client.New(p.serve(t), nil, client.WithWire(wf))
		ctx := context.Background()
		rep := client.NewReplica(c)
		if err := rep.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
		r := xrand.New(79)
		for round := 0; round < 6; round++ {
			if _, err := c.InsertEdges(ctx, randEdges(r, n, 64)); err != nil {
				t.Fatal(err)
			}
			if round == 0 { // warm the connection and the decoders
				if _, err := rep.Sync(ctx); err != nil {
					t.Fatal(err)
				}
				continue
			}
			before := rep.Stats()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			resynced, err := rep.Sync(ctx)
			runtime.ReadMemStats(&m1)
			if err != nil || resynced {
				t.Fatalf("round %d: resynced=%v err=%v, want a row delta", round, resynced, err)
			}
			applied, got := rep.Stats().RowsApplied-before.RowsApplied, m1.TotalAlloc-m0.TotalAlloc
			t.Logf("round %d: a sync applying %d rows allocated %d bytes", round, applied, got)
			if limit := uint64(n * k * 4 / 20); applied == 0 || (got >= limit && !race.Enabled) {
				t.Fatalf("round %d: a sync applying %d rows allocated %d bytes, want < %d", round, applied, got, limit)
			}
		}
		mustMatch(t, rep, p)
	})
}

// TestReplicaDeltaSyncRatchet pins the mean cost of a 64-edge delta
// sync at the serving benchmark's scale (n = 100k, K = 10, one shard):
// allocations and bytes per Sync, averaged in whole units over 100
// syncs the way testing.AllocsPerRun averages, the primary's side of
// each round trip included. Each write goes straight into the embedder
// between two readings, so only the syncs are counted. The bounds are
// this code's reading and only ever tighten. (The race detector's
// runtime allocates on its own, so the test needs a plain build.)
func TestReplicaDeltaSyncRatchet(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts need a build without the race detector")
	}
	const n, k, syncs = 100_000, 10, 100
	const maxAllocs, maxBytes = 248, 64_600
	p := newPrimary(t, n, k, 1, dyn.Options{})
	rep := client.NewReplica(client.New(p.serve(t), nil))
	ctx := context.Background()
	if err := rep.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(83)
	measure := func() (allocs, bytes uint64) {
		if err := p.shards[0].D.Apply(dyn.Batch{Insert: randEdges(r, n, 64)}); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		resynced, err := rep.Sync(ctx)
		runtime.ReadMemStats(&m1)
		if err != nil || resynced {
			t.Fatalf("resynced=%v err=%v, want a row delta", resynced, err)
		}
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure() // warm the connection and the pools
	var allocs, bytes uint64
	for range syncs {
		a, b := measure()
		allocs, bytes = allocs+a, bytes+b
	}
	allocs, bytes = allocs/syncs, bytes/syncs
	t.Logf("a 64-edge delta sync: %d allocations, %d bytes", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("a 64-edge delta sync made %d allocations of %d bytes, want ≤ %d and ≤ %d",
			allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestReplicaSnapshotsStayImmutable holds local versions across syncs
// that patch, resync and bootstrap under them, from concurrent readers
// (run with -race): every held version must read, row for row and label
// for label, exactly what it read when it was taken, however many later
// versions now share or replaced its pages.
func TestReplicaSnapshotsStayImmutable(t *testing.T) {
	eachTopology(t, func(t *testing.T, nShards int, wf client.Format) {
		const n, k, rounds = 700, 3, 30
		p := newPrimary(t, n, k, nShards, dyn.Options{})
		c := client.New(p.serve(t), nil, client.WithWire(wf))
		ctx := context.Background()
		rep := client.NewReplica(c)
		if err := rep.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
		type held struct {
			s    *client.ReplicaSnapshot
			rows []float64
			y    []int32
		}
		take := func(s *client.ReplicaSnapshot) held {
			h := held{s: s, rows: make([]float64, n*k), y: append([]int32(nil), s.Y...)}
			for v := range n {
				s.CopyRow(v, h.rows[v*k:])
			}
			return h
		}
		check := func(h held) error {
			row := make([]float64, k)
			for v := range n {
				for j, x := range h.s.CopyRow(v, row) {
					if x != h.rows[v*k+j] {
						return fmt.Errorf("epoch %d: row %d column %d is %v, was %v", h.s.Epoch, v, j, x, h.rows[v*k+j])
					}
				}
				if h.s.Y[v] != h.y[v] {
					return fmt.Errorf("epoch %d: label %d is %d, was %d", h.s.Epoch, v, h.s.Y[v], h.y[v])
				}
			}
			return nil
		}
		stop := make(chan struct{})
		errs := make(chan error, 2)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var keep []held
				for {
					select {
					case <-stop:
						for _, h := range keep {
							if err := check(h); err != nil {
								errs <- err
								return
							}
						}
						errs <- nil
						return
					default:
					}
					keep = append(keep, take(rep.Snapshot()))
					for _, h := range keep {
						if err := check(h); err != nil {
							errs <- err
							return
						}
					}
				}
			}()
		}
		r := xrand.New(97)
		for round := 0; round < rounds; round++ {
			if _, err := c.InsertEdges(ctx, randEdges(r, n, 12)); err != nil {
				t.Fatal(err)
			}
			switch round % 10 {
			case 4: // a count-changing move: the next sync resyncs
				if _, err := c.UpdateLabels(ctx, []dyn.LabelUpdate{{V: graph.NodeID(r.Intn(n)), Class: int32(r.Intn(k))}}); err != nil {
					t.Fatal(err)
				}
			case 9: // a fresh bootstrap replaces every section
				if err := rep.Bootstrap(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := rep.Sync(ctx); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		for g := 0; g < 2; g++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		mustMatch(t, rep, p)
	})
}

// TestReplicaRefusesJSON points a replica at a server that answers its
// snapshot and delta reads as JSON (content negotiation is outside
// input). A replica holds only the binary wire's float32 rows, so
// neither read is applied: the bootstrap fails and leaves no state, and
// a sync of a bootstrapped replica fails and keeps its version.
func TestReplicaRefusesJSON(t *testing.T) {
	p := newStaticPrimary(t)
	var answerJSON atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if answerJSON.Load() && r.URL.Path != "/v1/partition" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(server.SnapshotResponse{Epoch: 7, N: 2, K: 2})
			return
		}
		p.ServeHTTP(w, r)
	}))
	defer ts.Close()
	rep := client.NewReplica(client.New(ts.URL, nil, client.WithWire(client.Binary)))
	ctx := context.Background()
	answerJSON.Store(true)
	if err := rep.Bootstrap(ctx); err == nil || rep.Snapshot() != nil {
		t.Fatalf("bootstrap off JSON sections: err=%v, state %+v", err, rep.Snapshot())
	}
	answerJSON.Store(false)
	if err := rep.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	held := rep.Snapshot()
	p.mustHold(t, held)
	answerJSON.Store(true)
	if _, err := rep.Sync(ctx); err == nil {
		t.Fatal("a JSON delta was accepted")
	}
	if rep.Snapshot() != held {
		t.Fatal("a refused sync replaced the replica's version")
	}
	answerJSON.Store(false)
	if resynced, err := rep.Sync(ctx); err != nil || resynced || rep.Snapshot() != held {
		t.Fatalf("idle sync: resynced=%v err=%v", resynced, err)
	}
}
