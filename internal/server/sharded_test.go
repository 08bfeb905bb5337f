package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/shard"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// startShardedServer builds a vertex-partitioned shard set behind a
// scatter-gather server over httptest, labels seeded round-robin.
func startShardedServer(t *testing.T, n, k, nShards int, dopts dyn.Options, sopts server.Options) (*server.Server, *client.Client, string) {
	t.Helper()
	p, err := shard.NewPartition(n, nShards)
	if err != nil {
		t.Fatal(err)
	}
	dopts.K = k
	shs, err := shard.NewShards(p, fullLabels(n, k), dopts)
	if err != nil {
		t.Fatal(err)
	}
	s := server.NewSharded(p, shs, sopts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return s, client.New(ts.URL, ts.Client()), ts.URL
}

// TestShardedReadYourWrites is the sharded tentpole acceptance check:
// a write acked with epoch vector E must be visible to any subsequent
// read whose per-shard vector covers E — exercised with concurrent
// cut-edge writes whose endpoints deliberately span two shards.
func TestShardedReadYourWrites(t *testing.T) {
	const n, k, nShards, requests = 800, 4, 4, 64
	const width = n / nShards
	_, c, _ := startShardedServer(t, n, k, nShards, dyn.Options{}, server.Options{})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// u and v on different shards: every edge is cut, so the ack
			// vector must name both owners.
			su, sv := i%nShards, (i+1)%nShards
			u := graph.NodeID(su*width + i%width)
			v := graph.NodeID(sv*width + (i*7)%width)
			ack, err := c.InsertEdges(ctx, []graph.Edge{{U: u, V: v, W: 1}})
			if err != nil {
				errs <- err
				return
			}
			if _, ok := ack.Epochs[su]; !ok {
				errs <- fmt.Errorf("ack vector %v missing owner %d of u=%d", ack.Epochs, su, u)
				return
			}
			if _, ok := ack.Epochs[sv]; !ok {
				errs <- fmt.Errorf("ack vector %v missing owner %d of v=%d", ack.Epochs, sv, v)
				return
			}
			for s, e := range ack.Epochs {
				if e == 0 {
					errs <- fmt.Errorf("ack vector %v has epoch 0 for shard %d", ack.Epochs, s)
					return
				}
			}
			if ack.Epoch != ack.Epochs.Max() {
				errs <- fmt.Errorf("scalar ack epoch %d != max of vector %v", ack.Epoch, ack.Epochs)
				return
			}
			// Read-your-writes: a post-ack read's vector covers the ack's
			// and the edge's contribution is present in u's row.
			resp, err := c.Embeddings(ctx, []graph.NodeID{u, v})
			if err != nil {
				errs <- err
				return
			}
			if !resp.Epochs.Covers(ack.Epochs) {
				errs <- fmt.Errorf("read vector %v does not cover ack vector %v", resp.Epochs, ack.Epochs)
				return
			}
			if class := int(v) % k; resp.Rows[0][class] <= 0 {
				errs <- fmt.Errorf("edge (%d,%d) invisible after ack %v: row %v", u, v, ack.Epochs, resp.Rows[0])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != nShards || len(st.Epochs) != nShards {
		t.Fatalf("statsz: %d shard entries, %d epoch-vector entries, want %d", len(st.Shards), len(st.Epochs), nShards)
	}
	var requestsSeen int64
	for _, ss := range st.Shards {
		requestsSeen += ss.Coalescer.Requests
	}
	// Every edge was cut, so each write fanned out to two shards.
	if requestsSeen != 2*requests {
		t.Fatalf("per-shard coalescer requests sum to %d, want %d (every write scattered to 2 owners)", requestsSeen, 2*requests)
	}
}

// TestShardedSectionProtocol pins the ?shard= contract: /v1/partition
// describes the layout, sections require an explicit shard id, and out
// of range ids are a 400, not a panic or an empty body.
func TestShardedSectionProtocol(t *testing.T) {
	const n, k, nShards = 90, 3, 3
	_, c, base := startShardedServer(t, n, k, nShards, dyn.Options{}, server.Options{})
	ctx := context.Background()
	meta, err := c.Partition(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Shards != nShards || meta.N != n || meta.K != k || len(meta.Bounds) != nShards+1 {
		t.Fatalf("partition meta %+v, want %d shards over n=%d k=%d", meta, nShards, n, k)
	}
	if len(meta.Instances) != nShards || len(meta.Epochs) != nShards {
		t.Fatalf("partition meta instances=%v epochs=%v, want %d entries each", meta.Instances, meta.Epochs, nShards)
	}
	for _, path := range []string{"/v1/snapshot", "/v1/delta?from=0", "/v1/snapshot?shard=9", "/v1/snapshot?shard=x"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
	// A well-formed section read round-trips and matches the partition.
	for i := 0; i < nShards; i++ {
		sec, err := c.SnapshotShard(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := int(meta.Bounds[i]), int(meta.Bounds[i+1])
		if sec.N != hi-lo || sec.K != k {
			t.Fatalf("shard %d section n=%d k=%d, want window [%d,%d) k=%d", i, sec.N, sec.K, lo, hi, k)
		}
		if i > 0 && int(sec.Lo) != lo {
			t.Fatalf("shard %d section lo=%d, want %d", i, sec.Lo, lo)
		}
	}
}

// TestServedMatchesReference is the parity property, shard count as
// data: a server over 1, 2 or 4 shards and a bare dyn.DynamicEmbedder
// are fed the same insert/delete/relabel schedule (serial folds, so the
// published floats agree bit for bit). The served rows must equal the
// reference's, exact /v1/neighbors must equal cluster.TopK over the
// reference snapshot id-for-id, and a follower over each wire format,
// synced along the way, must end bit-identical to the reference (the
// binary one to its float32 image — the only transform that wire
// applies). Neighbor ties are tolerated the way the recall rule
// tolerates them: an id mismatch at a rank is legal only when the two
// distances are equal within a relative epsilon (duplicate rows are
// legitimately interchangeable).
func TestServedMatchesReference(t *testing.T) {
	for _, nShards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			const n, k = 400, 5
			dopts := dyn.Options{K: k, Workers: 1}
			ref, err := dyn.New(n, fullLabels(n, k), dopts)
			if err != nil {
				t.Fatal(err)
			}
			_, c, base := startShardedServer(t, n, k, nShards, dopts, server.Options{})
			ctx := context.Background()
			followers := map[client.Format]*client.Replica{}
			for _, wf := range []client.Format{client.JSON, client.Binary} {
				followers[wf] = client.NewReplica(client.New(base, nil, client.WithWire(wf)))
			}
			syncAll := func() {
				t.Helper()
				for wf, rep := range followers {
					if _, err := rep.Sync(ctx); err != nil {
						t.Fatalf("%s follower: %v", wf, err)
					}
				}
			}
			syncAll() // bootstrap before the schedule, so deltas carry it

			r := xrand.New(7)
			randBatch := func(m int) []graph.Edge {
				edges := make([]graph.Edge, m)
				for i := range edges {
					u := r.Intn(n)
					v := r.Intn(n)
					if u == v {
						v = (v + 1) % n
					}
					edges[i] = graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: float32(r.Intn(3) + 1)}
				}
				return edges
			}
			// step applies one batch to both sides; the reference sees it
			// whole, exactly as the acked request carried it.
			step := func(b dyn.Batch, send func() error) {
				t.Helper()
				if err := ref.Apply(b); err != nil {
					t.Fatal(err)
				}
				if err := send(); err != nil {
					t.Fatal(err)
				}
			}
			var live [][]graph.Edge
			for b := 0; b < 20; b++ {
				edges := randBatch(60)
				step(dyn.Batch{Insert: edges}, func() error { _, err := c.InsertEdges(ctx, edges); return err })
				live = append(live, edges)
				if len(live) > 6 {
					gone := live[0]
					step(dyn.Batch{Delete: gone}, func() error { _, err := c.DeleteEdges(ctx, gone); return err })
					live = live[1:]
				}
				if b%5 == 0 {
					ups := []dyn.LabelUpdate{{V: graph.NodeID(r.Intn(n)), Class: int32(r.Intn(k))}}
					step(dyn.Batch{Labels: ups}, func() error { _, err := c.UpdateLabels(ctx, ups); return err })
				}
				if b%3 == 0 {
					syncAll()
				}
			}
			syncAll()
			want := ref.Snapshot()

			// Served rows and labels, section by section.
			meta, err := c.Partition(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Shards != nShards {
				t.Fatalf("partition reports %d shards, want %d", meta.Shards, nShards)
			}
			for i := 0; i < nShards; i++ {
				sec, err := c.SnapshotShard(ctx, i)
				if err != nil {
					t.Fatal(err)
				}
				lo := int(meta.Bounds[i])
				for u, row := range sec.Z {
					if sec.Y[u] != want.Y[lo+u] {
						t.Fatalf("served label of %d is %d, reference %d", lo+u, sec.Y[u], want.Y[lo+u])
					}
					for col, x := range row {
						if x != want.Z.At(lo+u, col) {
							t.Fatalf("served Z[%d][%d] = %v, reference %v (not bit-identical)", lo+u, col, x, want.Z.At(lo+u, col))
						}
					}
				}
			}

			// Followers, over both wire formats.
			row := make([]float64, k)
			for wf, rep := range followers {
				s := rep.Snapshot()
				if len(s.Epochs) != nShards || len(s.Instances) != nShards {
					t.Fatalf("%s follower: epochs %v instances %v, want %d entries each", wf, s.Epochs, s.Instances, nShards)
				}
				for v := 0; v < n; v++ {
					if s.Y[v] != want.Y[v] {
						t.Fatalf("%s follower: label of %d is %d, reference %d", wf, v, s.Y[v], want.Y[v])
					}
					for col, x := range s.CopyRow(v, row) {
						w := want.Z.At(v, col)
						if wf == client.Binary {
							w = float64(float32(w))
						}
						if x != w {
							t.Fatalf("%s follower: Z[%d][%d] = %v, reference %v (not bit-identical)", wf, v, col, x, w)
						}
					}
				}
			}

			// Exact neighbors against the reference scan.
			for name, metric := range map[string]cluster.Metric{"l2": cluster.L2, "cosine": cluster.Cosine} {
				for q := 0; q < 25; q++ {
					v := r.Intn(n)
					got, err := c.Neighbors(ctx, server.NeighborsRequest{V: graph.NodeID(v), K: 12, Metric: name})
					if err != nil {
						t.Fatal(err)
					}
					nbrs := cluster.TopK(1, want.Z, want.Z.Row(v), 12, metric, v)
					if len(got.Neighbors) != len(nbrs) {
						t.Fatalf("%s v=%d: %d served neighbors vs %d reference", name, v, len(got.Neighbors), len(nbrs))
					}
					if len(got.Epochs) != nShards {
						t.Fatalf("%s v=%d: response epoch vector %v, want %d entries", name, v, got.Epochs, nShards)
					}
					for j, w := range nbrs {
						g := got.Neighbors[j]
						if int(g.V) == w.V && g.Dist == w.Dist {
							continue
						}
						eps := 1e-12 + 1e-12*math.Abs(w.Dist)
						if math.Abs(g.Dist-w.Dist) > eps {
							t.Fatalf("%s v=%d rank %d: served (%d, %.17g) vs reference (%d, %.17g)",
								name, v, j, g.V, g.Dist, w.V, w.Dist)
						}
					}
				}
			}
		})
	}
}

// TestShardedEmbeddingsAnswersJSON pins the sharded batched-read
// format: a binary frame carries one epoch/instance pair, which a
// scatter read doesn't have, so the endpoint answers JSON (with the
// epoch vector) even when the client negotiates frames.
func TestShardedEmbeddingsAnswersJSON(t *testing.T) {
	const n, k, nShards = 90, 3, 3
	_, _, base := startShardedServer(t, n, k, nShards, dyn.Options{}, server.Options{})
	req, err := http.NewRequest(http.MethodPost, base+"/v1/embeddings",
		bytes.NewReader([]byte(`{"vs":[1,40,80]}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.ContentType+", application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json (sharded batch reads have no frame form)", ct)
	}
	var out server.BatchEmbeddingResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 || len(out.Epochs) != nShards {
		t.Fatalf("rows=%d epochs=%v, want 3 rows and a %d-entry vector", len(out.Rows), out.Epochs, nShards)
	}
}
