package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dyn"
	"repro/internal/gee"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/mat"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/xrand"
)

// startServer builds an embedder + server + typed client over httptest
// and reports the base URL for raw HTTP access.
func startServer(t *testing.T, n int, y []int32, dopts dyn.Options, sopts server.Options) (*server.Server, *client.Client, string) {
	t.Helper()
	d, err := dyn.New(n, y, dopts)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(d, sopts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return s, client.New(ts.URL, ts.Client()), ts.URL
}

func fullLabels(n, k int) []int32 {
	y := make([]int32, n)
	for v := range y {
		y[v] = int32(v % k)
	}
	return y
}

// TestServerCoalescesConcurrentWrites is the tentpole acceptance check:
// many concurrent single-edge POSTs must be applied in far fewer folds
// than requests, and every ack's epoch must be at or after the epoch at
// which its edge became visible to GET /v1/embedding — checked by
// reading the edge back immediately after the ack: the read must show
// the edge and must not be older than the ack.
func TestServerCoalescesConcurrentWrites(t *testing.T) {
	const requests, k = 200, 4
	n := 2 * requests
	y := fullLabels(n, k)
	// ManualPublish forces the coalescer's settle path (publish on idle
	// or past MaxBatch pending ops).
	_, c, _ := startServer(t, n, y, dyn.Options{K: k, ManualPublish: true},
		server.Options{Coalescer: server.CoalescerOptions{MaxBatch: 1024, MaxDelay: 25 * time.Millisecond}})

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u, v := graph.NodeID(2*i), graph.NodeID(2*i+1)
			ack, err := c.InsertEdges(ctx, []graph.Edge{{U: u, V: v, W: 1}})
			if err != nil {
				errs <- err
				return
			}
			if ack.Epoch == 0 || ack.Applied != 1 {
				errs <- fmt.Errorf("ack %+v for edge %d", ack, i)
				return
			}
			// Read-your-write: the ack promises visibility at Epoch, so
			// a read issued after the ack (which always sees an epoch at
			// or after it) must already contain the edge's contribution.
			emb, err := c.Embedding(ctx, u)
			if err != nil {
				errs <- err
				return
			}
			if emb.Epoch < ack.Epoch {
				errs <- fmt.Errorf("read epoch %d older than ack epoch %d", emb.Epoch, ack.Epoch)
				return
			}
			if class := y[v]; emb.Row[class] <= 0 {
				errs <- fmt.Errorf("edge %d invisible after ack at epoch %d: row %v", i, ack.Epoch, emb.Row)
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
	co := st.Coalescer
	if co.Requests != requests || co.Rejected != 0 {
		t.Fatalf("coalescer requests=%d rejected=%d, want %d/0", co.Requests, co.Rejected, requests)
	}
	if co.Flushes*4 > co.Requests {
		t.Fatalf("coalescing failed: %d flushes for %d requests (want ≤ 1/4)", co.Flushes, co.Requests)
	}
	if co.Coalesced == 0 {
		t.Fatal("no request ever shared a micro-batch")
	}
	// The embedder saw micro-batches, not per-request folds; publishes
	// are amortized the same way.
	if st.Dyn.Batches != co.Flushes+co.Replays {
		t.Fatalf("dyn folded %d batches, coalescer flushed %d (+%d replays)",
			st.Dyn.Batches, co.Flushes, co.Replays)
	}
	if st.Dyn.Publishes*4 > int64(requests) {
		t.Fatalf("publishes not amortized: %d for %d requests", st.Dyn.Publishes, requests)
	}
	if st.Dyn.Inserts != requests {
		t.Fatalf("dyn applied %d inserts, want %d", st.Dyn.Inserts, requests)
	}
}

// TestServerIngestMatchesBatchEmbed drives a full ingest — concurrent
// edge inserts, label updates, then deletions — purely through the
// typed client and checks the final streamed snapshot equals a
// from-scratch batch Embed on the same graph within 1e-9.
func TestServerIngestMatchesBatchEmbed(t *testing.T) {
	const n, k, m, writers = 250, 5, 3000, 4
	y0 := labels.SampleSemiSupervised(n, k, 0.4, 31)
	_, c, _ := startServer(t, n, y0, dyn.Options{K: k, ManualPublish: true},
		server.Options{Coalescer: server.CoalescerOptions{MaxDelay: time.Millisecond}})
	ctx := context.Background()

	r := xrand.New(33)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)),
			W: float32(r.Intn(4) + 1),
		}
	}
	// Concurrent chunked inserts.
	var wg sync.WaitGroup
	chunk := (m + writers - 1) / writers
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, m)
		wg.Add(1)
		go func(part []graph.Edge) {
			defer wg.Done()
			for len(part) > 0 {
				sz := min(97, len(part))
				if _, err := c.InsertEdges(ctx, part[:sz]); err != nil {
					errs <- err
					return
				}
				part = part[sz:]
			}
		}(edges[lo:hi])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Label churn: move some vertices, unlabel a few.
	yFinal := append([]int32(nil), y0...)
	var ups []dyn.LabelUpdate
	for v := 0; v < n; v += 3 {
		class := int32((v + 1) % k)
		if v%9 == 0 {
			class = labels.Unknown
		}
		ups = append(ups, dyn.LabelUpdate{V: graph.NodeID(v), Class: class})
		yFinal[v] = class
	}
	if _, err := c.UpdateLabels(ctx, ups); err != nil {
		t.Fatal(err)
	}
	// Delete a slice of the live edges through the DELETE endpoint.
	if _, err := c.DeleteEdges(ctx, edges[:m/5]); err != nil {
		t.Fatal(err)
	}
	live := edges[m/5:]

	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.N != n || snap.K != k || snap.Edges != int64(len(live)) {
		t.Fatalf("snapshot shape n=%d k=%d edges=%d, want %d/%d/%d",
			snap.N, snap.K, snap.Edges, n, k, len(live))
	}
	for v := range yFinal {
		if snap.Y[v] != yFinal[v] {
			t.Fatalf("label of %d drifted: %d vs %d", v, snap.Y[v], yFinal[v])
		}
	}
	want, err := gee.Embed(gee.Reference, &graph.EdgeList{N: n, Edges: live},
		yFinal, gee.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	got := mat.FromRows(snap.Z)
	if !want.Z.EqualTol(got, 1e-9) {
		t.Fatalf("served snapshot deviates from batch embed by %v", want.Z.MaxAbsDiff(got))
	}
}

// TestServerReadsAndErrors covers the small read endpoints and the
// HTTP error mapping.
func TestServerReadsAndErrors(t *testing.T) {
	const n, k = 20, 2
	_, c, _ := startServer(t, n, fullLabels(n, k), dyn.Options{K: k}, server.Options{})
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.N != n || h.K != k {
		t.Fatalf("health %+v", h)
	}
	if _, err := c.InsertEdges(ctx, []graph.Edge{{U: 0, V: 1, W: 2}}); err != nil {
		t.Fatal(err)
	}
	emb, err := c.Embedding(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(emb.Row) != k || emb.V != 0 {
		t.Fatalf("embedding %+v", emb)
	}
	// Validation errors surface as 400 with the dyn message.
	if _, err := c.InsertEdges(ctx, []graph.Edge{{U: 999, V: 0, W: 1}}); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range insert: %v", err)
	}
	if _, err := c.Embedding(ctx, 999); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("out-of-range embedding: %v", err)
	}
	// An empty mutation is acknowledged without entering the queue.
	ack, err := c.InsertEdges(ctx, nil)
	if err != nil || ack.Applied != 0 {
		t.Fatalf("empty insert: %+v %v", ack, err)
	}
}

// TestServerBatchedEmbeddings checks POST /v1/embeddings: all rows
// come from one snapshot, order (and duplicates) follow the request,
// and any out-of-range vertex fails the whole read.
func TestServerBatchedEmbeddings(t *testing.T) {
	const n, k = 60, 3
	_, c, _ := startServer(t, n, fullLabels(n, k), dyn.Options{K: k}, server.Options{})
	ctx := context.Background()
	if _, err := c.InsertEdges(ctx, []graph.Edge{{U: 3, V: 4, W: 2}, {U: 59, V: 0, W: 1}}); err != nil {
		t.Fatal(err)
	}
	vs := []graph.NodeID{3, 0, 59, 3}
	out, err := c.Embeddings(ctx, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != len(vs) {
		t.Fatalf("%d rows for %d vertices", len(out.Rows), len(vs))
	}
	for i, v := range vs {
		single, err := c.Embedding(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		if single.Epoch != out.Epoch {
			t.Fatalf("epoch drifted between reads on an idle server: %d vs %d", single.Epoch, out.Epoch)
		}
		for col := range single.Row {
			if out.Rows[i][col] != single.Row[col] {
				t.Fatalf("batched row for %d differs from single read: %v vs %v", v, out.Rows[i], single.Row)
			}
		}
	}
	if out.Rows[0][fullLabels(n, k)[4]] <= 0 {
		t.Fatalf("row of vertex 3 missing the inserted edge: %v", out.Rows[0])
	}
	// Whole-request failure on any bad vertex.
	if _, err := c.Embeddings(ctx, []graph.NodeID{1, 999}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("out-of-range batched read: %v", err)
	}
	// Empty batch: the epoch alone.
	out, err = c.Embeddings(ctx, nil)
	if err != nil || len(out.Rows) != 0 || out.Epoch == 0 {
		t.Fatalf("empty batched read: %+v %v", out, err)
	}
}

// TestServerNeighbors checks POST /v1/neighbors against a local TopK
// over the fetched snapshot for both metrics, plus the error mapping.
func TestServerNeighbors(t *testing.T) {
	const n, k, m, topk = 80, 4, 600, 7
	_, c, base := startServer(t, n, fullLabels(n, k), dyn.Options{K: k}, server.Options{})
	ctx := context.Background()
	r := xrand.New(53)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)),
			W: float32(r.Intn(3) + 1),
		}
	}
	if _, err := c.InsertEdges(ctx, edges); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	Z := mat.FromRows(snap.Z)
	for _, metric := range []string{"", "l2", "cosine"} {
		res, err := c.Neighbors(ctx, server.NeighborsRequest{V: 5, K: topk, Metric: metric})
		if err != nil {
			t.Fatalf("metric %q: %v", metric, err)
		}
		wantName := metric
		if wantName == "" {
			wantName = "l2"
		}
		if res.Metric != wantName || res.V != 5 || res.Epoch != snap.Epoch {
			t.Fatalf("metric %q response header: %+v", metric, res)
		}
		// An exact answer is computed against the live snapshot: the
		// reported index epoch is the published epoch itself.
		if res.Mode != "exact" || res.IndexEpoch != res.Epoch {
			t.Fatalf("metric %q mode/index epoch: %+v", metric, res)
		}
		cm := cluster.L2
		if wantName == "cosine" {
			cm = cluster.Cosine
		}
		want := cluster.TopK(0, Z, Z.Row(5), topk, cm, 5)
		if len(res.Neighbors) != len(want) {
			t.Fatalf("metric %q: %d neighbors, want %d", metric, len(res.Neighbors), len(want))
		}
		for i, nb := range res.Neighbors {
			if int(nb.V) == 5 {
				t.Fatalf("metric %q: query vertex in its own neighbors", metric)
			}
			if int(nb.V) != want[i].V || nb.Dist != want[i].Dist {
				t.Fatalf("metric %q neighbor %d: got (%d, %v), want (%d, %v)",
					metric, i, nb.V, nb.Dist, want[i].V, want[i].Dist)
			}
			if i > 0 && nb.Dist < res.Neighbors[i-1].Dist {
				t.Fatalf("metric %q: distances not ascending: %+v", metric, res.Neighbors)
			}
		}
	}
	if _, err := c.Neighbors(ctx, server.NeighborsRequest{V: 5, K: 0}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("k=0 accepted: %v", err)
	}
	// An attacker-sized k is clamped to the row count, not allocated.
	if res, err := c.Neighbors(ctx, server.NeighborsRequest{V: 5, K: 1 << 40}); err != nil || len(res.Neighbors) != n-1 {
		t.Fatalf("huge k: %d neighbors, err %v (want %d, nil)", len(res.Neighbors), err, n-1)
	}
	if _, err := c.Neighbors(ctx, server.NeighborsRequest{V: 5, K: 3, Metric: "manhattan"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown metric accepted: %v", err)
	}
	if _, err := c.Neighbors(ctx, server.NeighborsRequest{V: 999, K: 3}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("out-of-range vertex accepted: %v", err)
	}
	if _, err := c.Neighbors(ctx, server.NeighborsRequest{V: 5, K: 3, Mode: "fuzzy"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown mode accepted: %v", err)
	}
	// The index answers exactly, so there is no probe count to ask for:
	// a body still sending one is an unknown field, refused whatever
	// the mode.
	for _, body := range []string{
		`{"v":5,"k":3,"mode":"approx","nprobe":-1}`,
		`{"v":5,"k":3,"mode":"approx","nprobe":2}`,
		`{"v":5,"k":3,"nprobe":2}`,
	} {
		resp, err := http.Post(base+"/v1/neighbors", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	// No approx request has reached the search yet, so the index is
	// cold: the first one is served exactly — and says so — while it
	// kicks the build.
	res, err := c.Neighbors(ctx, server.NeighborsRequest{V: 5, K: topk, Mode: "approx"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "exact" || res.IndexEpoch != res.Epoch {
		t.Fatalf("cold approx request not served exact: %+v", res)
	}
	want := cluster.TopK(0, Z, Z.Row(5), topk, cluster.L2, 5)
	for i, nb := range res.Neighbors {
		if int(nb.V) != want[i].V || nb.Dist != want[i].Dist {
			t.Fatalf("cold approx neighbor %d: got (%d, %v), want (%d, %v)",
				i, nb.V, nb.Dist, want[i].V, want[i].Dist)
		}
	}
}

// TestServerNeighborsApprox drives the IVF read path end to end: the
// first approx query on a cold index is answered exactly (and kicks the
// asynchronous build), later ones answer from the index with the epoch
// they were computed against, a full-probe approx answer equals the
// exact scan, and after churn the index converges back to the published
// epoch without ever blocking a query.
func TestServerNeighborsApprox(t *testing.T) {
	const n, k, m, topk = 3000, 6, 9000, 10
	_, c, base := startServer(t, n, fullLabels(n, k), dyn.Options{K: k}, server.Options{})
	ctx := context.Background()
	r := xrand.New(71)
	edges := make([]graph.Edge, m)
	for i := range edges {
		// Block-structured edges (u ≡ v mod k) so the embedding is the
		// clustered shape the index defaults target.
		u := r.Intn(n)
		v := u%k + k*r.Intn((n-1-u%k)/k+1)
		edges[i] = graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: float32(r.Intn(3) + 1)}
	}
	if _, err := c.InsertEdges(ctx, edges); err != nil {
		t.Fatal(err)
	}

	// Cold: the very first approx query cannot have an index yet.
	res, err := c.Neighbors(ctx, server.NeighborsRequest{V: 3, K: topk, Mode: "approx"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "exact" || res.IndexEpoch != res.Epoch {
		t.Fatalf("cold approx query should fall back to exact: %+v", res)
	}
	// The fallback kicked an async build; poll until the index answers.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if res, err = c.Neighbors(ctx, server.NeighborsRequest{V: 3, K: topk, Mode: "approx"}); err != nil {
			t.Fatal(err)
		}
		if res.Mode == "approx" && res.IndexEpoch == res.Epoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("index never became current: %+v", res)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Index.Builds == 0 || st.Index.Lists == 0 ||
		st.Index.Epoch != res.IndexEpoch || st.Index.Stale {
		t.Fatalf("index stats after build: %+v", st.Index)
	}

	// An indexed answer is exact: identical to the brute-force scan
	// (the server is idle, so both run against the same epoch).
	for _, v := range []graph.NodeID{3, 100, 2999} {
		for _, metric := range []string{"l2", "cosine"} {
			exact, err := c.Neighbors(ctx, server.NeighborsRequest{V: v, K: topk, Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			indexed, err := c.Neighbors(ctx, server.NeighborsRequest{V: v, K: topk, Metric: metric, Mode: "approx"})
			if err != nil {
				t.Fatal(err)
			}
			if indexed.Mode != "approx" || indexed.IndexEpoch != exact.Epoch {
				t.Fatalf("indexed header: %+v vs exact %+v", indexed, exact)
			}
			if len(indexed.Neighbors) != len(exact.Neighbors) {
				t.Fatalf("v=%d %s: index %d neighbors, exact %d", v, metric, len(indexed.Neighbors), len(exact.Neighbors))
			}
			for i := range exact.Neighbors {
				if indexed.Neighbors[i] != exact.Neighbors[i] {
					t.Fatalf("v=%d %s neighbor %d: index %+v, exact %+v",
						v, metric, i, indexed.Neighbors[i], exact.Neighbors[i])
				}
			}
		}
	}
	// An indexed answer's search span says how much of the index the
	// walk read: some lists, and fewer distinct rows than the matrix has.
	resp, err := http.Get(base + "/debug/traces?name=POST%20/v1/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	var dump server.TracesResponse
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	walked := 0
	for _, tw := range dump.Recent {
		for _, sp := range tw.Spans {
			if sp.Name != "search" || sp.Tags["mode"] != "approx" {
				continue
			}
			lists, rows := sp.Tags["lists"], sp.Tags["rows"]
			var nl, nr int
			if _, err := fmt.Sscan(lists, &nl); err != nil || nl < 1 || nl > st.Index.Lists {
				t.Fatalf("search span lists tag %q (index has %d lists)", lists, st.Index.Lists)
			}
			if _, err := fmt.Sscan(rows, &nr); err != nil || nr < 1 || nr >= n {
				t.Fatalf("search span rows tag %q (n = %d)", rows, n)
			}
			walked++
		}
	}
	if walked == 0 {
		t.Fatal("no retained neighbors trace has an indexed search span")
	}

	// Churn: the published epoch moves ahead of the index. Queries keep
	// answering (from the stale index — IndexEpoch never exceeds the
	// published epoch) and the index converges once ingest stops.
	if _, err := c.InsertEdges(ctx, edges[:100]); err != nil {
		t.Fatal(err)
	}
	stale, err := c.Neighbors(ctx, server.NeighborsRequest{V: 3, K: topk, Mode: "approx"})
	if err != nil {
		t.Fatal(err)
	}
	if stale.Mode != "approx" || stale.IndexEpoch > stale.Epoch {
		t.Fatalf("post-churn approx answer: %+v", stale)
	}
	for {
		if res, err = c.Neighbors(ctx, server.NeighborsRequest{V: 3, K: topk, Mode: "approx"}); err != nil {
			t.Fatal(err)
		}
		if res.Mode == "approx" && res.IndexEpoch == res.Epoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("index never reconverged after churn: %+v", res)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerRejectsBadEdgeWeights is the regression test for the
// silent weight rewrite: an explicit "w":0 used to be mutated into
// weight 1 and acked — it must be a 400, as must negative weights. An
// *omitted* weight still means 1 (proved by deleting with an explicit
// w:1, which requires an exact match).
func TestServerRejectsBadEdgeWeights(t *testing.T) {
	const n, k = 10, 2
	_, c, base := startServer(t, n, fullLabels(n, k), dyn.Options{K: k}, server.Options{})
	ctx := context.Background()

	for _, tc := range []struct{ name, body string }{
		{"explicit zero", `{"edges":[{"u":0,"v":1,"w":0}]}`},
		{"negative", `{"edges":[{"u":0,"v":1,"w":-2}]}`},
	} {
		resp, err := http.Post(base+"/v1/edges", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e server.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (error %q)", tc.name, resp.StatusCode, e.Error)
		}
		if !strings.Contains(e.Error, "weight") {
			t.Fatalf("%s: error does not name the weight: %q", tc.name, e.Error)
		}
	}
	// Nothing was applied by the rejected requests.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dyn.Inserts != 0 {
		t.Fatalf("rejected weights still applied %d inserts", st.Dyn.Inserts)
	}
	// Omitted weight means 1: the edge can be deleted by exact match.
	resp, err := http.Post(base+"/v1/edges", "application/json",
		strings.NewReader(`{"edges":[{"u":0,"v":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("omitted weight rejected: status %d", resp.StatusCode)
	}
	if _, err := c.DeleteEdges(ctx, []graph.Edge{{U: 0, V: 1, W: 1}}); err != nil {
		t.Fatalf("omitted weight did not default to 1: %v", err)
	}
}

// TestServerReadHeaderTimeout is the Slowloris regression test: a
// client that opens a connection and never finishes its headers used
// to hold it forever (the http.Server set no timeouts); now the server
// closes it after ReadHeaderTimeout.
func TestServerReadHeaderTimeout(t *testing.T) {
	d, err := dyn.New(10, fullLabels(10, 2), dyn.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(d, server.Options{ReadHeaderTimeout: 100 * time.Millisecond})
	defer s.Close()
	addrCh := make(chan net.Addr, 1)
	go func() {
		if err := s.ListenAndServe("127.0.0.1:0", func(a net.Addr) { addrCh <- a }); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	addr := <-addrCh

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Start a request but stall mid-headers, forever.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// Our own deadline is the failure detector: on the old, timeoutless
	// server this read blocks until it fires.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	_, err = conn.Read(buf)
	if err == nil || os.IsTimeout(err) {
		t.Fatalf("server did not close the stalled connection (read err %v after %v)", err, time.Since(start))
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("connection closed only after %v", waited)
	}
}

// TestServerBatchedReadCap is the read-amplification regression test:
// a duplicate-heavy vs list within the body-size bound used to stream
// an arbitrarily large response; now the vertex count is capped at
// 8192 and the limit is named in the 400.
func TestServerBatchedReadCap(t *testing.T) {
	const n, k, limit = 30, 2, 8192
	_, c, _ := startServer(t, n, fullLabels(n, k), dyn.Options{K: k}, server.Options{})
	ctx := context.Background()
	vs := make([]graph.NodeID, limit+1)
	for i := range vs {
		vs[i] = graph.NodeID(i % n)
	}
	if _, err := c.Embeddings(ctx, vs[:limit]); err != nil {
		t.Fatalf("at-limit read rejected: %v", err)
	}
	_, err := c.Embeddings(ctx, vs)
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "limit of 8192") {
		t.Fatalf("over-limit read: %v", err)
	}
	// The cap is per request, not cumulative: the next read still works.
	if _, err := c.Embeddings(ctx, []graph.NodeID{5}); err != nil {
		t.Fatal(err)
	}
}

// fetchBytes GETs a URL and returns the body size in bytes.
func fetchBytes(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestServerDeltaEndpoint checks GET /v1/delta end to end: a churn
// window without relabels is served as a row delta whose payload is an
// order of magnitude smaller than the full snapshot, applying it to a
// held copy reproduces the new snapshot bit-for-bit, and a
// counts-changing relabel flips the response to the resync signal.
func TestServerDeltaEndpoint(t *testing.T) {
	const n, k = 4000, 8
	_, c, base := startServer(t, n, fullLabels(n, k), dyn.Options{K: k}, server.Options{})
	ctx := context.Background()

	// Seed a bulk graph, then hold its snapshot as the follower state.
	r := xrand.New(59)
	bulk := make([]graph.Edge, 3*n)
	for i := range bulk {
		bulk[i] = graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: 1}
	}
	if _, err := c.InsertEdges(ctx, bulk); err != nil {
		t.Fatal(err)
	}
	held, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// A small churn window: insert + delete, no relabels.
	if _, err := c.InsertEdges(ctx, []graph.Edge{{U: 1, V: 2, W: 1}, {U: 7, V: 9, W: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteEdges(ctx, bulk[:10]); err != nil {
		t.Fatal(err)
	}
	dl, err := c.Delta(ctx, held.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if dl.Resync {
		t.Fatal("no-relabel churn window answered with resync")
	}
	if dl.From != held.Epoch || len(dl.Rows) == 0 || len(dl.Z) != len(dl.Rows) {
		t.Fatalf("delta shape: %+v", dl)
	}
	// Apply to the held copy and compare with the served snapshot.
	for i, v := range dl.Rows {
		held.Z[v] = dl.Z[i]
	}
	for _, l := range dl.Labels {
		held.Y[l.V] = l.Class
	}
	now, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if now.Epoch != dl.Epoch || now.Edges != dl.Edges {
		t.Fatalf("delta epoch/edges %d/%d vs snapshot %d/%d", dl.Epoch, dl.Edges, now.Epoch, now.Edges)
	}
	for v := 0; v < n; v++ {
		for col := 0; col < k; col++ {
			if held.Z[v][col] != now.Z[v][col] {
				t.Fatalf("delta-advanced copy differs at (%d,%d): %v vs %v",
					v, col, held.Z[v][col], now.Z[v][col])
			}
		}
	}

	// The whole point: the delta payload is far smaller than the
	// snapshot payload it replaces.
	deltaBytes := fetchBytes(t, fmt.Sprintf("%s/v1/delta?from=%d", base, held.Epoch))
	snapBytes := fetchBytes(t, base+"/v1/snapshot")
	if deltaBytes*10 >= snapBytes {
		t.Fatalf("delta payload not ≪ snapshot: %d vs %d bytes", deltaBytes, snapBytes)
	}
	t.Logf("delta %d bytes vs snapshot %d bytes (%.1f×)", deltaBytes, snapBytes, float64(snapBytes)/float64(deltaBytes))

	// A counts-changing relabel cannot be row-served: resync.
	if _, err := c.UpdateLabels(ctx, []dyn.LabelUpdate{{V: 0, Class: 1}}); err != nil {
		t.Fatal(err)
	}
	dl, err = c.Delta(ctx, now.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !dl.Resync {
		t.Fatal("counts-changing relabel served as a row delta")
	}
	// Malformed from parameter → 400.
	resp, err := http.Get(base + "/v1/delta?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from param: status %d", resp.StatusCode)
	}
}

// TestServerMalformedBodies exercises the raw HTTP surface the typed
// client never produces.
func TestServerMalformedBodies(t *testing.T) {
	d, err := dyn.New(10, fullLabels(10, 2), dyn.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(d, server.Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad json", http.MethodPost, "/v1/edges", `{"edges":[`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/edges", `{"edgez":[]}`, http.StatusBadRequest},
		{"bad vertex", http.MethodGet, "/v1/embedding/xyz", "", http.StatusBadRequest},
		{"wrong method", http.MethodPut, "/v1/edges", `{}`, http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}
