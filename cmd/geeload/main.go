// Command geeload is a closed-loop load generator for the GEE serving
// API (internal/server): a configurable mix of writer goroutines
// (batched edge inserts, with optional deletes of their own earlier
// batches) and read-side goroutines — single-row embedding queries,
// batched multi-vertex reads, top-k neighbor searches, and replica
// followers syncing over /v1/delta — drives a running server, e.g.
// `geeserve -serve :8080`, for a fixed duration and reports the
// achieved per-endpoint throughput.
//
// Closed loop means every worker waits for its previous request's
// response (for writes: the publish ack) before issuing the next, so
// the reported rates are acknowledged end-to-end throughput, not an
// open-loop submission rate. Writers that hit ingest backpressure
// (HTTP 429) back off briefly and retry; the retry count is reported.
//
// With -replica-verify, after the load window closes each replica is
// synced onto the primary's published epoch vector and compared row by
// row against every shard's /v1/snapshot section, read as a binary
// frame — every float must be bit-identical, or the run fails. This is
// the end-to-end check that delta streaming loses nothing.
//
// -wire selects the encoding the batched readers ask for: json (the
// default) or binary (the compact frame format). Replicas always read
// frames, whatever -wire says; the replica lines report their bytes
// per sync.
//
//	geeload -addr http://127.0.0.1:8080 -duration 5s -writers 4 -readers 4
//	geeload -addr ... -batch-readers 2 -neighbor-readers 2 -replicas 2 -replica-verify
//	geeload -addr ... -batch-readers 2 -wire binary
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/shard"
	"repro/internal/xrand"
)

type config struct {
	addr          string
	duration      time.Duration
	writers       int
	readers       int
	batchReaders  int
	readBatch     int
	nbrReaders    int
	nbrK          int
	nbrMetric     string
	nbrMode       string
	recallQueries int
	replicas      int
	replicaSync   time.Duration
	replicaVerify bool
	wireFmt       string
	batch         int
	blockFrac     float64
	deleteFrac    float64
	labelFrac     float64
	seed          uint64
	metricsURL    string
	tracesURL     string
}

// counters aggregates what the load achieved.
type counters struct {
	inserts    atomic.Int64 // acked insert ops
	deletes    atomic.Int64 // acked delete ops
	queries    atomic.Int64 // completed embedding reads
	batchReads atomic.Int64 // completed batched multi-vertex reads
	batchRows  atomic.Int64 // rows returned by batched reads
	neighbors  atomic.Int64 // completed top-k neighbor queries
	retries    atomic.Int64 // 429 backoffs
	errors     atomic.Int64 // non-backpressure request failures
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8080", "serving API base URL")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "load duration")
	flag.IntVar(&cfg.writers, "writers", 4, "concurrent writer goroutines")
	flag.IntVar(&cfg.readers, "readers", 4, "concurrent single-row reader goroutines")
	flag.IntVar(&cfg.batchReaders, "batch-readers", 0, "concurrent batched-read goroutines (POST /v1/embeddings)")
	flag.IntVar(&cfg.readBatch, "read-batch", 64, "vertices per batched read")
	flag.IntVar(&cfg.nbrReaders, "neighbor-readers", 0, "concurrent top-k neighbor query goroutines (POST /v1/neighbors)")
	flag.IntVar(&cfg.nbrK, "neighbor-k", 10, "k for neighbor queries")
	flag.StringVar(&cfg.nbrMetric, "neighbor-metric", "l2", "neighbor metric: l2 or cosine")
	flag.StringVar(&cfg.nbrMode, "neighbor-mode", "exact", "neighbor mode: exact (brute-force scan) or approx (IVF index)")
	flag.IntVar(&cfg.recallQueries, "recall-queries", 64, "post-load recall@k sample size when -neighbor-mode approx (0 disables)")
	flag.Float64Var(&cfg.blockFrac, "edge-block", 0, "fraction of writer edges kept within a planted block (u ≡ v mod k) so the embedding clusters")
	flag.IntVar(&cfg.replicas, "replicas", 0, "replica followers syncing over GET /v1/delta")
	flag.DurationVar(&cfg.replicaSync, "replica-sync", 25*time.Millisecond, "pause between replica sync rounds")
	flag.BoolVar(&cfg.replicaVerify, "replica-verify", false, "after the load, verify each replica is bit-identical to /v1/snapshot")
	flag.StringVar(&cfg.wireFmt, "wire", "json", "wire format the batched readers ask for: json or binary (replicas always read binary frames)")
	flag.IntVar(&cfg.batch, "batch", 64, "edges per insert request")
	flag.Float64Var(&cfg.deleteFrac, "delete-frac", 0.2, "fraction of writer requests that delete a previously inserted batch")
	flag.Float64Var(&cfg.labelFrac, "label-frac", 0.2, "fraction of vertices labeled round-robin before the load starts")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.StringVar(&cfg.metricsURL, "metrics-url", "", "scrape this Prometheus endpoint (e.g. <addr>/metrics) after the load and report the server's own per-route latencies")
	flag.StringVar(&cfg.tracesURL, "traces-url", "", "fetch this trace-dump endpoint (e.g. <addr>/debug/traces) after the load and report the slowest write's per-stage breakdown")
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "geeload:", err)
		os.Exit(1)
	}
}

// normalizeBase turns a bare host:port into an http:// base URL.
func normalizeBase(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return addr
	}
	return "http://" + addr
}

// randEdges fills a batch of random edges over [0, n). With blockFrac
// > 0, that fraction of edges stays inside a planted block (u ≡ v mod
// k, matching the round-robin label seeding), so the served embedding
// develops the clustered structure an approximate-NN index — and a
// meaningful recall measurement — needs; uniform random edges collapse
// every row toward the same class mixture.
func randEdges(r *xrand.Rand, n, k, m int, blockFrac float64) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		u := r.Intn(n)
		v := r.Intn(n)
		if k > 0 && r.Float64() < blockFrac {
			v = u%k + k*r.Intn((n-1-u%k)/k+1) // same residue class as u
		}
		edges[i] = graph.Edge{
			U: graph.NodeID(u), V: graph.NodeID(v),
			W: float32(r.Intn(4) + 1),
		}
	}
	return edges
}

// perSec converts a count over an elapsed wall time into a rate,
// reporting 0 for degenerate (zero or negative) durations instead of
// +Inf/NaN — a zero-duration window measured nothing.
func perSec(count int64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(count) / secs
}

// done reports whether an error just means the load window closed.
func done(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded)
}

func run(cfg config, out io.Writer) error {
	if cfg.nbrMode != "exact" && cfg.nbrMode != "approx" {
		return fmt.Errorf("-neighbor-mode must be exact or approx, got %q", cfg.nbrMode)
	}
	var wf client.Format
	switch cfg.wireFmt {
	case "", "json":
		wf = client.JSON
	case "binary":
		wf = client.Binary
	default:
		return fmt.Errorf("-wire must be json or binary, got %q", cfg.wireFmt)
	}
	c := client.New(normalizeBase(cfg.addr), nil, client.WithWire(wf))
	ctx := context.Background()
	h, err := c.Health(ctx)
	if err != nil {
		return fmt.Errorf("server not healthy at %s: %w", cfg.addr, err)
	}
	n, k := h.N, h.K
	fmt.Fprintf(out, "# target %s: n=%d k=%d epoch=%d wire=%s\n", normalizeBase(cfg.addr), n, k, h.Epoch, wf)

	// Seed labels so served embeddings carry mass (an unlabeled graph
	// embeds to all-zero rows).
	if cfg.labelFrac > 0 && k > 0 {
		budget := int(cfg.labelFrac * float64(n))
		for lo := 0; lo < budget; lo += 4096 {
			hi := min(lo+4096, budget)
			ups := make([]dyn.LabelUpdate, 0, hi-lo)
			for v := lo; v < hi; v++ {
				ups = append(ups, dyn.LabelUpdate{V: graph.NodeID(v), Class: int32(v % k)})
			}
			if _, err := c.UpdateLabels(ctx, ups); err != nil {
				return fmt.Errorf("seeding labels: %w", err)
			}
		}
		fmt.Fprintf(out, "# labeled %d vertices round-robin over %d classes\n", budget, k)
	}

	lctx, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()
	var cnt counters
	var wg sync.WaitGroup
	start := time.Now()

	for w := 0; w < cfg.writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.New(cfg.seed + uint64(1000+id))
			var backlog [][]graph.Edge // own acked batches, eligible for deletion
			for lctx.Err() == nil {
				if len(backlog) > 0 && r.Float64() < cfg.deleteFrac {
					batch := backlog[0]
					if _, err := c.DeleteEdges(lctx, batch); err != nil {
						if done(lctx, err) {
							return
						}
						if errors.Is(err, client.ErrBacklog) {
							cnt.retries.Add(1)
							time.Sleep(2 * time.Millisecond)
							continue
						}
						cnt.errors.Add(1)
						continue
					}
					backlog = backlog[1:]
					cnt.deletes.Add(int64(len(batch)))
					continue
				}
				batch := randEdges(r, n, k, cfg.batch, cfg.blockFrac)
				if _, err := c.InsertEdges(lctx, batch); err != nil {
					if done(lctx, err) {
						return
					}
					if errors.Is(err, client.ErrBacklog) {
						cnt.retries.Add(1)
						time.Sleep(2 * time.Millisecond)
						continue
					}
					cnt.errors.Add(1)
					continue
				}
				cnt.inserts.Add(int64(len(batch)))
				backlog = append(backlog, batch)
			}
		}(w)
	}
	for rd := 0; rd < cfg.readers; rd++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.New(cfg.seed + uint64(2000+id))
			for lctx.Err() == nil {
				if _, err := c.Embedding(lctx, graph.NodeID(r.Intn(n))); err != nil {
					if done(lctx, err) {
						return
					}
					cnt.errors.Add(1)
					continue
				}
				cnt.queries.Add(1)
			}
		}(rd)
	}
	for br := 0; br < cfg.batchReaders; br++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.New(cfg.seed + uint64(3000+id))
			vs := make([]graph.NodeID, max(cfg.readBatch, 1))
			for lctx.Err() == nil {
				for i := range vs {
					vs[i] = graph.NodeID(r.Intn(n))
				}
				resp, err := c.Embeddings(lctx, vs)
				if err != nil {
					if done(lctx, err) {
						return
					}
					cnt.errors.Add(1)
					continue
				}
				cnt.batchReads.Add(1)
				cnt.batchRows.Add(int64(len(resp.Rows)))
			}
		}(br)
	}
	// One lock-free latency histogram shared by every neighbor reader —
	// the same instrument the server uses, so the client-side p50 and a
	// scraped server-side p50 are estimated identically.
	nbrLat := metrics.NewHistogram(metrics.DefLatencyBuckets)
	for nr := 0; nr < cfg.nbrReaders; nr++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.New(cfg.seed + uint64(4000+id))
			for lctx.Err() == nil {
				req := server.NeighborsRequest{
					V: graph.NodeID(r.Intn(n)), K: cfg.nbrK, Metric: cfg.nbrMetric,
					Mode: cfg.nbrMode,
				}
				t0 := time.Now()
				if _, err := c.Neighbors(lctx, req); err != nil {
					if done(lctx, err) {
						return
					}
					cnt.errors.Add(1)
					continue
				}
				nbrLat.ObserveSince(t0)
				cnt.neighbors.Add(1)
			}
		}(nr)
	}
	// Replica followers: bootstrap from /v1/snapshot, then live off
	// /v1/delta on a polling cadence — the fan-out read pattern.
	reps := make([]*client.Replica, cfg.replicas)
	for i := range reps {
		reps[i] = client.NewReplica(c)
		wg.Add(1)
		go func(rep *client.Replica) {
			defer wg.Done()
			for lctx.Err() == nil {
				if _, err := rep.Sync(lctx); err != nil {
					if done(lctx, err) {
						return
					}
					cnt.errors.Add(1)
				}
				select {
				case <-lctx.Done():
					return
				case <-time.After(cfg.replicaSync):
				}
			}
		}(reps[i])
	}
	wg.Wait()
	secs := time.Since(start).Seconds()

	ins, del, q := cnt.inserts.Load(), cnt.deletes.Load(), cnt.queries.Load()
	fmt.Fprintf(out, "ingested %d ops (%d inserts + %d deletes) in %.2fs: %.0f acked ops/s from %d writers\n",
		ins+del, ins, del, secs, perSec(ins+del, secs), cfg.writers)
	fmt.Fprintf(out, "queried %d embedding rows: %.0f queries/s from %d readers\n",
		q, perSec(q, secs), cfg.readers)
	if cfg.batchReaders > 0 {
		fmt.Fprintf(out, "batched reads: %d requests / %d rows from %d readers (%.0f reads/s, %.0f rows/s)\n",
			cnt.batchReads.Load(), cnt.batchRows.Load(), cfg.batchReaders,
			perSec(cnt.batchReads.Load(), secs), perSec(cnt.batchRows.Load(), secs))
	}
	if cfg.nbrReaders > 0 {
		lat := nbrLat.Snapshot()
		fmt.Fprintf(out, "neighbor queries: %d top-%d by %s (%s) from %d readers (%.0f queries/s, p50 %.2f ms)\n",
			cnt.neighbors.Load(), cfg.nbrK, cfg.nbrMetric, cfg.nbrMode, cfg.nbrReaders,
			perSec(cnt.neighbors.Load(), secs), lat.Quantile(0.5)*1000)
	}
	for i, rep := range reps {
		rs := rep.Stats()
		perSync := int64(0)
		if rs.Syncs > 0 {
			perSync = rs.DeltaBytes / rs.Syncs
		}
		fmt.Fprintf(out, "replica %d: epoch %d, %d syncs (%d resyncs), %d delta rows applied, delta wire %d B (%d B/sync, payload %d B), snapshot wire %d B (payload %d B)\n",
			i, rs.Epoch, rs.Syncs, rs.Resyncs, rs.RowsApplied,
			rs.DeltaBytes, perSync, rs.DeltaPayloadBytes,
			rs.SnapshotBytes, rs.SnapshotPayloadBytes)
	}
	fmt.Fprintf(out, "backpressure retries %d, request errors %d\n",
		cnt.retries.Load(), cnt.errors.Load())
	st, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("final stats: %w", err)
	}
	co := st.Coalescer
	ratio := 0.0
	if co.Flushes > 0 {
		ratio = float64(co.Requests) / float64(co.Flushes)
	}
	fmt.Fprintf(out, "server: epoch %d, %d live edges, %d folds for %d write requests (%.1f requests/fold), %d publishes\n",
		st.Dyn.Epoch, st.Dyn.LiveEdges, co.Flushes, co.Requests, ratio, st.Dyn.Publishes)
	if cfg.metricsURL != "" {
		if err := scrapeMetrics(ctx, cfg.metricsURL, out); err != nil {
			return fmt.Errorf("metrics scrape: %w", err)
		}
	}
	if cfg.tracesURL != "" {
		if err := reportTraces(ctx, cfg.tracesURL, out); err != nil {
			return fmt.Errorf("trace fetch: %w", err)
		}
	}
	if cfg.nbrMode == "approx" && cfg.recallQueries > 0 {
		if err := measureRecall(ctx, c, n, cfg, out); err != nil {
			return fmt.Errorf("recall measurement: %w", err)
		}
	}
	if cfg.replicaVerify && len(reps) > 0 {
		// The comparison sections are read as frames whatever -wire says:
		// a replica holds the binary wire's float32 rows.
		fc := client.New(normalizeBase(cfg.addr), nil, client.WithWire(client.Binary))
		if err := verifyReplicas(ctx, fc, reps, out); err != nil {
			return err
		}
	}
	if cnt.errors.Load() > 0 {
		return fmt.Errorf("%d request errors", cnt.errors.Load())
	}
	if ins == 0 && cfg.writers > 0 {
		return fmt.Errorf("no inserts were acknowledged")
	}
	return nil
}

// scrapeMetrics pulls the server's own /metrics exposition at end of
// run and reports the server-side per-route latency quantiles — the
// same requests the closed loop timed from the client side, but
// measured inside the handler, so the gap between the two lines is
// pure network + client overhead.
func scrapeMetrics(ctx context.Context, url string, out io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	samples, err := metrics.ParseText(resp.Body)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "server metrics (%d samples scraped from %s):\n", len(samples), url)
	// Report every route the server saw, in exposition (sorted) order.
	seen := map[string]bool{}
	for _, s := range samples {
		route := s.Labels["route"]
		if s.Name != "gee_http_request_seconds_count" || route == "" || seen[route] {
			continue
		}
		seen[route] = true
		h := metrics.HistogramFromSamples(samples, "gee_http_request_seconds",
			map[string]string{"route": route})
		if h == nil || h.Count == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-24s %8d reqs  p50 %8.3f ms  p99 %8.3f ms\n",
			route, h.Count, h.Quantile(0.5)*1000, h.Quantile(0.99)*1000)
	}
	for _, s := range samples {
		if s.Name != "gee_coalescer_queue_depth" {
			continue
		}
		fmt.Fprintf(out, "  shard %s coalescer queue depth %g", s.Label("shard"), s.Value)
		if h := metrics.HistogramFromSamples(samples, "gee_coalescer_batch_ops", s.Labels); h != nil && h.Count > 0 {
			fmt.Fprintf(out, ", %.1f ops/batch mean over %d batches", h.Mean(), h.Count)
		}
		fmt.Fprintln(out)
	}
	return nil
}

// reportTraces pulls the server's /debug/traces dump after the load
// and prints the slowest retained write trace's per-stage breakdown —
// the decomposition (queue wait vs fold vs publish vs ack) of the
// worst write the server remembers, which aggregate histograms cannot
// show for any single request.
func reportTraces(ctx context.Context, url string, out io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	var dump server.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return err
	}
	writeRoutes := map[string]bool{
		"POST /v1/edges": true, "DELETE /v1/edges": true, "POST /v1/labels": true,
	}
	var slowest *server.TraceWire
	consider := func(ts []server.TraceWire) {
		for i := range ts {
			t := &ts[i]
			if writeRoutes[t.Name] && (slowest == nil || t.DurUS > slowest.DurUS) {
				slowest = t
			}
		}
	}
	consider(dump.Recent)
	for _, b := range dump.Buckets {
		consider(b.Traces)
	}
	if slowest == nil {
		fmt.Fprintf(out, "traces: no write traces retained at %s\n", url)
		return nil
	}
	fmt.Fprintf(out, "slowest write trace %s (%s, %.3f ms):", slowest.ID, slowest.Name,
		float64(slowest.DurUS)/1000)
	for _, sp := range slowest.Spans {
		fmt.Fprintf(out, " %s %.3f ms", sp.Name, float64(sp.DurUS)/1000)
	}
	fmt.Fprintln(out)
	return nil
}

// measureRecall runs the post-load recall check: the load window is
// closed and the writers are drained, so once a warmup lets the
// asynchronous index rebuild catch up to the published epoch, each
// approx answer and its exact oracle are computed against the same
// data. Recall counts an approx neighbor as a hit when it is at least
// as near as the oracle's k-th survivor. The index answers exactly, so
// anything under 1.000 is a fault, not a tuning matter.
func measureRecall(ctx context.Context, c *client.Client, n int, cfg config, out io.Writer) error {
	r := xrand.New(cfg.seed + uint64(9000))
	approxReq := func(v graph.NodeID) server.NeighborsRequest {
		return server.NeighborsRequest{
			V: v, K: cfg.nbrK, Metric: cfg.nbrMetric,
			Mode: "approx",
		}
	}
	// Warm: each stale or cold approx query kicks the async rebuild of
	// every shard it scatters to; poll /statsz until every shard's index
	// has caught up to that shard's own published epoch, and return that
	// per-shard epoch vector. (Per-shard epochs are independent
	// counters, so the response's scalars cannot say this: IndexEpoch is
	// the min over shard indexes, Epoch the max over shard publishes.)
	// A cold index answers "exact" while its first build is in flight,
	// so a recall figure taken before this would not measure the index
	// at all.
	warm := func() (shard.EpochVector, error) {
		for tries := 0; ; tries++ {
			resp, err := c.Neighbors(ctx, approxReq(graph.NodeID(r.Intn(n))))
			if err != nil {
				return nil, err
			}
			st, err := c.Stats(ctx)
			if err != nil {
				return nil, err
			}
			caughtUp := shard.EpochVector{}
			for _, ss := range st.Shards {
				if ss.Index.Epoch != ss.Dyn.Epoch {
					caughtUp = nil
					break
				}
				caughtUp[ss.Shard] = ss.Dyn.Epoch
			}
			if caughtUp != nil {
				return caughtUp, nil
			}
			if tries >= 300 {
				return nil, fmt.Errorf("index never caught up to the published epoch (%d vs %d)",
					resp.IndexEpoch, resp.Epoch)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	warmed, err := warm()
	if err != nil {
		return err
	}
	var recall float64
	var indexEpoch uint64
	rewarms := 0
	for q := 0; q < cfg.recallQueries; q++ {
		v := graph.NodeID(r.Intn(n))
		ap, err := c.Neighbors(ctx, approxReq(v))
		if err != nil {
			return err
		}
		ex, err := c.Neighbors(ctx, server.NeighborsRequest{
			V: v, K: cfg.nbrK, Metric: cfg.nbrMetric, Mode: "exact",
		})
		if err != nil {
			return err
		}
		// No publish may land after the warmup: both scatter reads must
		// cover exactly the epoch vector the indexes caught up to. A
		// shard whose snapshot moved past its index answers from that
		// older index, so its partial is not the exact top-k of the
		// data the oracle reads.
		if !maps.Equal(ap.Epochs, warmed) || !maps.Equal(ex.Epochs, warmed) {
			// A straggler publish landed mid-phase (a write whose client
			// departed at the load deadline is still applied and
			// published). Stragglers are bounded by the writers'
			// in-flight requests, so re-warm and retry the sample; only
			// an epoch that *keeps* moving means a live writer.
			rewarms++
			if rewarms > 20 {
				return fmt.Errorf("epoch kept moving during the recall phase (%d vs %d): is a writer still running?",
					ap.IndexEpoch, ex.Epoch)
			}
			if warmed, err = warm(); err != nil {
				return err
			}
			q--
			continue
		}
		indexEpoch = ap.IndexEpoch
		if len(ex.Neighbors) == 0 {
			recall++
			continue
		}
		kth := ex.Neighbors[len(ex.Neighbors)-1].Dist
		eps := 1e-12 + 1e-12*kth
		hits := 0
		for _, nb := range ap.Neighbors {
			if nb.Dist <= kth+eps {
				hits++
			}
		}
		if hits > len(ex.Neighbors) {
			hits = len(ex.Neighbors)
		}
		recall += float64(hits) / float64(len(ex.Neighbors))
	}
	recall /= float64(cfg.recallQueries)
	fmt.Fprintf(out, "approx neighbor recall@%d: %.3f over %d queries (%s, index epoch %d)\n",
		cfg.nbrK, recall, cfg.recallQueries, cfg.nbrMetric, indexEpoch)
	return nil
}

// verifyReplicas checks every replica against the primary bit for bit,
// reading the primary's sections through c, which must speak frames.
// The primary's state is the union of per-shard sections, each at its
// own epoch, so each replica must converge onto the fetched sections'
// epoch vector and then match them row by row — the delta path
// reconstructs the snapshot stream's exact bytes, not an approximation
// of them. The writers are done, so every shard is quiescent; a
// straggling publish just re-anchors that one section.
func verifyReplicas(ctx context.Context, c *client.Client, reps []*client.Replica, out io.Writer) error {
	meta, err := c.Partition(ctx)
	if err != nil {
		return fmt.Errorf("replica verify: %w", err)
	}
	secs := make([]server.SnapshotResponse, meta.Shards)
	fetch := func(i int) error {
		s, err := c.SnapshotShard(ctx, i)
		if err != nil {
			return fmt.Errorf("replica verify: shard %d: %w", i, err)
		}
		secs[i] = s
		return nil
	}
	for i := range secs {
		if err := fetch(i); err != nil {
			return err
		}
	}
	for i, rep := range reps {
		// Sync while the replica is behind on any shard; refetch a
		// section the replica has already passed. Bit-comparison needs
		// exact per-shard epoch equality, not just coverage.
		for tries := 0; ; tries++ {
			s := rep.Snapshot()
			behind, ahead := s == nil, false
			if !behind {
				for sh := 0; sh < meta.Shards; sh++ {
					switch {
					case s.Epochs[sh] < secs[sh].Epoch:
						behind = true
					case s.Epochs[sh] > secs[sh].Epoch:
						if err := fetch(sh); err != nil {
							return err
						}
						ahead = true
					}
				}
			}
			if !behind && !ahead {
				break
			}
			if tries > 100 {
				return fmt.Errorf("replica %d never converged onto the primary's epoch vector", i)
			}
			if behind {
				if _, err := rep.Sync(ctx); err != nil {
					return fmt.Errorf("replica %d verify sync: %w", i, err)
				}
			}
		}
		s := rep.Snapshot()
		rn, rk := s.Dims()
		if rn != meta.N || rk != meta.K {
			return fmt.Errorf("replica %d shape mismatch: %dx%d vs %dx%d", i, rn, rk, meta.N, meta.K)
		}
		row := make([]float64, meta.K)
		for sh := 0; sh < meta.Shards; sh++ {
			lo := int(meta.Bounds[sh])
			sec := &secs[sh]
			for u := 0; u < sec.N; u++ {
				v := lo + u
				if s.Y[v] != sec.Y[u] {
					return fmt.Errorf("replica %d: label of %d is %d, shard %d has %d",
						i, v, s.Y[v], sh, sec.Y[u])
				}
				// Both sides hold the binary wire's float32 rows, so
				// equality is bitwise.
				for col, x := range s.CopyRow(v, row) {
					if x != sec.Z[u][col] {
						return fmt.Errorf("replica %d: Z[%d][%d] = %v, shard %d has %v (not bit-identical)",
							i, v, col, x, sh, sec.Z[u][col])
					}
				}
			}
		}
	}
	rows := 0
	ev := make(shard.EpochVector, meta.Shards)
	for i := range secs {
		rows += secs[i].N
		ev[i] = secs[i].Epoch
	}
	fmt.Fprintf(out, "replica verify OK: %d replica(s), %d rows bit-identical to %d shard sections at epoch vector %v\n",
		len(reps), rows, meta.Shards, ev)
	return nil
}
