package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/dyn"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/shard"
	"repro/internal/wire"
)

// followStats is what ingest_follow's replica did during the timed
// section.
type followStats struct {
	before, after client.ReplicaStats
	log           *opLog
}

// scrape reads the server's own instruments over its public HTTP
// surface, the same numbers an operator would see.
func scrape(url string) ([]metrics.Sample, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return metrics.ParseText(resp.Body)
}

// hasLabels reports whether the sample carries every wanted label.
func hasLabels(s metrics.Sample, want map[string]string) bool {
	for k, v := range want {
		if s.Label(k) != v {
			return false
		}
	}
	return true
}

// scrapedP50 is the median, in ms, and the sample count of one series
// of a scraped histogram; 0 and 0 when the series has no samples.
func scrapedP50(samples []metrics.Sample, name, label, value string) (ms float64, n int64) {
	h := metrics.HistogramFromSamples(samples, name, map[string]string{label: value})
	if h == nil {
		return 0, 0
	}
	return h.Quantile(0.5) * 1e3, h.Count
}

// scrapedSum adds up every series of a counter or gauge whose labels
// include want.
func scrapedSum(samples []metrics.Sample, name string, want map[string]string) float64 {
	total := 0.0
	for _, s := range samples {
		if s.Name == name && hasLabels(s, want) {
			total += s.Value
		}
	}
	return total
}

// probeEmbedder builds a second embedder over the base graph for the
// layer probes, so they never disturb the served one.
func probeEmbedder(base baseGraph, opts dyn.Options) (*dyn.DynamicEmbedder, error) {
	opts.K = base.k
	d, err := dyn.New(base.n, base.y, opts)
	if err != nil {
		return nil, err
	}
	return d, d.Apply(dyn.Batch{Insert: base.edges})
}

// serveLayerMetrics derives the per-layer numbers of a traced serving
// run: from the server's own instruments, from the replica's counters,
// and from probes that call one layer at a time on the workload's data.
// Only the layers on the workload's path are measured; the rest of the
// per-layer list reads 0 for this workload.
func serveLayerMetrics(s *serving, run serveRun) error {
	res, tr := s.res, s.cfg.tr
	probes := tr.begin("bench", "probes", 0, 0)
	defer probes.end()
	ctx := context.Background()
	writes := !s.reads
	// The raw client-side readings, in true units: regime markers beside
	// the oracle-relative end-to-end metrics.
	res.metrics["trace.traced_speedup_x"] = 1 / median(run.relLatencies)
	res.metrics["client.ops_per_s"] = float64(run.acked) / run.wall
	res.metrics["client.op_p50_ms"] = median(run.latencies) * 1e3
	if tail, q, err := tailPercentile(run.latencies); err == nil {
		res.metrics["client.op_tail_ms"] = tail * 1e3
		res.notes["client.op_tail_ms"] = fmt.Sprintf("p%g, n=%d", q*100, len(run.latencies))
	}
	res.metrics["host.oracle_medges_s"] = float64(len(s.o.u)) / median(run.oracle) / 1e6

	// server: its instruments, scraped after the traced run.
	samples, err := scrape(s.t.url)
	if err != nil {
		return err
	}
	c := dial(s.t.url, client.JSON)
	defer c.close()
	stats, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	for short, route := range map[string]string{
		"edges": "POST /v1/edges", "neighbors": "POST /v1/neighbors",
		"delta": "GET /v1/delta", "snapshot": "GET /v1/snapshot",
	} {
		ms, n := scrapedP50(samples, "gee_http_request_seconds", "route", route)
		res.metrics["server.route_p50_ms."+short] = ms
		res.notes["server.route_p50_ms."+short] = fmt.Sprintf("n=%d", n)
	}
	res.metrics["server.rejected_429"] = float64(stats.Coalescer.Rejected)
	res.metrics["dyn.full_epochs"] = scrapedSum(samples, "gee_dyn_full_epochs_total", nil)
	res.metrics["dyn.folds.serial"] = float64(stats.Dyn.SerialFolds)
	res.metrics["dyn.folds.atomic"] = float64(stats.Dyn.AtomicFolds)
	res.metrics["dyn.folds.sharded"] = float64(stats.Dyn.ShardedFolds)
	if writes {
		stages := 0.0
		for _, stage := range []string{"queue", "fold", "publish", "ack"} {
			ms, _ := scrapedP50(samples, "gee_write_stage_seconds", "stage", stage)
			res.metrics["server.stage_p50_ms."+stage] = ms
			stages += ms
		}
		res.metrics["server.http_overhead_ms"] = median(run.latencies)*1e3 - stages
		if stats.Coalescer.Flushes > 0 {
			res.metrics["server.requests_per_fold"] = float64(stats.Coalescer.Requests) / float64(stats.Coalescer.Flushes)
		}
	}

	if s.reads {
		if err := readProbes(ctx, s, c, probes.id()); err != nil {
			return err
		}
	}
	if s.follow != nil {
		followMetrics(res, s.follow)
		if err := wireProbes(s, probes.id()); err != nil {
			return err
		}
	}
	if s.nShards > 1 {
		shardProbes(s, probes.id())
	}
	if writes {
		if err := writeProbes(s, probes.id()); err != nil {
			return err
		}
	}
	return nil
}

// probeBatches cuts reps batches of size edges out of fresh
// block-structured edges.
func probeBatches(s *serving, stream uint64, size, reps int) [][]graph.Edge {
	r := newRNG(s.cfg.seed, 1<<47+stream)
	out := make([][]graph.Edge, reps)
	for i := range out {
		out[i] = blockEdges(r, s.base.n, s.base.k, size, baseBlockFrac)
	}
	return out
}

// medianOf times fn once per repetition inside a span and returns the
// median in seconds.
func medianOf(tr *tracer, layer, name string, parent, reps int, fn func(i int)) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		ts[i] = tr.timed(layer, name, parent, func() { fn(i) })
	}
	return median(ts)
}

// writeProbes times the layers under a write request one at a time:
// the exec edge folds dyn chooses between, dyn's apply, publish,
// relabel and delta on an embedder with manual publish (which splits
// the fold from the publish), and the coalescer without HTTP.
func writeProbes(s *serving, parent int) error {
	res, tr, reps := s.res, s.cfg.tr, s.cfg.size.probeReps
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}

	// exec: edge-slice folds at the batch sizes the workloads send.
	kern := exec.Kernel[float64]{Width: s.o.k, SrcCol: s.o.y, DstCol: s.o.y, Coeff: s.o.coeff}
	z := make([]float64, s.base.n*s.base.k)
	plan, perr := exec.NewEdgePlan(s.base.n, loadWorkers)
	if perr != nil {
		return perr
	}
	for _, p := range []struct {
		name string
		size int
		fold func(edges []graph.Edge) error
	}{
		{"serial-b64", 64, func(e []graph.Edge) error { _, err := exec.SerialEdges(kern, e, s.base.n, z); return err }},
		{"atomic-b2048", 2048, func(e []graph.Edge) error {
			_, err := exec.AtomicEdges(kern, e, s.base.n, z, loadWorkers)
			return err
		}},
		{"sharded-b4096", 4096, func(e []graph.Edge) error {
			_, err := exec.ShardedEdges(kern, e, z, plan, loadWorkers)
			return err
		}},
	} {
		batches := probeBatches(s, 1, p.size, reps)
		t := medianOf(tr, "exec", "fold "+p.name, parent, reps, func(i int) { keep(p.fold(batches[i])) })
		res.metrics["exec.edges_medges_s."+p.name] = float64(p.size) / t / 1e6
	}

	// dyn: fold and publish apart.
	d, derr := probeEmbedder(s.base, dyn.Options{ManualPublish: true})
	if derr != nil {
		return derr
	}
	for _, size := range []int{64, 2048, 4096} {
		batches := probeBatches(s, 2, size, reps)
		t := medianOf(tr, "dyn", fmt.Sprintf("Apply b%d", size), parent, reps, func(i int) {
			keep(d.Apply(dyn.Batch{Insert: batches[i]}))
		})
		res.metrics[fmt.Sprintf("dyn.apply_us.b%d", size)] = t * 1e6
	}
	small := probeBatches(s, 3, 64, reps)
	publishes := make([]float64, reps)
	for i := range publishes {
		keep(d.Apply(dyn.Batch{Insert: small[i]}))
		publishes[i] = tr.timed("dyn", "Publish", parent, func() { d.Publish() })
	}
	res.metrics["dyn.publish_ms"] = median(publishes) * 1e3

	from := d.Epoch()
	keep(d.Apply(dyn.Batch{Insert: small[0]}))
	d.Publish()
	var delta *dyn.Delta
	res.metrics["dyn.delta_ms"] = 1e3 * medianOf(tr, "dyn", "Delta", parent, reps, func(int) { delta = d.Delta(from) })
	res.metrics["dyn.delta_rows"] = float64(len(delta.Rows))

	r := newRNG(s.cfg.seed, 1<<48)
	relabels := make([]float64, reps)
	for i := range relabels {
		moves := labelMoves(r, s.base, s.cfg.size.followMoves, int32(i%s.base.k))
		relabels[i] = tr.timed("dyn", "Apply labels", parent, func() { keep(d.Apply(dyn.Batch{Labels: moves})) }) / float64(len(moves))
	}
	res.metrics["dyn.relabel_us"] = median(relabels) * 1e6

	// server: the coalescer's submit-to-ack without HTTP, on an embedder
	// that publishes on every apply as the served one does.
	d2, derr := probeEmbedder(s.base, dyn.Options{})
	if derr != nil {
		return derr
	}
	co := server.NewCoalescer(d2, server.CoalescerOptions{})
	co.Start()
	res.metrics["server.coalescer_submit_to_ack_ms"] = 1e3 * medianOf(tr, "server", "Coalescer.Submit", parent, reps, func(i int) {
		ack, serr := co.Submit(dyn.Batch{Insert: small[i]})
		if serr != nil {
			keep(serr)
			return
		}
		keep((<-ack).Err)
	})
	co.Close()
	return err
}

// shardProbes measures the scatter: shard.Split's time per small batch,
// and, exactly, how many edge operations of the workload's own script
// are cut and how much fold work the scatter adds.
func shardProbes(s *serving, parent int) {
	res, tr, reps := s.res, s.cfg.tr, s.cfg.size.probeReps
	batches := probeBatches(s, 4, 64, reps)
	res.metrics["shard.split_us.b64"] = 1e6 * medianOf(tr, "shard", "Split b64", parent, reps, func(i int) {
		shard.Split(s.t.part, dyn.Batch{Insert: batches[i]})
	})
	ops, cut, scattered := 0, 0, 0
	for _, script := range writeScripts(s.cfg.size, s.cfg.seed) {
		for i := range script {
			b := dyn.Batch{Insert: script[i].edges}
			subs, c := shard.Split(s.t.part, b)
			ops += shard.Ops(b)
			cut += c
			for _, sub := range subs {
				scattered += shard.Ops(sub)
			}
		}
	}
	res.metrics["shard.cut_frac"] = float64(cut) / float64(ops)
	res.metrics["shard.fold_amplification"] = float64(scattered) / float64(ops)
}

// followMetrics reports what the replica did and paid during
// ingest_follow's timed section.
func followMetrics(res *result, f *followStats) {
	var deltas, resyncs []float64
	for i, t := range f.log.syncs {
		if f.log.resynced[i] {
			resyncs = append(resyncs, t)
		} else {
			deltas = append(deltas, t)
		}
	}
	if len(deltas) > 0 {
		res.metrics["client.sync_ms.delta"] = median(deltas) * 1e3
	}
	if len(resyncs) > 0 {
		res.metrics["client.sync_ms.resync"] = median(resyncs) * 1e3
	}
	res.metrics["client.sync_p50_ms"] = median(f.log.syncs) * 1e3
	res.metrics["client.resyncs"] = float64(f.after.Resyncs - f.before.Resyncs)
	deltaBytes := f.after.DeltaBytes - f.before.DeltaBytes
	snapBytes := f.after.SnapshotBytes - f.before.SnapshotBytes
	res.metrics["client.sync_bytes.delta"] = float64(deltaBytes)
	res.metrics["client.sync_bytes.resync"] = float64(snapBytes)
	res.metrics["client.sync_bytes_per_op"] = float64(deltaBytes+snapBytes) / float64(f.log.acked)
	res.notes["client.sync_p50_ms"] = fmt.Sprintf("n=%d syncs", len(f.log.syncs))
}

// wireProbes encodes and decodes the two frames a replica receives: the
// dense snapshot of the served embedding and a sparse delta of one
// follow-sized batch.
func wireProbes(s *serving, parent int) error {
	res, tr, reps := s.res, s.cfg.tr, s.cfg.size.probeReps
	snap := s.t.d.Snapshot()
	rows32 := func(vals []float64) []float32 {
		out := make([]float32, len(vals))
		for i, x := range vals {
			out[i] = float32(x)
		}
		return out
	}
	d, err := probeEmbedder(s.base, dyn.Options{})
	if err != nil {
		return err
	}
	from := d.Epoch()
	if err := d.Apply(dyn.Batch{Insert: probeBatches(s, 5, s.cfg.size.followBatch, 1)[0]}); err != nil {
		return err
	}
	dl := d.Delta(from)
	if dl.Resync {
		return fmt.Errorf("wire probe: the delta of one batch demands a resync")
	}
	frames := map[string]*wire.Frame{
		"snapshot": {
			Header: wire.Header{Kind: wire.KindSnapshot, K: uint32(snap.Z.C), Epoch: snap.Epoch, Instance: snap.Instance, Edges: snap.Edges, N: uint32(snap.Z.R)},
			Y:      snap.Y, Rows: rows32(snap.Z.Data),
		},
		"delta": {
			Header: wire.Header{Kind: wire.KindDelta, Sparse: true, K: uint32(s.base.k), Epoch: dl.Epoch, Instance: dl.Instance, From: dl.FromEpoch, Edges: dl.Edges, N: uint32(s.base.n)},
			RowIDs: dl.Rows, Rows: rows32(dl.Values),
		},
	}
	for name, f := range frames {
		var buf bytes.Buffer
		var werr error
		enc := medianOf(tr, "wire", "encode "+name, parent, reps, func(int) {
			buf.Reset()
			if _, e := f.WriteTo(&buf); e != nil {
				werr = e
			}
		})
		if werr != nil {
			return werr
		}
		data := buf.Bytes()
		dec := medianOf(tr, "wire", "decode "+name, parent, reps, func(int) {
			if _, e := wire.DecodeFrame(data); e != nil {
				werr = e
			}
		})
		if werr != nil {
			return werr
		}
		mb := float64(len(data)) / 1e6
		res.metrics["wire.encode_mb_s."+name] = mb / enc
		res.metrics["wire.decode_mb_s."+name] = mb / dec
		if name == "delta" {
			res.metrics["wire.delta_bytes_per_row"] = float64(len(data)-wire.HeaderSize) / float64(len(dl.Rows))
		}
	}
	return nil
}

// readProbes times what a neighbour query is made of: the index build
// (part of set-up), one index search, one exact scan, and the two row
// read handlers.
func readProbes(ctx context.Context, s *serving, c conn, parent int) error {
	res, tr, reps := s.res, s.cfg.tr, s.cfg.size.probeReps
	z := s.t.d.Snapshot().Z
	queries := readScripts(s.cfg.size, s.cfg.seed+1)[0]
	query := func(i int) (int, []float64) { v := int(queries[i%len(queries)]); return v, z.Row(v) }

	var ix *cluster.IVF
	res.metrics["cluster.ivf_build_ms"] = 1e3 * tr.timed("cluster", "BuildIVF", parent, func() {
		ix = cluster.BuildIVF(loadWorkers, z, cluster.IVFOptions{})
	})
	res.metrics["cluster.ivf_search_us"] = 1e6 * medianOf(tr, "cluster", "IVF.Search", parent, reps, func(i int) {
		v, row := query(i)
		ix.Search(loadWorkers, row, 10, cluster.L2, v, 0)
	})
	res.metrics["cluster.topk_us"] = 1e6 * medianOf(tr, "cluster", "TopK", parent, reps, func(i int) {
		v, row := query(i)
		cluster.TopK(loadWorkers, z, row, 10, cluster.L2, v)
	})

	var err error
	res.metrics["server.read_row_us"] = 1e6 * medianOf(tr, "server", "GET /v1/embedding", parent, reps, func(i int) {
		if _, e := c.Embedding(ctx, queries[i%len(queries)]); e != nil {
			err = e
		}
	})
	batch := queries[:min(64, len(queries))]
	res.metrics["server.read_batch64_us"] = 1e6 * medianOf(tr, "server", "POST /v1/embeddings", parent, reps, func(int) {
		if _, e := c.Embeddings(ctx, batch); e != nil {
			err = e
		}
	})
	return err
}
