package main

import (
	"slices"
	"strings"
)

// endToEnd lists the metrics that gate a change, with the share of the
// parent's median by which each may worsen before the change counts as
// a regression. Every workload reports every one of them (the driver
// takes one uniform set), and none is computed from another.
//
// speedup_x and ops_per_pass are counted in passes: one pass is one
// embed of the workload's own graph by the frozen oracle, timed right
// next to the operations it is compared with. On the shared 2-vCPU VM
// this was written on nothing that streams memory repeats in seconds
// (raw request medians spread by 11 to 22 percent over ten runs of
// identical code); the raw readings are per-layer metrics (client.*,
// gee.embed_*). op_tail_x is the tail over the median of the same run:
// the machine's mood scales a whole run, so the shape of the latency
// distribution repeats where its tail in any unit of time does not.
//
// The bounds follow the driver's acceptance rule: over ten seeds a
// metric's quartile spread must stay inside its bound. Relative to the
// oracle the serving times still spread by 5 to 12 percent, so they
// carry 0.25, the driver's maximum; embed_skewed alone would support
// 0.08 (README.md, "A/A first").
var endToEnd = []metricDef{
	{Name: "speedup_x", Unit: "ratio", Better: "higher", Bound: 0.25},
	{Name: "ops_per_pass", Unit: "1/pass", Better: "higher", Bound: 0.25},
	{Name: "op_tail_x", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// layerCase is one per-layer metric with the prediction written down
// before measuring: which end-to-end metric it should move, on which
// workload. The README's case index is generated from this list.
type layerCase struct {
	metricDef
	layer    string
	workload string // where it is measured; elsewhere it reads 0
	moves    string // the end-to-end metric it should move
}

// measuredOn reports whether the workload measures the metric; on the
// others it reads 0.
func (c layerCase) measuredOn(workload string) bool {
	return c.workload == wAll || slices.Contains(strings.Split(c.workload, ", "), workload)
}

func lc(layer, name, unit, better, workload, moves string) layerCase {
	return layerCase{metricDef{Name: name, Unit: unit, Better: better}, layer, workload, moves}
}

const (
	wEmbed  = "embed_skewed"
	wWrites = "serve_write, serve_write_sharded, ingest_follow"
	wServe  = "serve_write, serve_write_sharded, serve_read, ingest_follow"
	wShard  = "serve_write_sharded"
	wRead   = "serve_read"
	wFollow = "ingest_follow"
	wAll    = "all"
)

// perLayer lists the per-layer metrics of the traced run.
var perLayer = []layerCase{
	lc("graph", "graph.build_csr_ms", "ms", "lower", wEmbed, "setup_s"),

	lc("exec", "exec.run_speedup_x.serial", "ratio", "higher", wEmbed, "speedup_x"),
	lc("exec", "exec.run_speedup_x.atomic", "ratio", "higher", wEmbed, "speedup_x (the path under LigraParallel)"),
	lc("exec", "exec.run_speedup_x.sharded-dest", "ratio", "higher", wEmbed, "speedup_x"),
	lc("exec", "exec.run_speedup_x.replicated", "ratio", "higher", wEmbed, "speedup_x"),
	lc("exec", "exec.atomic_adds", "count", "lower", wEmbed, "speedup_x"),
	lc("exec", "exec.plain_adds", "count", "lower", wEmbed, "speedup_x"),
	lc("exec", "exec.plan_builds", "count", "lower", wEmbed, "speedup_x"),
	lc("exec", "exec.edges_medges_s.serial-b64", "Medges/s", "higher", wWrites, "ops_per_pass on serve_write"),
	lc("exec", "exec.edges_medges_s.atomic-b2048", "Medges/s", "higher", wWrites, "ops_per_pass"),
	lc("exec", "exec.edges_medges_s.sharded-b4096", "Medges/s", "higher", wWrites, "ops_per_pass on ingest_follow"),

	lc("gee", "gee.speedup_x.ligra-serial", "ratio", "higher", wEmbed, "speedup_x"),
	lc("gee", "gee.speedup_x.sharded", "ratio", "higher", wEmbed, "speedup_x"),
	lc("gee", "gee.speedup_x.optimized", "ratio", "higher", wEmbed, "speedup_x"),
	lc("gee", "gee.overhead_frac", "ratio", "lower", wEmbed, "speedup_x (caps what an exec gain can deliver)"),
	lc("gee", "gee.embed_p50_ms", "ms", "lower", wEmbed, "regime marker only"),
	lc("gee", "gee.embed_max_ms", "ms", "lower", wEmbed, "regime marker only"),
	lc("host", "host.oracle_medges_s", "Medges/s", "higher", wAll, "regime marker only: the frozen oracle's own speed"),

	lc("dyn", "dyn.apply_us.b64", "us", "lower", wWrites, "speedup_x on serve_write"),
	lc("dyn", "dyn.apply_us.b2048", "us", "lower", wWrites, "ops_per_pass"),
	lc("dyn", "dyn.apply_us.b4096", "us", "lower", wWrites, "speedup_x on ingest_follow"),
	lc("dyn", "dyn.publish_ms", "ms", "lower", wWrites, "speedup_x, ops_per_pass on serve_write"),
	lc("dyn", "dyn.relabel_us", "us", "lower", wWrites, "ops_per_pass on ingest_follow"),
	lc("dyn", "dyn.delta_ms", "ms", "lower", wWrites, "client.sync_p50_ms"),
	lc("dyn", "dyn.delta_rows", "count", "lower", wWrites, "client.sync_bytes_per_op"),
	lc("dyn", "dyn.full_epochs", "count", "lower", wServe, "client.sync_bytes_per_op (each forces a resync)"),
	lc("dyn", "dyn.folds.serial", "count", "lower", wServe, "ops_per_pass"),
	lc("dyn", "dyn.folds.atomic", "count", "lower", wServe, "ops_per_pass"),
	lc("dyn", "dyn.folds.sharded", "count", "lower", wServe, "ops_per_pass"),

	lc("shard", "shard.split_us.b64", "us", "lower", wShard, "speedup_x"),
	lc("shard", "shard.cut_frac", "ratio", "lower", wShard, "ops_per_pass"),
	lc("shard", "shard.fold_amplification", "ratio", "lower", wShard, "ops_per_pass (bounds it from above)"),

	lc("server", "server.stage_p50_ms.queue", "ms", "lower", wWrites, "speedup_x"),
	lc("server", "server.stage_p50_ms.fold", "ms", "lower", wWrites, "speedup_x"),
	lc("server", "server.stage_p50_ms.publish", "ms", "lower", wWrites, "speedup_x, op_tail_x"),
	lc("server", "server.stage_p50_ms.ack", "ms", "lower", wWrites, "speedup_x"),
	lc("server", "server.requests_per_fold", "ratio", "higher", wWrites, "ops_per_pass"),
	lc("server", "server.http_overhead_ms", "ms", "lower", wWrites, "speedup_x"),
	lc("server", "server.coalescer_submit_to_ack_ms", "ms", "lower", wWrites, "speedup_x"),
	lc("server", "server.route_p50_ms.edges", "ms", "lower", wServe, "speedup_x"),
	lc("server", "server.route_p50_ms.neighbors", "ms", "lower", wServe, "speedup_x on serve_read"),
	lc("server", "server.route_p50_ms.delta", "ms", "lower", wServe, "client.sync_p50_ms"),
	lc("server", "server.route_p50_ms.snapshot", "ms", "lower", wServe, "client.sync_ms.resync"),
	lc("server", "server.rejected_429", "count", "lower", wServe, "failed operations"),
	lc("server", "server.read_row_us", "us", "lower", wRead, "read-handler diagnostic"),
	lc("server", "server.read_batch64_us", "us", "lower", wRead, "read-handler diagnostic"),

	lc("wire", "wire.encode_mb_s.snapshot", "MB/s", "higher", wFollow, "client.sync_ms.resync"),
	lc("wire", "wire.encode_mb_s.delta", "MB/s", "higher", wFollow, "client.sync_ms.delta"),
	lc("wire", "wire.decode_mb_s.snapshot", "MB/s", "higher", wFollow, "client.sync_ms.resync"),
	lc("wire", "wire.decode_mb_s.delta", "MB/s", "higher", wFollow, "client.sync_ms.delta"),
	lc("wire", "wire.delta_bytes_per_row", "B", "lower", wFollow, "client.sync_bytes_per_op"),

	lc("client", "client.ops_per_s", "1/s", "higher", wServe, "regime marker only: raw ops_per_pass"),
	lc("client", "client.op_p50_ms", "ms", "lower", wServe, "regime marker only: raw median request"),
	lc("client", "client.op_tail_ms", "ms", "lower", wServe, "regime marker only: the raw tail latency"),
	lc("client", "client.sync_p50_ms", "ms", "lower", wFollow, "ops_per_pass on ingest_follow"),
	lc("client", "client.sync_ms.delta", "ms", "lower", wFollow, "client.sync_p50_ms"),
	lc("client", "client.sync_ms.resync", "ms", "lower", wFollow, "ops_per_pass on ingest_follow"),
	lc("client", "client.resyncs", "count", "lower", wFollow, "client.sync_bytes_per_op"),
	lc("client", "client.sync_bytes.delta", "B", "lower", wFollow, "client.sync_bytes_per_op"),
	lc("client", "client.sync_bytes.resync", "B", "lower", wFollow, "client.sync_bytes_per_op"),
	lc("client", "client.sync_bytes_per_op", "B", "lower", wFollow, "exact count; the replica's cost of one write"),

	lc("cluster", "cluster.ivf_search_us", "us", "lower", wRead, "speedup_x"),
	lc("cluster", "cluster.topk_us", "us", "lower", wRead, "speedup_x when the index is cold"),
	lc("cluster", "cluster.ivf_build_ms", "ms", "lower", wRead, "setup_s"),
	lc("cluster", "cluster.recall_at_10", "ratio", "higher", wRead, "the check (>= 0.9)"),

	lc("trace", "trace.traced_speedup_x", "ratio", "higher", wAll, "speedup_x under tracing"),
	lc("trace", "trace.spans", "count", "lower", wAll, "tracing overhead"),
	lc("trace", "trace.overhead_frac", "ratio", "lower", wAll, "spans x cost of one span / timed section; must stay under 0.05"),
}

// perLayerDefs strips the predictions.
func perLayerDefs() []metricDef {
	defs := make([]metricDef, len(perLayer))
	for i, c := range perLayer {
		defs[i] = c.metricDef
	}
	return defs
}

// runSeconds is the length of one measured run in BENCHMARK.json.
const runSeconds = 15

// currentManifest is BENCHMARK.json as the harness defines it.
func currentManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayerDefs(),
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDef{w.name, w.why})
	}
	return m
}
