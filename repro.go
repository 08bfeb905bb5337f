// Package repro is the public API of the Edge-Parallel Graph Encoder
// Embedding reproduction (Lubonja, Shen, Priebe, Burns — IPPS 2024).
//
// It embeds the n vertices of a graph into K dimensions with a single
// pass over the edges, in any of the paper's four implementations — from
// the faithful serial reference to the edge-parallel edge map with
// lock-free atomic updates — plus two race-free parallel backends:
// Replicated (per-worker buffers + reduction) and ShardedParallel
// (destination-sharded plain writes, no atomics and no replicas).
//
// Quick start:
//
//	el, _ := repro.LoadEdgeList("graph.txt")
//	y := repro.SampleLabels(el.N, 50, 0.10, 1) // paper's protocol
//	res, err := repro.Embed(repro.LigraParallel, el, y, repro.Options{K: 50})
//	// res.Z.Row(v) is the K-dimensional embedding of vertex v
//
// The heavy lifting lives in internal packages; this package re-exports
// the stable surface: graph types and I/O (internal/graph), generators
// (internal/gen), the GEE family (internal/gee), labels
// (internal/labels), evaluation (internal/cluster), and the dynamic
// embedder with its HTTP serving layer (internal/dyn, internal/server).
package repro

import (
	"io"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/dyn"
	"repro/internal/gee"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/server/client"
)

// Core graph types.
type (
	// NodeID identifies a vertex (dense uint32 ids).
	NodeID = graph.NodeID
	// Edge is one row of the edge list E ∈ R^{s×3}.
	Edge = graph.Edge
	// EdgeList is the paper's native input representation.
	EdgeList = graph.EdgeList
	// Graph is the compressed sparse row form the edge map walks.
	Graph = graph.CSR
	// Dense is the row-major matrix type used for embeddings.
	Dense = mat.Dense
)

// Embedding types.
type (
	// Impl selects one of the paper's implementations.
	Impl = gee.Impl
	// Options configures an embedding run.
	Options = gee.Options
	// Result is the output of an embedding run.
	Result = gee.Result
	// Timings records Algorithm 2's two phases.
	Timings = gee.Timings
	// VerifyReport is a cross-implementation equivalence record.
	VerifyReport = gee.VerifyReport
	// RefineOptions configures the unsupervised pipeline.
	RefineOptions = gee.RefineOptions
	// RefineResult is the unsupervised pipeline output.
	RefineResult = gee.RefineResult
)

// The paper's implementations (Table I order), the ablations, and the
// contention-free sharded backend.
const (
	Reference           = gee.Reference
	Optimized           = gee.Optimized
	LigraSerial         = gee.LigraSerial
	LigraParallel       = gee.LigraParallel
	LigraParallelUnsafe = gee.LigraParallelUnsafe
	// Replicated accumulates into per-worker private copies of Z and
	// reduces them (race-free without atomics, workers × n × K memory).
	Replicated = gee.Replicated
	// ShardedParallel partitions Z rows into degree-balanced shards so
	// each worker owns a disjoint slice and writes without atomics —
	// no races, no replicas, no reduction pass.
	ShardedParallel = gee.ShardedParallel
)

// Impls lists every implementation.
var Impls = gee.Impls

// Unknown marks an unlabeled vertex in a label vector.
const Unknown = labels.Unknown

// Embed runs implementation impl on an edge list. See gee.Embed.
func Embed(impl Impl, el *EdgeList, y []int32, opts Options) (*Result, error) {
	return gee.Embed(impl, el, y, opts)
}

// EmbedGraph runs an implementation over a prebuilt CSR graph.
func EmbedGraph(impl Impl, g *Graph, y []int32, opts Options) (*Result, error) {
	return gee.EmbedCSR(impl, g, y, opts)
}

// EmbedGraphTimed additionally reports Algorithm 2's per-phase timings
// (Ligra implementations only).
func EmbedGraphTimed(impl Impl, g *Graph, y []int32, opts Options) (*Result, *Timings, error) {
	return gee.EmbedCSRTimed(impl, g, y, opts)
}

// Verify runs every implementation and compares against the Reference
// oracle within tol.
func Verify(el *EdgeList, y []int32, opts Options, tol float64) ([]VerifyReport, error) {
	return gee.Verify(el, y, opts, tol)
}

// Refine runs the unsupervised embed → cluster → relabel pipeline.
func Refine(el *EdgeList, opts RefineOptions) (*RefineResult, error) {
	return gee.Refine(el, opts)
}

// BuildGraph constructs the CSR form of an edge list in parallel.
// workers <= 0 selects GOMAXPROCS.
func BuildGraph(workers int, el *EdgeList) *Graph {
	return graph.BuildCSR(workers, el)
}

// Graph I/O.

// LoadEdgeList reads a SNAP-style "u v [w]" text file.
func LoadEdgeList(path string) (*EdgeList, error) { return graph.ReadEdgeListFile(path) }

// SaveEdgeList writes a SNAP-style edge list text file.
func SaveEdgeList(path string, el *EdgeList) error { return graph.WriteEdgeListFile(path, el) }

// LoadAdjacency reads a Ligra/PBBS (Weighted)AdjacencyGraph file.
func LoadAdjacency(path string) (*Graph, error) { return graph.ReadAdjacencyFile(path) }

// SaveAdjacency writes a Ligra/PBBS (Weighted)AdjacencyGraph file.
func SaveAdjacency(path string, g *Graph) error { return graph.WriteAdjacencyFile(path, g) }

// LoadBinary reads the compact binary CSR format.
func LoadBinary(path string) (*Graph, error) { return graph.ReadBinaryFile(path) }

// SaveBinary writes the compact binary CSR format.
func SaveBinary(path string, g *Graph) error { return graph.WriteBinaryFile(path, g) }

// Generators (deterministic; independent of worker count).

// NewErdosRenyi samples m uniform random edges over n vertices.
func NewErdosRenyi(workers, n int, m int64, seed uint64) *EdgeList {
	return gen.ErdosRenyi(workers, n, m, seed)
}

// NewRMAT samples a Graph500-parameterized R-MAT graph over 2^scale
// vertices (the repository's stand-in for SNAP social networks).
func NewRMAT(workers, scale int, m int64, seed uint64) *EdgeList {
	return gen.RMAT(workers, scale, m, gen.Graph500Params, seed)
}

// NewSBM samples a planted-partition stochastic block model and returns
// the graph plus ground-truth block labels.
func NewSBM(workers, n, k int, pIn, pOut float64, seed uint64) (*EdgeList, []int32) {
	return gen.SBM(workers, n, k, pIn, pOut, seed)
}

// Labels.

// SampleLabels implements the paper's protocol: labels uniform over
// [0, k) for fraction of the nodes, Unknown elsewhere.
func SampleLabels(n, k int, fraction float64, seed uint64) []int32 {
	return labels.SampleSemiSupervised(n, k, fraction, seed)
}

// PropagationLabels derives labels by community detection (synchronous
// label propagation — the repository's Leiden substitute). The graph
// should be symmetrized.
func PropagationLabels(workers int, g *Graph, rounds int, seed uint64) []int32 {
	return labels.Propagation(workers, g, rounds, seed)
}

// Evaluation.

// KMeansLabels clusters embedding rows into k clusters and returns the
// assignment.
func KMeansLabels(workers int, z *Dense, k int, seed uint64) []int32 {
	return cluster.KMeans(workers, z, k, seed, 100).Assign
}

// ARI computes the Adjusted Rand Index between two labelings.
func ARI(a, b []int32) float64 { return cluster.ARI(a, b) }

// NMI computes normalized mutual information between two labelings.
func NMI(a, b []int32) float64 { return cluster.NMI(a, b) }

// Symmetrize returns an edge list with both arc directions per edge (GEE
// does not need it; label propagation does).
func Symmetrize(el *EdgeList) *EdgeList { return graph.Symmetrize(el) }

// WriteEmbedding streams Z as TSV (one vertex per row).
func WriteEmbedding(w io.Writer, z *Dense) error { return writeEmbeddingTSV(w, z) }

// Streaming / incremental embedding.

// StreamingEmbedder maintains a GEE embedding under edge insertions and
// removals (contributions are linear, so batches fold in atomically).
// Labels are fixed at construction; for label churn, deletions with
// exact-match semantics, and concurrent serving use DynamicEmbedder.
type StreamingEmbedder = gee.StreamingEmbedder

// NewStreamingEmbedder prepares an empty embedding with fixed labels.
func NewStreamingEmbedder(n int, y []int32, opts Options) (*StreamingEmbedder, error) {
	return gee.NewStreamingEmbedder(n, y, opts)
}

// Dynamic embedding service (internal/dyn): full churn — edge
// insertions and deletions plus incremental label changes — with
// epoch-versioned snapshots serving concurrent readers while writers
// keep ingesting. cmd/geeserve drives it as a service workload.

type (
	// DynamicEmbedder maintains a GEE embedding under edge and label
	// churn and serves lock-free consistent reads.
	DynamicEmbedder = dyn.DynamicEmbedder
	// DynamicOptions configures a DynamicEmbedder.
	DynamicOptions = dyn.Options
	// DynamicBatch is one atomic unit of dynamic ingest: deletions,
	// then insertions, then label updates.
	DynamicBatch = dyn.Batch
	// DynamicVersion is one published, immutable embedding version, its
	// rows in copy-on-write pages shared with neighbouring epochs.
	DynamicVersion = dyn.Version
	// DynamicSnapshot is a DynamicVersion with Z as one contiguous matrix.
	DynamicSnapshot = dyn.Snapshot
	// DynamicStats counts a DynamicEmbedder's operations.
	DynamicStats = dyn.Stats
	// LabelUpdate reassigns one vertex's class in a DynamicBatch.
	LabelUpdate = dyn.LabelUpdate
)

// NewDynamicEmbedder prepares a dynamic embedding service for n
// vertices with the given initial labels (Unknown where unlabeled).
func NewDynamicEmbedder(n int, y []int32, opts DynamicOptions) (*DynamicEmbedder, error) {
	return dyn.New(n, y, opts)
}

// Network serving layer (internal/server): the HTTP/JSON API over a
// DynamicEmbedder — lock-free snapshot reads, coalesced writes with
// publish-epoch acks and bounded-queue backpressure. cmd/geeserve
// -serve runs it; cmd/geeload load-tests it; internal/server/client is
// the typed Go client.

type (
	// EmbeddingServer serves a DynamicEmbedder over HTTP.
	EmbeddingServer = server.Server
	// ServerOptions configures an EmbeddingServer.
	ServerOptions = server.Options
	// CoalescerOptions bounds the server's ingest micro-batching.
	CoalescerOptions = server.CoalescerOptions
	// EmbeddingClient is the typed client for the serving API.
	EmbeddingClient = client.Client
	// ClientOption configures an EmbeddingClient.
	ClientOption = client.Option
	// WireFormat selects the client's response encoding for the
	// row-carrying endpoints: JSON (the default) or binary frames.
	WireFormat = client.Format
)

// Wire formats an EmbeddingClient can negotiate (see WithWireFormat).
const (
	WireJSON   = client.JSON
	WireBinary = client.Binary
)

// WithWireFormat makes the client request the given wire format;
// WireBinary negotiates compact float32 frames (sparse deltas, dense
// snapshots) and decodes JSON from a server that answers it anyway.
func WithWireFormat(f WireFormat) ClientOption { return client.WithWire(f) }

// NewEmbeddingServer builds a server over the embedder and starts its
// ingest coalescer.
func NewEmbeddingServer(d *DynamicEmbedder, opts ServerOptions) *EmbeddingServer {
	return server.New(d, opts)
}

// NewEmbeddingClient builds a client for a serving base URL like
// "http://127.0.0.1:8080" (nil http.Client selects the default).
func NewEmbeddingClient(base string, hc *http.Client, opts ...ClientOption) *EmbeddingClient {
	return client.New(base, hc, opts...)
}

// Observability (internal/metrics): the dependency-free instrument
// registry every serving layer records into, exposed by the server at
// GET /metrics in the Prometheus text format. Embedding processes can
// pass their own registry via ServerOptions.Metrics and add their own
// instruments next to the server's.

type (
	// MetricsRegistry holds counters, gauges, and histograms and
	// renders them as Prometheus text exposition.
	MetricsRegistry = metrics.Registry
	// MetricsCounter is a monotonically increasing atomic counter.
	MetricsCounter = metrics.Counter
	// MetricsGauge is a settable atomic gauge.
	MetricsGauge = metrics.Gauge
	// MetricsHistogram is a lock-free fixed-bucket latency/size
	// histogram with mergeable snapshots and quantile estimation.
	MetricsHistogram = metrics.Histogram
	// MetricsHistogramSnapshot is one consistent view of a histogram
	// (mergeable across instances; Quantile estimates p50/p90/p99).
	MetricsHistogramSnapshot = metrics.HistogramSnapshot
	// MetricsLabel is one name="value" pair on an instrument.
	MetricsLabel = metrics.Label
	// MetricsSample is one parsed Prometheus exposition line.
	MetricsSample = metrics.Sample
)

// NewMetricsRegistry returns an empty instrument registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// ExpBuckets returns n log-spaced histogram bucket bounds starting at
// start and growing by factor (the scheme the serving instruments use).
func ExpBuckets(start, factor float64, n int) []float64 {
	return metrics.ExpBuckets(start, factor, n)
}

// ParseMetricsText reads Prometheus text exposition (e.g. a /metrics
// scrape) into typed samples.
func ParseMetricsText(r io.Reader) ([]MetricsSample, error) { return metrics.ParseText(r) }

// Read-path scale-out: epoch deltas for replica fan-out, replica
// followers serving local lock-free reads, and exact nearest-neighbor
// search over a published embedding.

type (
	// EmbeddingDelta describes how to advance a copy of the embedding
	// between epochs (changed rows + label moves), or demands a resync
	// when the span is not row-reconstructible.
	EmbeddingDelta = dyn.Delta
	// EmbeddingReplica is a read-only follower of a serving endpoint:
	// it bootstraps from /v1/snapshot and stays current via /v1/delta.
	EmbeddingReplica = client.Replica
	// ReplicaSnapshot is one immutable local version held by a replica.
	ReplicaSnapshot = client.ReplicaSnapshot
	// ReplicaStats counts a replica's syncs, resyncs, and wire bytes.
	ReplicaStats = client.ReplicaStats
	// NeighborMetric selects the NearestNeighbors distance.
	NeighborMetric = cluster.Metric
	// Neighbor is one nearest-neighbor result: row id and distance.
	Neighbor = cluster.Neighbor
	// NeighborsRequest is the POST /v1/neighbors body (vertex, k,
	// metric, and the exact/approx mode with its nprobe).
	NeighborsRequest = server.NeighborsRequest
	// NeighborsResponse reports the neighbors plus which mode and
	// index epoch actually answered.
	NeighborsResponse = server.NeighborsResponse
	// ApproxIndex is an inverted-file (IVF) approximate
	// nearest-neighbor index; it owns a copy of the rows it indexes.
	ApproxIndex = cluster.IVF
	// ApproxIndexOptions configures BuildApproxIndex.
	ApproxIndexOptions = cluster.IVFOptions
	// ServerIndexOptions configures the serving layer's epoch-aware
	// approximate index cache.
	ServerIndexOptions = server.IndexOptions
)

// Metrics for NearestNeighbors (and the /v1/neighbors endpoint).
const (
	L2Metric     = cluster.L2
	CosineMetric = cluster.Cosine
)

// NewEmbeddingReplica builds a replica follower over a serving client.
// The first Sync bootstraps from a full snapshot; later Syncs apply
// epoch deltas and fall back to a snapshot only when told to resync.
func NewEmbeddingReplica(c *EmbeddingClient) *EmbeddingReplica {
	return client.NewReplica(c)
}

// NearestNeighbors returns the k rows of X nearest to query under the
// metric, ascending by distance. Pass a row id as exclude to skip it
// (the row the query came from), or a negative value to keep all rows.
func NearestNeighbors(workers int, X *Dense, query []float64, k int, m NeighborMetric, exclude int) []Neighbor {
	return cluster.TopK(workers, X, query, k, m, exclude)
}

// BuildApproxIndex clusters the rows of X into an inverted-file
// approximate nearest-neighbor index: Search probes only the nprobe
// lists nearest the query instead of scanning every row. The index
// copies the rows (list by list), so X is free to change afterwards.
func BuildApproxIndex(workers int, X *Dense, opts ApproxIndexOptions) *ApproxIndex {
	return cluster.BuildIVF(workers, X, opts)
}

// Directed variant and structural helpers.

// EmbedDirected produces the 2K-wide directed embedding (separate out-
// and in-profiles per vertex).
func EmbedDirected(impl Impl, g *Graph, y []int32, opts Options) (*Result, error) {
	return gee.EmbedDirected(impl, g, y, opts)
}

// FoldDirected collapses a directed 2K-wide embedding to the standard K.
func FoldDirected(z *Dense) *Dense { return gee.FoldDirected(z) }

// DiagonalAugment adds a unit self loop per vertex (the GEE paper's
// diagonal augmentation for low-degree stability).
func DiagonalAugment(el *EdgeList) *EdgeList { return gee.DiagonalAugment(el) }

// KNNClassify predicts labels by k-nearest-neighbor vote in embedding
// space (rows with y >= 0 are the training set).
func KNNClassify(workers int, z *Dense, y []int32, k int) []int32 {
	return cluster.KNNClassify(workers, z, y, k)
}

// SortAdjacency canonically sorts every adjacency list, so equal graphs
// get equal CSRs whatever order their edges arrived in.
func SortAdjacency(workers int, g *Graph) { graph.SortAdjacency(workers, g) }

// DegreeOrder returns the hubs-first relabeling permutation.
func DegreeOrder(workers int, g *Graph) []NodeID { return graph.DegreeOrder(workers, g) }

// BFSOrder returns the BFS-discovery relabeling permutation.
func BFSOrder(g *Graph) []NodeID { return graph.BFSOrder(g) }

// ApplyOrder rebuilds a graph under a relabeling permutation
// (perm[old] = new).
func ApplyOrder(workers int, g *Graph, perm []NodeID) *Graph {
	return graph.ApplyOrder(workers, g, perm)
}
