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
// what the paper's experiments, the examples and the CLIs call: the
// implementations and Algorithm 1's entry points (internal/gee), graph
// types and I/O (internal/graph), generators (internal/gen), labels and
// the label-agreement scores (internal/labels, internal/cluster), and
// the constructors of the dynamic embedder, its HTTP server, the typed
// client and the replica (internal/dyn, internal/server).
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

// Label agreement.

// ARI computes the Adjusted Rand Index between two labelings.
func ARI(a, b []int32) float64 { return cluster.ARI(a, b) }

// NMI computes normalized mutual information between two labelings.
func NMI(a, b []int32) float64 { return cluster.NMI(a, b) }

// Symmetrize returns an edge list with both arc directions per edge (GEE
// does not need it; label propagation does).
func Symmetrize(el *EdgeList) *EdgeList { return graph.Symmetrize(el) }

// WriteEmbedding streams Z as TSV (one vertex per row).
func WriteEmbedding(w io.Writer, z *Dense) error { return writeEmbeddingTSV(w, z) }

// Dynamic embedding (internal/dyn): GEE's per-edge contributions are
// linear, so edge insertions and deletions plus incremental label
// changes fold in without recomputation, with epoch-versioned snapshots
// serving concurrent readers while writers keep ingesting. cmd/geeserve
// serves it over HTTP; cmd/geeload drives writes and reads against it.

type (
	// DynamicEmbedder maintains a GEE embedding under edge and label
	// churn and serves lock-free consistent reads.
	DynamicEmbedder = dyn.DynamicEmbedder
	// DynamicOptions configures a DynamicEmbedder.
	DynamicOptions = dyn.Options
	// DynamicBatch is one atomic unit of dynamic ingest: deletions,
	// then insertions, then label updates.
	DynamicBatch = dyn.Batch
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
// publish-epoch acks and bounded-queue backpressure. cmd/geeserve runs
// it; cmd/geeload load-tests it; internal/server/client is the typed Go
// client.

type (
	// EmbeddingServer serves a DynamicEmbedder over HTTP.
	EmbeddingServer = server.Server
	// ServerOptions configures an EmbeddingServer.
	ServerOptions = server.Options
	// CoalescerOptions bounds the server's ingest micro-batching.
	CoalescerOptions = server.CoalescerOptions
	// EmbeddingClient is the typed client for the serving API.
	EmbeddingClient = client.Client
	// EmbeddingReplica is a read-only follower of a serving endpoint:
	// it bootstraps from /v1/snapshot and stays current via /v1/delta.
	EmbeddingReplica = client.Replica
	// NeighborsRequest is the POST /v1/neighbors body (vertex, k,
	// metric, and the exact/approx mode) EmbeddingClient.Neighbors
	// sends.
	NeighborsRequest = server.NeighborsRequest
)

// NewEmbeddingServer builds a server over the embedder and starts its
// ingest coalescer.
func NewEmbeddingServer(d *DynamicEmbedder, opts ServerOptions) *EmbeddingServer {
	return server.New(d, opts)
}

// NewEmbeddingClient builds a JSON client for a serving base URL like
// "http://127.0.0.1:8080" (nil http.Client selects the default).
func NewEmbeddingClient(base string, hc *http.Client) *EmbeddingClient {
	return client.New(base, hc)
}

// NewEmbeddingReplica builds a replica follower over a serving client.
// The first Sync bootstraps from a full snapshot; later Syncs apply
// epoch deltas and fall back to a snapshot only when told to resync.
func NewEmbeddingReplica(c *EmbeddingClient) *EmbeddingReplica {
	return client.NewReplica(c)
}
