package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Wire types. An omitted edge weight means 1; an *explicit* zero,
// negative, or non-finite weight is rejected with a 400 — the server
// must never silently rewrite a value the client actually sent.

// EdgeWire is one edge in a mutation request. W is a pointer so the
// decoder can tell "omitted" (nil → weight 1) from an explicit "w":0
// (rejected).
type EdgeWire struct {
	U uint32   `json:"u"`
	V uint32   `json:"v"`
	W *float32 `json:"w,omitempty"`
}

// LabelWire is one label update in a mutation request; class -1 removes
// the label.
type LabelWire struct {
	V     uint32 `json:"v"`
	Class int32  `json:"class"`
}

// MutationRequest is the body of POST /v1/edges, DELETE /v1/edges, and
// POST /v1/labels. Edge endpoints read Edges; the label endpoint reads
// Labels.
type MutationRequest struct {
	Edges  []EdgeWire  `json:"edges,omitempty"`
	Labels []LabelWire `json:"labels,omitempty"`
}

// MutationResponse acknowledges an applied mutation. Epochs is the
// per-shard ack vector — Epochs[i] is the epoch at which shard i
// published this batch's operations (only shards the batch touched
// appear; a one-shard server's vector has the single entry "0") — and
// Epoch is its max; read-your-writes per shard keys on the vector.
type MutationResponse struct {
	Epoch   uint64            `json:"epoch"`
	Epochs  shard.EpochVector `json:"epochs"`
	Applied int               `json:"applied"`
}

// EmbeddingResponse is the body of GET /v1/embedding/{v}: one vertex's
// row of the snapshot published at Epoch.
type EmbeddingResponse struct {
	Epoch uint64    `json:"epoch"`
	V     uint32    `json:"v"`
	Row   []float64 `json:"row"`
}

// SnapshotResponse is the body of GET /v1/snapshot?shard=i (streamed on
// the way out; clients decode it whole): one shard's section of the
// embedding. Shard and Lo identify the section, N is the section width
// (hi−lo), and Y/Z carry only the owned window — vertex Lo+j is row j.
// With one shard the section is the whole matrix, and a bare
// /v1/snapshot means shard 0.
type SnapshotResponse struct {
	Epoch uint64 `json:"epoch"`
	// Instance identifies the shard's embedder lifetime; epochs from
	// different instances are not comparable (a follower must resync
	// that section across a restart).
	Instance uint64      `json:"instance"`
	Shard    int         `json:"shard"`
	Lo       uint32      `json:"lo"`
	N        int         `json:"n"`
	K        int         `json:"k"`
	Edges    int64       `json:"edges"`
	Y        []int32     `json:"y"`
	Z        [][]float64 `json:"z"`
}

// BatchEmbeddingRequest is the body of POST /v1/embeddings: a batched
// multi-vertex read answered from one snapshot load.
type BatchEmbeddingRequest struct {
	Vs []uint32 `json:"vs"`
}

// BatchEmbeddingResponse is the body of POST /v1/embeddings: Rows[i]
// is vertex Vs[i]'s row. Each row comes from its owner shard's
// snapshot, all rows of one shard from the same version (which
// per-vertex GETs cannot promise); Epochs is that per-shard version
// vector and Epoch its max. The binary frame form carries one
// epoch/instance pair, so it exists only when the view is one snapshot.
type BatchEmbeddingResponse struct {
	Epoch  uint64            `json:"epoch"`
	Epochs shard.EpochVector `json:"epochs"`
	Rows   [][]float64       `json:"rows"`
}

// NeighborsRequest is the body of POST /v1/neighbors: the top K
// vertices nearest to V in the published embedding under Metric
// ("l2", the default, or "cosine"). Mode "exact" (the default) scans
// the live snapshot; "approx" answers from the IVF index, exactly for
// the epoch the index was built from, which may be a few epochs behind
// the published snapshot (the response's IndexEpoch says which).
type NeighborsRequest struct {
	V      uint32 `json:"v"`
	K      int    `json:"k"`
	Metric string `json:"metric,omitempty"`
	Mode   string `json:"mode,omitempty"`
}

// NeighborWire is one neighbor: a vertex and its distance to the query
// vertex.
type NeighborWire struct {
	V    uint32  `json:"v"`
	Dist float64 `json:"dist"`
}

// NeighborsResponse is the body of POST /v1/neighbors, neighbors in
// ascending distance order (the query vertex itself excluded). Mode is
// what actually answered — an "approx" request is served "exact" while
// the index is cold — and
// IndexEpoch is the epoch of the data the distances were computed
// against: equal to Epoch (the published epoch at answer time) for
// exact answers, possibly older for approx ones (index staleness; the
// query row itself always comes from its owner's live snapshot).
// The scan scatter-gathers: each shard ranks its owned rows and the
// partials merge under the same order, Epochs is the per-shard snapshot
// vector the scan covered, Mode is "approx" when at least one shard
// answered from its index, and IndexEpoch is the oldest data epoch any
// shard's distances were computed against.
type NeighborsResponse struct {
	Epoch      uint64            `json:"epoch"`
	Epochs     shard.EpochVector `json:"epochs"`
	IndexEpoch uint64            `json:"index_epoch"`
	Mode       string            `json:"mode"`
	V          uint32            `json:"v"`
	Metric     string            `json:"metric"`
	Neighbors  []NeighborWire    `json:"neighbors"`
}

// DeltaResponse is the body of GET /v1/delta?from=E&shard=i (streamed
// on the way out): one shard's delta, rows in global ids restricted to
// its owned window. When Resync is false, overwriting rows Rows[i] with
// Z[i] and applying Labels turns an epoch-From copy of the section into
// the epoch-Epoch one exactly; when Resync is true the follower must
// refetch the section from /v1/snapshot (From is ahead of the section,
// an epoch in the span changed class counts and rescaled whole columns,
// or the span changed more than half the section's rows).
type DeltaResponse struct {
	From  uint64 `json:"from"`
	Epoch uint64 `json:"epoch"`
	// Instance is the embedder lifetime the epochs belong to; a
	// follower holding section state from a different instance must
	// discard it and refetch the section even on a non-resync response.
	Instance uint64      `json:"instance"`
	Resync   bool        `json:"resync"`
	Edges    int64       `json:"edges,omitempty"`
	Labels   []LabelWire `json:"labels,omitempty"`
	Rows     []uint32    `json:"rows,omitempty"`
	Z        [][]float64 `json:"z,omitempty"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch"`
	N      int    `json:"n"`
	K      int    `json:"k"`
}

// ReadyResponse is the body of GET /readyz. Unlike /healthz (process
// liveness), readiness means the server can actually do its job: the
// ingest coalescer is accepting writes and a snapshot epoch has
// published for reads.
type ReadyResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
	Epoch  uint64 `json:"epoch"`
}

// StatsResponse is the body of GET /statsz. Dyn, Coalescer, and Index
// are aggregates across shards: counters are summed (a cut edge counts
// once per owner in LiveEdges), Dyn.Epoch is the newest shard epoch,
// and Index.Epoch the oldest non-zero shard index epoch (the staleness
// bound of an approximate answer). Shards holds the exact per-shard
// breakdown, and Epochs is the published epoch vector.
type StatsResponse struct {
	N         int            `json:"n"`
	K         int            `json:"k"`
	Dyn       dyn.Stats      `json:"dyn"`
	Coalescer CoalescerStats `json:"coalescer"`
	Index     IndexStats     `json:"index"`
	// Wire counts responses and bytes sent by the row-carrying
	// endpoints, split by negotiated format — the JSON-vs-binary byte
	// win, read from the same histograms /metrics serves.
	Wire   WireStats         `json:"wire"`
	Shards []ShardStats      `json:"shards"`
	Epochs shard.EpochVector `json:"epochs"`
}

// ShardStats is one shard's slice of /statsz.
type ShardStats struct {
	Shard     int            `json:"shard"`
	Lo        uint32         `json:"lo"`
	Hi        uint32         `json:"hi"`
	Instance  uint64         `json:"instance"`
	Dyn       dyn.Stats      `json:"dyn"`
	Coalescer CoalescerStats `json:"coalescer"`
	Index     IndexStats     `json:"index"`
}

// ErrorResponse carries any non-2xx outcome.
type ErrorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds a mutation request body (64 MiB ≈ 5M edges) so a
// single client cannot balloon server memory.
const maxBodyBytes = 64 << 20

// Connection and response-amplification limits. The header timeout
// (overridable via Options) kills Slowloris-style clients that open a
// connection and trickle header bytes forever; the idle timeout
// reclaims keep-alive connections of departed clients; the read-batch
// cap stops a small duplicate-heavy /v1/embeddings body from streaming
// an arbitrarily large response.
const (
	defaultReadHeaderTimeout = 5 * time.Second
	idleTimeout              = 2 * time.Minute
	maxReadBatch             = 8192
)

// Options configures a Server.
type Options struct {
	// Coalescer bounds the ingest micro-batching (zero fields select
	// defaults; see CoalescerOptions).
	Coalescer CoalescerOptions
	// ReadHeaderTimeout bounds how long a connection may take to send
	// its request headers. 0 selects 5s; negative disables.
	ReadHeaderTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the same
	// mux. Off by default: profiling endpoints leak heap contents and
	// must be an explicit operator decision.
	EnablePprof bool
	// DisableTracing turns off the always-on request tracing (span
	// recording, /debug/traces, the per-stage write histograms). The
	// recorder is bounded memory and its per-request cost is a handful
	// of small allocations, so this exists as a measurement escape
	// hatch (the overhead A/B in EXPERIMENTS.md), not a recommendation.
	DisableTracing bool
}

// Server serves a vertex-partitioned set of DynamicEmbedders — one, in
// the common case — over HTTP. Construct with New (one embedder) or
// NewSharded; both start the ingest coalescers. Expose Handler
// somewhere (or use ListenAndServe/Serve), and Shutdown to drain.
type Server struct {
	rt   *router
	mux  *http.ServeMux
	http *http.Server
	sm   *serverMetrics
	// The row-carrying routes, whose response-bytes histograms /statsz's
	// wire split reads.
	snapshotRoute, deltaRoute, embeddingsRoute *routeMetrics
}

// orDefault maps the Options timeout convention (0 = default, negative
// = disabled) onto the value the http.Server wants (0 = disabled).
func orDefault(v, def time.Duration) time.Duration {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

// New builds a server over one embedder: the trivial one-range
// partition behind the same router NewSharded uses. Other writers may
// Apply to the embedder directly (dyn serializes writers, and a publish
// covers every applied op regardless of origin, so acks stay sound);
// only the coalescer's Flushes/Publishes counters then stop matching
// the dyn counters exactly.
func New(d *dyn.DynamicEmbedder, opts Options) *Server {
	p, err := shard.NewPartition(d.N(), 1)
	if err != nil {
		panic(err) // unreachable: an embedder has at least one vertex
	}
	return NewSharded(p, []*shard.Shard{{Hi: uint32(d.N()), D: d}}, opts)
}

// NewSharded builds a scatter-gather server over a vertex-partitioned
// shard set (see shard.NewShards) and starts every shard's coalescer.
// Writes split by edge endpoint, reads route or scatter by owner, and
// /v1/snapshot and /v1/delta serve per-shard sections (?shard=i).
func NewSharded(p *shard.Partition, shards []*shard.Shard, opts Options) *Server {
	s := newServer(p, shards, opts)
	s.rt.start()
	return s
}

// newServer builds the router, mux, metrics, and route table without
// starting the coalescers (white-box tests exercise the backpressure
// path against an idle queue).
func newServer(p *shard.Partition, shards []*shard.Shard, opts Options) *Server {
	s := &Server{rt: newRouter(p, shards, opts)}
	s.mux = http.NewServeMux()
	// Built here, not in Serve: Shutdown may run concurrently with (or
	// before) Serve from another goroutine, so the field must be
	// immutable after construction.
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: orDefault(opts.ReadHeaderTimeout, defaultReadHeaderTimeout),
		IdleTimeout:       idleTimeout,
	}
	s.sm = newServerMetrics(opts.DisableTracing)
	// Every API route goes through the metrics wrapper; the instruments
	// are resolved here, once, so the per-request cost is atomic adds.
	handle := func(pattern string, h http.HandlerFunc) *routeMetrics {
		rm := s.sm.route(pattern)
		s.mux.HandleFunc(pattern, s.sm.wrap(rm, h))
		return rm
	}
	handle("POST /v1/edges", s.handleInsert)
	handle("DELETE /v1/edges", s.handleDelete)
	handle("POST /v1/labels", s.handleLabels)
	handle("GET /v1/embedding/{v}", s.handleEmbedding)
	s.embeddingsRoute = handle("POST /v1/embeddings", s.handleEmbeddings)
	handle("POST /v1/neighbors", s.handleNeighbors)
	handle("GET /v1/partition", s.handlePartition)
	s.snapshotRoute = handle("GET /v1/snapshot", s.handleSnapshot)
	s.deltaRoute = handle("GET /v1/delta", s.handleDelta)
	handle("GET /healthz", s.handleHealth)
	handle("GET /readyz", s.handleReady)
	handle("GET /statsz", s.handleStats)
	// The exposition endpoint itself stays unwrapped: scrapes measuring
	// themselves would put the scraper in every latency histogram. The
	// trace dump likewise: reading the flight recorder must not write
	// into it.
	s.mux.HandleFunc("GET /metrics", s.sm.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if opts.EnablePprof {
		// pprof.Index dispatches /debug/pprof/{heap,goroutine,...} by
		// path suffix, so the subtree pattern covers the named profiles.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.rt.instrument(s.sm.reg)
	metrics.RegisterRuntime(s.sm.reg)
	return s
}

// Metrics returns the server's registry (the one /metrics serves), for
// embedding processes that want to add their own instruments. Each
// server builds its own: instrument names are fixed, so two servers
// sharing a registry would share cells.
func (s *Server) Metrics() *metrics.Registry { return s.sm.reg }

// Handler returns the HTTP handler (for httptest or custom servers).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Shutdown. It reports the bound
// address through ready (useful with ":0") before blocking.
func (s *Server) ListenAndServe(addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	err := s.http.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains gracefully: stop accepting connections, wait for
// in-flight requests (their acks still arrive — the coalescer is
// stopped only afterwards), then drain and close the coalescer. Safe
// to call whether or not Serve was used.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	s.rt.close()
	return err
}

// Close is Shutdown with no deadline.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody parses a bounded JSON request body into T.
func decodeBody[T any](w http.ResponseWriter, r *http.Request) (*T, bool) {
	return decodeJSON[T](w, http.MaxBytesReader(w, r.Body, maxBodyBytes))
}

// decodeJSON parses one strict JSON value from body into T, replying
// 400 itself when it cannot.
func decodeJSON[T any](w http.ResponseWriter, body io.Reader) (*T, bool) {
	var req T
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, false
	}
	return &req, true
}

// maxPooledBody is the largest body buffer decodeEdges sizes ahead of
// the bytes arriving and the largest it keeps for the next request. It
// covers a ~35k-edge write; a larger body grows its buffer as it is
// read, so a client cannot reserve memory with a Content-Length alone.
const maxPooledBody = 1 << 20

// bodyPool recycles the body buffers of /v1/edges requests.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeEdges parses the body of POST or DELETE /v1/edges, replying
// 400 itself when it cannot; the request's "decode" span covers it. The
// canonical spelling goes through scanMutation. Every other body — and
// one whose read failed, replayed up to the failure — goes through
// encoding/json, which is what defines the route's schema and words
// every refusal.
func decodeEdges(w http.ResponseWriter, r *http.Request) ([]graph.Edge, bool) {
	tr := traceOf(w)
	ref := tr.StartSpan("decode")
	defer tr.EndSpan(ref)
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	if claimed := r.ContentLength; claimed > 0 && claimed < maxPooledBody {
		buf.Grow(int(claimed) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	// ReadFrom keeps what arrived when the read fails.
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var replay io.Reader = bytes.NewReader(buf.Bytes())
	if readErr != nil {
		replay = io.MultiReader(replay, errReader{readErr})
	} else if edges, ok := scanMutation(buf.Bytes()); ok {
		return edges, true
	}
	req, ok := decodeJSON[MutationRequest](w, replay)
	if !ok {
		return nil, false
	}
	// Never silently drop operations: a populated wrong-kind field
	// would be acked without being applied.
	if len(req.Labels) > 0 {
		writeError(w, http.StatusBadRequest, "labels not accepted on /v1/edges (use /v1/labels)")
		return nil, false
	}
	edges, err := toEdges(req.Edges)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return edges, true
}

// toEdges converts wire edges. An omitted weight defaults to 1; an
// explicit zero, negative, or non-finite weight is an error — the old
// behavior of rewriting "w":0 to 1 silently mutated the client's
// request (and made a zero-weight delete match a weight-1 edge).
func toEdges(wire []EdgeWire) ([]graph.Edge, error) {
	edges := make([]graph.Edge, len(wire))
	for i, e := range wire {
		w := float32(1)
		if e.W != nil {
			w = *e.W
			if f := float64(w); w <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("edge %d (%d->%d): weight %v is not a positive finite number (omit w for 1)",
					i, e.U, e.V, w)
			}
		}
		edges[i] = graph.Edge{U: e.U, V: e.V, W: w}
	}
	return edges, nil
}

// submit runs one write batch through the router and replies with the
// ack. The handler blocks until the batch is published on every shard
// it touched — that is the point: a 200 means read-your-write holds
// from the Epochs vector on.
func (s *Server) submit(w http.ResponseWriter, b dyn.Batch, ops int) {
	// The trace crosses into the coalescer here and comes back with the
	// ack; both handoffs ride channels, so the unsynchronized span
	// writes in between are ordered.
	tr := traceOf(w)
	a, err := s.rt.submit(b, tr)
	switch err {
	case nil:
	case ErrBacklog:
		// Retry-After derives from the observed drain rate, not a
		// constant: a client backing off for exactly as long as the queue
		// needs to drain avoids both thundering retries and dead air.
		w.Header().Set("Retry-After", strconv.Itoa(s.rt.retryAfter()))
		writeError(w, http.StatusTooManyRequests, "ingest queue full")
		return
	case ErrClosed:
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// The ack span is the handoff back: channel wake-up plus handler
	// resume, measured from the instant the ingest goroutine released
	// the ack.
	if tr != nil && !a.sent.IsZero() {
		tr.AddSpan("ack", a.sent, time.Now())
	}
	if a.err != nil {
		writeError(w, http.StatusBadRequest, "%v", a.err)
		return
	}
	annotate(w, a.epoch)
	writeJSON(w, http.StatusOK, MutationResponse{Epoch: a.epoch, Epochs: a.epochs, Applied: ops})
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	edges, ok := decodeEdges(w, r)
	if !ok {
		return
	}
	s.submit(w, dyn.Batch{Insert: edges}, len(edges))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	edges, ok := decodeEdges(w, r)
	if !ok {
		return
	}
	s.submit(w, dyn.Batch{Delete: edges}, len(edges))
}

func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request) {
	tr := traceOf(w)
	ref := tr.StartSpan("decode")
	req, ok := decodeBody[MutationRequest](w, r)
	tr.EndSpan(ref)
	if !ok {
		return
	}
	if len(req.Edges) > 0 {
		writeError(w, http.StatusBadRequest, "edges not accepted on /v1/labels (use /v1/edges)")
		return
	}
	ups := make([]dyn.LabelUpdate, len(req.Labels))
	for i, l := range req.Labels {
		ups[i] = dyn.LabelUpdate{V: l.V, Class: l.Class}
	}
	s.submit(w, dyn.Batch{Labels: ups}, len(ups))
}

func (s *Server) handleEmbedding(w http.ResponseWriter, r *http.Request) {
	v, err := strconv.ParseUint(r.PathValue("v"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad vertex %q", r.PathValue("v"))
		return
	}
	if int(v) >= s.rt.n {
		writeError(w, http.StatusNotFound, "vertex %d outside [0,%d)", v, s.rt.n)
		return
	}
	// The owner shard's snapshot is the authority for this row.
	snap := s.rt.snapshotFor(uint32(v))
	row := snap.Z.Row(int(v), make([]float64, snap.Z.C))
	annotate(w, snap.Epoch)
	writeJSON(w, http.StatusOK, EmbeddingResponse{Epoch: snap.Epoch, V: uint32(v), Row: row})
}

// handleEmbeddings answers a batched multi-vertex read from one
// snapshot load per shard: all rows of a shard come from the same
// published version. Any out-of-range vertex fails the whole request (a partial
// answer would silently drop reads), and the vertex count is capped —
// the body size bound alone does not stop a tiny duplicate-heavy vs
// list from amplifying into an arbitrarily large streamed response.
func (s *Server) handleEmbeddings(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody[BatchEmbeddingRequest](w, r)
	if !ok {
		return
	}
	if len(req.Vs) > maxReadBatch {
		writeError(w, http.StatusBadRequest, "batch read of %d vertices exceeds the limit of %d per request",
			len(req.Vs), maxReadBatch)
		return
	}
	rv := s.rt.view()
	n := s.rt.n
	for _, v := range req.Vs {
		if int(v) >= n {
			writeError(w, http.StatusNotFound, "vertex %d outside [0,%d)", v, n)
			return
		}
	}
	ev := rv.epochs()
	epoch := ev.Max()
	annotate(w, epoch)
	st := newStreamer(w, r.Context())
	defer st.release()
	var rows int
	// The binary embeddings frame carries one epoch/instance pair, which
	// only a one-snapshot view has (across shards each row is stamped by
	// its owner); a wider view answers JSON regardless of Accept.
	if wantsBinary(r) && len(rv.snaps) == 1 {
		w.Header().Set("Content-Type", wire.ContentType)
		rows = streamEmbeddingsBinary(st, rv.snaps[0], req.Vs)
	} else {
		w.Header().Set("Content-Type", "application/json")
		evJSON, _ := json.Marshal(ev)
		fmt.Fprintf(st.w, `{"epoch":%d,"epochs":%s,"rows":`, epoch, evJSON)
		k := s.rt.k
		rows = st.floatRows(len(req.Vs), k, func(lo, hi int, dst []float64) {
			for i, v := range req.Vs[lo:hi] {
				rv.row(v, dst[i*k:])
			}
		})
		if rows == len(req.Vs) {
			st.rawByte('}')
		}
		st.flush()
	}
	if rows != len(req.Vs) || st.failed() {
		annotateAborted(w)
	}
}

// handleNeighbors answers a top-k nearest-neighbor query over the
// published embedding. Mode "exact" (the default) runs the parallel
// brute-force scan over the live snapshot; mode "approx" probes the
// IVF index, which may trail the published epoch (the response carries
// the epoch actually searched) — a stale-index query also kicks the
// asynchronous rebuild. Both paths are lock-free against ingest: every
// matrix touched is an immutable published version.
func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody[NeighborsRequest](w, r)
	if !ok {
		return
	}
	var metric cluster.Metric
	name := req.Metric
	switch name {
	case "", "l2":
		metric, name = cluster.L2, "l2"
	case "cosine":
		metric = cluster.Cosine
	default:
		writeError(w, http.StatusBadRequest, "unknown metric %q (want l2 or cosine)", req.Metric)
		return
	}
	mode := req.Mode
	switch mode {
	case "", "exact":
		mode = "exact"
	case "approx":
	default:
		writeError(w, http.StatusBadRequest, "unknown mode %q (want exact or approx)", req.Mode)
		return
	}
	if req.K <= 0 {
		writeError(w, http.StatusBadRequest, "k must be positive, got %d", req.K)
		return
	}
	n := s.rt.n
	if int(req.V) >= n {
		writeError(w, http.StatusNotFound, "vertex %d outside [0,%d)", req.V, n)
		return
	}
	// Clamp k to the row count before the search sizes its per-worker
	// heaps by it — an attacker-sized k must not become an allocation.
	k := req.K
	if k > n {
		k = n
	}
	out := s.rt.search(req.V, k, metric, name, mode == "approx", traceOf(w))
	annotate(w, out.epoch)
	wire := make([]NeighborWire, len(out.nbrs))
	for i, nb := range out.nbrs {
		wire[i] = NeighborWire{V: uint32(nb.V), Dist: nb.Dist}
	}
	writeJSON(w, http.StatusOK, NeighborsResponse{
		Epoch: out.epoch, Epochs: out.epochs, IndexEpoch: out.indexEpoch, Mode: out.mode,
		V: req.V, Metric: name, Neighbors: wire,
	})
}

// handleSnapshot streams one shard's published section row by row
// through a pooled buffered writer — the matrix is never marshaled into
// a second in-memory copy. The default JSON stream writes floats in
// shortest round-trip form, so a client re-reading them recovers the
// exact published values; a client that negotiated the binary format
// (Accept: application/x-gee-frame) gets the same rows as a dense
// float32 frame. Either stream aborts between row chunks when the
// client disconnects (write error or context cancellation), so a
// departed reader does not pay for the full O(nK) serialization.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	si, ok := s.sectionOf(w, r)
	if !ok {
		return
	}
	tr := traceOf(w)
	loadRef := tr.StartSpan("snapshot-load")
	snap, lo := s.rt.section(si)
	tr.EndSpan(loadRef)
	annotate(w, snap.Epoch)
	st := newStreamer(w, r.Context())
	defer st.release()
	streamRef := tr.StartSpan("stream")
	var rows int
	if wantsBinary(r) {
		w.Header().Set("Content-Type", wire.ContentType)
		rows = streamSnapshotBinary(st, snap)
	} else {
		w.Header().Set("Content-Type", "application/json")
		rows = streamSnapshot(st, snap, si, lo)
	}
	tr.EndSpan(streamRef)
	tr.SpanTag(streamRef, "rows", strconv.Itoa(rows))
	tr.SpanTag(streamRef, "shard", strconv.Itoa(si))
	// A short row count means the client departed mid-body after the
	// 200 was already committed — the status line alone would record
	// this as a fully served response.
	if rows != snap.Z.R || st.failed() {
		annotateAborted(w)
	}
}

// sectionOf resolves the ?shard= query parameter of the section reads
// (/v1/partition lists the sections). The one rule about shard count is
// data-driven: a bare request means shard 0 when the partition has one
// range, and is refused when there is a choice to make.
func (s *Server) sectionOf(w http.ResponseWriter, r *http.Request) (int, bool) {
	shards := len(s.rt.units)
	q := r.URL.Query().Get("shard")
	if q == "" {
		if shards == 1 {
			return 0, true
		}
		writeError(w, http.StatusBadRequest,
			"pass ?shard= (0..%d; see /v1/partition)", shards-1)
		return 0, false
	}
	si, err := strconv.Atoi(q)
	if err != nil || si < 0 || si >= shards {
		writeError(w, http.StatusBadRequest, "bad shard %q (have %d shards)", q, shards)
		return 0, false
	}
	return si, true
}

// handlePartition serves the shard map: how many shards, which
// contiguous vertex range each owns, and each shard's current instance
// and epoch — what a follower needs to assemble the sections.
func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.rt.meta())
}

// handleDelta streams one shard's epoch delta from ?from=E to its
// published epoch, the replica fan-out read: changed rows instead of
// the full section, or a resync signal when the span is not
// row-reconstructible (see dyn.Delta).
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	fromStr := r.URL.Query().Get("from")
	from, err := strconv.ParseUint(fromStr, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad from epoch %q", fromStr)
		return
	}
	si, ok := s.sectionOf(w, r)
	if !ok {
		return
	}
	tr := traceOf(w)
	// A shard's delta already lists only its owned rows and relabels
	// (global ids), so the section protocol reuses the delta format
	// as-is: per-shard sections never overlap.
	dl := s.rt.units[si].sh.D.Delta(from)
	annotate(w, dl.Epoch)
	st := newStreamer(w, r.Context())
	defer st.release()
	streamRef := tr.StartSpan("stream")
	var rows int
	if wantsBinary(r) {
		w.Header().Set("Content-Type", wire.ContentType)
		rows = streamDeltaBinary(st, dl, s.rt.k, s.rt.n)
	} else {
		w.Header().Set("Content-Type", "application/json")
		rows = streamDelta(st, dl, s.rt.k)
	}
	tr.EndSpan(streamRef)
	tr.SpanTag(streamRef, "rows", strconv.Itoa(rows))
	tr.SpanTag(streamRef, "shard", strconv.Itoa(si))
	if dl.Resync {
		tr.SpanTag(streamRef, "resync", "true")
	}
	expected := len(dl.Rows)
	if dl.Resync {
		expected = 0
	}
	if rows != expected || st.failed() {
		annotateAborted(w)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status: "ok", Epoch: s.rt.epochVector().Max(), N: s.rt.n, K: s.rt.k,
	})
}

// handleReady answers load-balancer readiness: 200 only when the
// coalescer is started and accepting (it is not during shutdown, nor
// in white-box tests that never Start it) and at least one epoch has
// published (the epoch-0 bootstrap publish counts — reads are
// answerable from it).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	epoch, reason := s.rt.ready()
	if reason != "" {
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Ready: false, Reason: reason})
		return
	}
	writeJSON(w, http.StatusOK, ReadyResponse{Ready: true, Epoch: epoch})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.rt.stats()
	st.Wire = WireStats{
		Snapshot:   s.snapshotRoute.wireStats(),
		Delta:      s.deltaRoute.wireStats(),
		Embeddings: s.embeddingsRoute.wireStats(),
	}
	writeJSON(w, http.StatusOK, st)
}
