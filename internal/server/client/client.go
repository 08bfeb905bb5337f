// Package client is the typed Go client for the GEE serving API
// (internal/server). Every mutation call blocks until the server has
// published the operations and returns the ack epoch: a successful
// InsertEdges means any subsequent Embedding or Snapshot read at or
// after that epoch reflects the inserted edges.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ErrBacklog reports a 429: the server's ingest queue was full. The
// request was not applied; retry after a pause.
var ErrBacklog = errors.New("client: server ingest queue full (429)")

// Format selects how the client asks the server to encode the large
// row-carrying responses it decodes into the JSON response structs:
// Snapshot, SnapshotShard and Embeddings. A Replica does not use it: it
// always reads binary frames.
type Format int

const (
	// JSON (the default) is the debug-friendly text path: float64 rows
	// in shortest round-trip decimal — re-reading recovers the exact
	// published bits.
	JSON Format = iota
	// Binary negotiates compact wire frames (internal/wire): dense
	// float32 rows at a fraction of the JSON bytes, decoded
	// transparently into the same response structs. A server may answer
	// JSON anyway; the response's Content-Type picks the decoder.
	Binary
)

func (f Format) String() string {
	if f == Binary {
		return "binary"
	}
	return "json"
}

// Option configures a Client.
type Option func(*Client)

// WithWire selects the wire format for large row responses.
func WithWire(f Format) Option { return func(c *Client) { c.wire = f } }

// Client talks to one serving endpoint. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	wire Format
}

// New builds a client for a base URL like "http://127.0.0.1:8080". A
// nil http.Client selects http.DefaultClient.
func New(base string, hc *http.Client, opts ...Option) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(base, "/"), hc: hc}
	for _, o := range opts {
		o(c)
	}
	return c
}

// countingReader counts bytes as they are consumed — the replica's
// wire-byte accounting.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// acceptValue is what a binary-mode client sends: frames preferred,
// JSON accepted — an old server that ignores the first type still
// answers something the client can parse.
const acceptValue = wire.ContentType + ", application/json"

// isFrame reports whether a response Content-Type is the binary frame
// type.
func isFrame(contentType string) bool {
	mt, _, _ := strings.Cut(contentType, ";")
	return strings.EqualFold(strings.TrimSpace(mt), wire.ContentType)
}

// checkStatus translates a non-200 response into an error (consuming
// the body). A nil return means the caller owns a 200 body.
func checkStatus(resp *http.Response, method, path string) error {
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode == http.StatusTooManyRequests {
		return ErrBacklog
	}
	var e server.ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return fmt.Errorf("client: %s %s: %s (%d)", method, path, e.Error, resp.StatusCode)
	}
	return fmt.Errorf("client: %s %s: status %d", method, path, resp.StatusCode)
}

// do runs one request and decodes the response into out, translating
// error statuses. A binary-mode client negotiates wire frames for the
// row-carrying endpoints and decodes them transparently — out is
// filled either way; the response's Content-Type decides the decoder.
func (c *Client) do(ctx context.Context, method, path string, body any, out any) error {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return err
		}
	}
	return c.send(ctx, method, path, buf, out)
}

// send is do with the JSON request body already rendered (nil for
// none).
func (c *Client) send(ctx context.Context, method, path string, body []byte, out any) error {
	accept := ""
	if c.wire == Binary {
		accept = acceptValue
	}
	resp, err := c.roundTrip(ctx, method, path, body, accept)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if isFrame(resp.Header.Get("Content-Type")) {
		f, err := wire.ReadFrame(resp.Body)
		if err != nil {
			return err
		}
		return frameInto(f, out)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// readFrame GETs path asking for a binary frame alone, whatever the
// client's Format, and returns the decoded frame and the number of body
// bytes read. A response in any other encoding is an error: the
// Replica's reads go through here, and a replica holds only the binary
// wire's float32 rows.
func (c *Client) readFrame(ctx context.Context, path string) (*wire.Frame, int64, error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, path, nil, wire.ContentType)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !isFrame(ct) {
		return nil, 0, fmt.Errorf("client: GET %s answered %q, want %s", path, ct, wire.ContentType)
	}
	cr := &countingReader{r: resp.Body}
	f, err := wire.ReadFrame(cr)
	if err != nil {
		return nil, cr.n, fmt.Errorf("client: GET %s: %w", path, err)
	}
	return f, cr.n, nil
}

// roundTrip sends one request, accepting the given media types (none
// when accept is empty), and returns the 200 response whose body the
// caller must close; any other status is an error.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, accept string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	// Mint the trace id the server records this request under, so its
	// trace in the server's flight recorder (/debug/traces) is directly
	// joinable with client-side logs.
	req.Header.Set(trace.Header, trace.NewID().String())
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if err := checkStatus(resp, method, path); err != nil {
		resp.Body.Close()
		return nil, err
	}
	return resp, nil
}

// edgeBytes is the rendered size of a typical edge — five-digit ids, a
// short weight — which sizes a body's buffer in one allocation; longer
// edges grow it.
const edgeBytes = len(`{"u":12345,"v":12345,"w":0.125},`)

// edgesBody renders the body of POST and DELETE /v1/edges, byte for
// byte what encoding/json makes of a server.MutationRequest, without
// the reflection: a bulk write is this one object shape a few thousand
// times. The weight always goes on the wire (the server treats only an
// *omitted* weight as 1 and rejects explicit zeros, so the client must
// not hide what the caller passed); a weight JSON cannot carry is an
// error here, as it is for json.Marshal.
func edgesBody(edges []graph.Edge) ([]byte, error) {
	b := make([]byte, 0, len(`{"edges":[]}`)+len(edges)*edgeBytes)
	b = append(b, `{"edges":[`...)
	for i, e := range edges {
		w := float64(e.W)
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("client: edge %d (%d->%d): weight %v has no JSON form", i, e.U, e.V, e.W)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"u":`...)
		b = strconv.AppendUint(b, uint64(e.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendUint(b, uint64(e.V), 10)
		b = append(b, `,"w":`...)
		switch abs := float32(math.Abs(w)); {
		case e.W >= 1 && e.W < 1<<24 && e.W == float32(uint32(e.W)):
			// A whole weight, the usual kind, has the digits of its integer.
			b = strconv.AppendUint(b, uint64(e.W), 10)
		case abs != 0 && (abs < 1e-6 || abs >= 1e21):
			// encoding/json's float form is plain decimal except at the
			// extremes (cut-offs compared as float32, as it does), and
			// then an exponent without a padding zero.
			b = strconv.AppendFloat(b, w, 'e', -1, 32)
			if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
				b[n-2] = b[n-1]
				b = b[:n-1]
			}
		default:
			b = strconv.AppendFloat(b, w, 'f', -1, 32)
		}
		b = append(b, '}')
	}
	return append(b, `]}`...), nil
}

// mutateEdges sends one /v1/edges request and returns the publish ack.
func (c *Client) mutateEdges(ctx context.Context, method string, edges []graph.Edge) (server.MutationResponse, error) {
	var out server.MutationResponse
	body, err := edgesBody(edges)
	if err != nil {
		return out, err
	}
	err = c.send(ctx, method, "/v1/edges", body, &out)
	return out, err
}

// InsertEdges inserts a batch of edges and returns the publish ack.
func (c *Client) InsertEdges(ctx context.Context, edges []graph.Edge) (server.MutationResponse, error) {
	return c.mutateEdges(ctx, http.MethodPost, edges)
}

// DeleteEdges deletes a batch of live edges (exact match) and returns
// the publish ack.
func (c *Client) DeleteEdges(ctx context.Context, edges []graph.Edge) (server.MutationResponse, error) {
	return c.mutateEdges(ctx, http.MethodDelete, edges)
}

// UpdateLabels applies a batch of label reassignments and returns the
// publish ack.
func (c *Client) UpdateLabels(ctx context.Context, ups []dyn.LabelUpdate) (server.MutationResponse, error) {
	wire := make([]server.LabelWire, len(ups))
	for i, u := range ups {
		wire[i] = server.LabelWire{V: u.V, Class: u.Class}
	}
	var out server.MutationResponse
	err := c.do(ctx, http.MethodPost, "/v1/labels", server.MutationRequest{Labels: wire}, &out)
	return out, err
}

// Embedding fetches vertex v's row of the current published snapshot.
func (c *Client) Embedding(ctx context.Context, v graph.NodeID) (server.EmbeddingResponse, error) {
	var out server.EmbeddingResponse
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/embedding/%d", v), nil, &out)
	return out, err
}

// Embeddings fetches the rows of several vertices in one request; all
// rows come from the same published snapshot (per-vertex Embedding
// calls can straddle a publish). Rows[i] belongs to vs[i].
func (c *Client) Embeddings(ctx context.Context, vs []graph.NodeID) (server.BatchEmbeddingResponse, error) {
	var out server.BatchEmbeddingResponse
	// graph.NodeID is an alias of uint32, so the slice is the wire type.
	err := c.do(ctx, http.MethodPost, "/v1/embeddings", server.BatchEmbeddingRequest{Vs: vs}, &out)
	return out, err
}

// Neighbors fetches the top-k vertices nearest to req.V in the
// published embedding, ascending by distance. Zero-value request
// fields select the server defaults ("l2", mode "exact"); set Mode to
// "approx" for the IVF index — the response's Mode and IndexEpoch
// report what actually answered, since an approx request is served by
// the exact scan while the index is cold and from a slightly stale
// epoch while it rebuilds. Either way the answer is the exact top-k of
// the epoch it reports.
func (c *Client) Neighbors(ctx context.Context, req server.NeighborsRequest) (server.NeighborsResponse, error) {
	var out server.NeighborsResponse
	err := c.do(ctx, http.MethodPost, "/v1/neighbors", req, &out)
	return out, err
}

// Snapshot fetches the whole current published snapshot of a one-shard
// server, which reads a bare request as shard 0; a server with more
// shards refuses it (use Partition and SnapshotShard).
func (c *Client) Snapshot(ctx context.Context) (server.SnapshotResponse, error) {
	var out server.SnapshotResponse
	err := c.do(ctx, http.MethodGet, "/v1/snapshot", nil, &out)
	return out, err
}

// Partition fetches the serving tier's shard layout: the sections
// /v1/snapshot?shard=i and /v1/delta?shard=i serve. One embedder is the
// one-shard partition.
func (c *Client) Partition(ctx context.Context) (shard.Meta, error) {
	var out shard.Meta
	err := c.do(ctx, http.MethodGet, "/v1/partition", nil, &out)
	return out, err
}

// SnapshotShard fetches shard s's section of the snapshot: the shard's
// owned row window only, with Lo carrying the window's global row
// offset (implicit on the binary wire — use Partition's bounds).
func (c *Client) SnapshotShard(ctx context.Context, s int) (server.SnapshotResponse, error) {
	var out server.SnapshotResponse
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/snapshot?shard=%d", s), nil, &out)
	return out, err
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (server.HealthResponse, error) {
	var out server.HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// Stats fetches /statsz.
func (c *Client) Stats(ctx context.Context) (server.StatsResponse, error) {
	var out server.StatsResponse
	err := c.do(ctx, http.MethodGet, "/statsz", nil, &out)
	return out, err
}
