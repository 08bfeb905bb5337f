package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/wire"
)

// wireTestServer spins up a server with some published structure and
// returns its base URL plus a JSON client for acks/stats.
func wireTestServer(t *testing.T) (*client.Client, string) {
	t.Helper()
	const n, k = 300, 5
	_, c, base := startServer(t, n, fullLabels(n, k), dyn.Options{K: k}, server.Options{})
	edges := make([]graph.Edge, 0, 4*n)
	for i := 0; i < 4*n; i++ {
		edges = append(edges, graph.Edge{
			U: graph.NodeID((7 * i) % n), V: graph.NodeID((11*i + 3) % n), W: float32(i%3 + 1),
		})
	}
	if _, err := c.InsertEdges(context.Background(), edges); err != nil {
		t.Fatal(err)
	}
	return c, base
}

// get fetches path with an explicit Accept header and returns the
// response Content-Type and body.
func get(t *testing.T, base, path, accept string) (string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s (Accept %q): status %d", path, accept, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.Header.Get("Content-Type"), buf.Bytes()
}

// TestContentNegotiation pins the negotiation contract: binary only
// when the client explicitly lists the frame type with nonzero q;
// everything else — absent, wildcard, malformed, q=0 — stays JSON, so
// a pre-binary client can never receive bytes it cannot parse.
func TestContentNegotiation(t *testing.T) {
	_, base := wireTestServer(t)
	cases := []struct {
		accept string
		binary bool
	}{
		{"", false},
		{"*/*", false},
		{"application/*", false},
		{"application/json", false},
		{"application/json, */*;q=0.1", false},
		{"total garbage ;; ,,", false},
		{wire.ContentType, true},
		{strings.ToUpper(wire.ContentType), true},
		{"application/json, " + wire.ContentType, true},
		{wire.ContentType + ";q=0.5", true},
		{wire.ContentType + ";q=0", false},
		{wire.ContentType + "; q=0.000", false},
		{wire.ContentType + "-not-really", false},
	}
	for _, tc := range cases {
		ct, body := get(t, base, "/v1/snapshot", tc.accept)
		gotBinary := strings.HasPrefix(ct, wire.ContentType)
		if gotBinary != tc.binary {
			t.Errorf("Accept %q: got Content-Type %q, want binary=%v", tc.accept, ct, tc.binary)
			continue
		}
		if gotBinary {
			if _, err := wire.DecodeFrame(body); err != nil {
				t.Errorf("Accept %q: binary body does not decode: %v", tc.accept, err)
			}
		} else if !json.Valid(body) {
			t.Errorf("Accept %q: JSON body invalid", tc.accept)
		}
	}
}

// TestSnapshotCrossFormatEquivalence fetches the same published
// snapshot over both wire formats and checks they describe the same
// matrix: identical header fields and labels, and every binary float32
// bitwise equal to the quantized JSON float64 — the only difference
// between the formats is the documented float32 narrowing.
func TestSnapshotCrossFormatEquivalence(t *testing.T) {
	_, base := wireTestServer(t)
	_, jsonBody := get(t, base, "/v1/snapshot", "")
	var js server.SnapshotResponse
	if err := json.Unmarshal(jsonBody, &js); err != nil {
		t.Fatal(err)
	}
	ct, binBody := get(t, base, "/v1/snapshot", wire.ContentType)
	if !strings.HasPrefix(ct, wire.ContentType) {
		t.Fatalf("binary fetch answered %q", ct)
	}
	f, err := wire.DecodeFrame(binBody)
	if err != nil {
		t.Fatal(err)
	}
	if f.Epoch != js.Epoch || f.Instance != js.Instance || int(f.N) != js.N ||
		int(f.K) != js.K || f.Edges != js.Edges {
		t.Fatalf("headers disagree: frame %+v vs JSON epoch=%d n=%d k=%d edges=%d",
			f.Header, js.Epoch, js.N, js.K, js.Edges)
	}
	// Strictly smaller is all this synthetic matrix can promise — its
	// values happen to format as short decimals. The ≥5× ratio the
	// sparse delta path reaches on the real workload is measured by
	// the geeload runs in EXPERIMENTS.md.
	if len(binBody) >= len(jsonBody) {
		t.Errorf("binary snapshot is %d bytes vs %d JSON — expected smaller", len(binBody), len(jsonBody))
	}
	for v := range js.Y {
		if f.Y[v] != js.Y[v] {
			t.Fatalf("Y[%d]: binary %d, JSON %d", v, f.Y[v], js.Y[v])
		}
	}
	for v := 0; v < js.N; v++ {
		for j := 0; j < js.K; j++ {
			bin := f.Rows[v*js.K+j]
			if math.Float32bits(bin) != math.Float32bits(float32(js.Z[v][j])) {
				t.Fatalf("Z[%d][%d]: binary %v, JSON %v (quantized %v)", v, j, bin, js.Z[v][j], float32(js.Z[v][j]))
			}
		}
	}
}

// TestBinaryClientSeesJSONValuesQuantized drives the typed client in
// both formats over the batched-embedding endpoint: the binary decode
// must surface exactly float64(float32(jsonValue)).
func TestBinaryClientSeesJSONValuesQuantized(t *testing.T) {
	_, base := wireTestServer(t)
	ctx := context.Background()
	cj := client.New(base, nil)
	cb := client.New(base, nil, client.WithWire(client.Binary))

	vs := []graph.NodeID{0, 7, 7, 299, 150}
	ej, err := cj.Embeddings(ctx, vs)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := cb.Embeddings(ctx, vs)
	if err != nil {
		t.Fatal(err)
	}
	if ej.Epoch != eb.Epoch || len(ej.Rows) != len(eb.Rows) {
		t.Fatalf("batch read disagrees: %d rows at epoch %d vs %d rows at epoch %d",
			len(ej.Rows), ej.Epoch, len(eb.Rows), eb.Epoch)
	}
	if len(eb.Epochs) != 1 || !maps.Equal(ej.Epochs, eb.Epochs) {
		t.Fatalf("batch read epoch vectors: JSON %v, binary %v — want the same one-shard vector", ej.Epochs, eb.Epochs)
	}
	for i := range ej.Rows {
		for j := range ej.Rows[i] {
			if float64(float32(ej.Rows[i][j])) != eb.Rows[i][j] {
				t.Fatalf("row %d col %d: JSON %v, binary %v", i, j, ej.Rows[i][j], eb.Rows[i][j])
			}
		}
	}

}

// TestStatszWireCounters checks /statsz splits response counts and
// bytes by endpoint and format, and that the binary bytes actually
// undercut the JSON bytes for the same snapshot.
func TestStatszWireCounters(t *testing.T) {
	c, base := wireTestServer(t)
	ctx := context.Background()
	st0, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, jsonBody := get(t, base, "/v1/snapshot", "")
	_, binBody := get(t, base, "/v1/snapshot", wire.ContentType)
	cb := client.New(base, nil, client.WithWire(client.Binary))
	if _, err := cb.Embeddings(ctx, []graph.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	get(t, base, "/v1/delta?from=0", wire.ContentType)
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Wire.Snapshot
	d0 := st0.Wire.Snapshot
	if snap.JSONResponses-d0.JSONResponses != 1 || snap.BinaryResponses-d0.BinaryResponses != 1 {
		t.Fatalf("snapshot counters moved by json=%d binary=%d, want 1 and 1",
			snap.JSONResponses-d0.JSONResponses, snap.BinaryResponses-d0.BinaryResponses)
	}
	if snap.JSONBytes-d0.JSONBytes != int64(len(jsonBody)) {
		t.Errorf("snapshot json_bytes moved by %d, body was %d", snap.JSONBytes-d0.JSONBytes, len(jsonBody))
	}
	if snap.BinaryBytes-d0.BinaryBytes != int64(len(binBody)) {
		t.Errorf("snapshot binary_bytes moved by %d, body was %d", snap.BinaryBytes-d0.BinaryBytes, len(binBody))
	}
	if len(binBody) >= len(jsonBody) {
		t.Errorf("binary snapshot %d bytes vs JSON %d — expected smaller", len(binBody), len(jsonBody))
	}
	if st.Wire.Embeddings.BinaryResponses-st0.Wire.Embeddings.BinaryResponses != 1 {
		t.Errorf("embeddings binary_responses did not move")
	}
	if st.Wire.Delta.BinaryResponses-st0.Wire.Delta.BinaryResponses != 1 {
		t.Errorf("delta binary_responses did not move")
	}
}

// TestStatszAgreesWithMetrics: /statsz's wire split and /metrics'
// response-bytes histograms are one set of cells, so after mixed JSON
// and binary traffic on every row-carrying route, one error reply each
// included, every /statsz count and byte total equals the matching
// gee_http_response_bytes_{count,sum}{route,wire} sample.
func TestStatszAgreesWithMetrics(t *testing.T) {
	c, base := wireTestServer(t)
	ctx := context.Background()
	send := func(method, path, accept, body string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s (Accept %q): status %d, want %d", method, path, accept, resp.StatusCode, want)
		}
	}
	for _, accept := range []string{"", wire.ContentType} {
		send("GET", "/v1/snapshot", accept, "", http.StatusOK)
		send("POST", "/v1/embeddings", accept, `{"vs":[1,2,3]}`, http.StatusOK)
	}
	// A delta is only ever a frame: a JSON request is refused.
	send("GET", "/v1/delta?from=0", "", "", http.StatusNotAcceptable)
	send("GET", "/v1/delta?from=0", wire.ContentType, "", http.StatusOK)
	send("GET", "/v1/snapshot?shard=7", wire.ContentType, "", http.StatusBadRequest)
	send("GET", "/v1/delta?from=x", wire.ContentType, "", http.StatusBadRequest)
	send("POST", "/v1/embeddings", wire.ContentType, `{"vs":[1,300]}`, http.StatusNotFound)

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scraped := func(name, route, format string) int64 {
		for _, sm := range samples {
			if sm.Name == name && sm.Label("route") == route && sm.Label("wire") == format {
				return int64(sm.Value)
			}
		}
		t.Fatalf("/metrics has no %s{route=%q,wire=%q}", name, route, format)
		return 0
	}
	for _, rt := range []struct {
		route string
		got   server.EndpointWireStats
	}{
		{"GET /v1/snapshot", st.Wire.Snapshot},
		{"GET /v1/delta", st.Wire.Delta},
		{"POST /v1/embeddings", st.Wire.Embeddings},
	} {
		want := server.EndpointWireStats{
			JSONResponses:   scraped("gee_http_response_bytes_count", rt.route, "json"),
			JSONBytes:       scraped("gee_http_response_bytes_sum", rt.route, "json"),
			BinaryResponses: scraped("gee_http_response_bytes_count", rt.route, "binary"),
			BinaryBytes:     scraped("gee_http_response_bytes_sum", rt.route, "binary"),
		}
		if rt.got != want {
			t.Errorf("%s: /statsz wire %+v, /metrics %+v", rt.route, rt.got, want)
		}
		if want.JSONResponses != 2 || want.BinaryResponses != 1 {
			t.Errorf("%s: %d JSON and %d binary responses, want 2 (one of them the error) and 1",
				rt.route, want.JSONResponses, want.BinaryResponses)
		}
	}
}
