package client

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/xrand"
)

// bodyWeights are the float32 weights whose text form is easy to get
// wrong: the format cut-offs on both sides, the first integer float32
// cannot hold, the extremes.
var bodyWeights = []float32{
	1, 0.5, 1e-7, 1e-6, 9.999999e-7, 1e21, 9.999999e20, 16777217, 0.1, 2.25,
	math.MaxFloat32, math.SmallestNonzeroFloat32, -1, 0,
}

// TestEdgesBodyIsEncodingJSON: the append-encoder's body is, byte for
// byte, what json.Marshal makes of the same request — so whatever a
// stock JSON peer did with the old client's bytes it does with these —
// and decoding it with plain encoding/json gives back the exact edges.
func TestEdgesBodyIsEncodingJSON(t *testing.T) {
	r := xrand.New(21)
	edges := make([]graph.Edge, 0, len(bodyWeights)+10000)
	for _, w := range bodyWeights {
		edges = append(edges, graph.Edge{U: r.Uint32(), V: r.Uint32(), W: w})
	}
	for len(edges) < cap(edges) {
		w := math.Float32frombits(r.Uint32())
		if f := float64(w); math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		edges = append(edges, graph.Edge{U: r.Uint32(), V: r.Uint32(), W: w})
	}
	edges = append(edges, graph.Edge{U: 0, V: math.MaxUint32, W: 1})

	got, err := edgesBody(edges)
	if err != nil {
		t.Fatal(err)
	}
	ref := server.MutationRequest{Edges: make([]server.EdgeWire, len(edges))}
	for i, e := range edges {
		w := e.W
		ref.Edges[i] = server.EdgeWire{U: e.U, V: e.V, W: &w}
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				lo, hi := max(i-40, 0), min(i+40, len(got), len(want))
				t.Fatalf("bodies differ at byte %d:\n got …%s…\nwant …%s…", i, got[lo:hi], want[lo:hi])
			}
		}
		t.Fatalf("body is a %d-byte prefix of json.Marshal's %d bytes", len(got), len(want))
	}
	var back server.MutationRequest
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Edges) != len(edges) {
		t.Fatalf("%d edges came back, sent %d", len(back.Edges), len(edges))
	}
	for i, e := range back.Edges {
		// Bit equality: -0 == 0, but it is not the weight that was sent.
		if e.U != edges[i].U || e.V != edges[i].V || math.Float32bits(*e.W) != math.Float32bits(edges[i].W) {
			t.Fatalf("edge %d came back %v, sent %v", i, graph.Edge{U: e.U, V: e.V, W: *e.W}, edges[i])
		}
	}

	if got, _ := edgesBody(nil); string(got) != `{"edges":[]}` {
		t.Fatalf("empty batch renders %q", got)
	}
}

// TestEdgesBodyRefusesNonFinite: a weight JSON cannot carry is an error
// at the call, before anything is sent — what json.Marshal did.
func TestEdgesBodyRefusesNonFinite(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { requests.Add(1) }))
	defer ts.Close()
	c := New(ts.URL, ts.Client())
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, w := range []float32{nan, inf, -inf} {
		batch := []graph.Edge{{U: 1, V: 2, W: 1}, {U: 3, V: 4, W: w}}
		if _, err := c.InsertEdges(context.Background(), batch); err == nil {
			t.Errorf("InsertEdges sent weight %v", w)
		}
		if _, err := c.DeleteEdges(context.Background(), batch); err == nil {
			t.Errorf("DeleteEdges sent weight %v", w)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("%d requests reached the server", n)
	}
}

var sinkBody []byte

// BenchmarkEdgesBody against BenchmarkMarshalEdges is the client half of
// the bulk-write wire: MB/s and allocations per 4096-edge body.
func BenchmarkEdgesBody(b *testing.B) {
	edges := benchEdges()
	body, _ := edgesBody(edges)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		sinkBody, _ = edgesBody(edges)
	}
}

func BenchmarkMarshalEdges(b *testing.B) {
	edges := benchEdges()
	body, _ := edgesBody(edges)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		req := server.MutationRequest{Edges: make([]server.EdgeWire, len(edges))}
		for i, e := range edges {
			w := e.W
			req.Edges[i] = server.EdgeWire{U: e.U, V: e.V, W: &w}
		}
		sinkBody, _ = json.Marshal(req)
	}
}

// benchEdges is the 4096-edge write the ingest workloads send: ids
// below 100k and a mix of unit and fractional weights.
func benchEdges() []graph.Edge {
	r := xrand.New(21)
	edges := make([]graph.Edge, 4096)
	for i := range edges {
		w := float32(1)
		if i%4 == 0 {
			w = float32(r.Intn(1000)+1) / 8
		}
		edges[i] = graph.Edge{U: uint32(r.Intn(100000)), V: uint32(r.Intn(100000)), W: w}
	}
	return edges
}
