package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/server/client"
	"repro/internal/shard"
	"repro/internal/wire"
)

// staticN and staticK shape the static primary: two shards of 20 rows,
// three columns.
const staticN, staticK = 40, 3

// staticPrimary serves a fixed two-shard embedding over the section
// protocol with no embedder behind it, so its instances, epochs and
// frames are the same bytes on every run: /v1/partition, each section
// as a snapshot frame, and to every delta request an empty delta frame
// at the section's epoch (nothing changed).
type staticPrimary struct {
	meta shard.Meta
	secs []*wire.Frame
}

func newStaticPrimary(t testing.TB) *staticPrimary {
	t.Helper()
	p := &staticPrimary{meta: shard.Meta{
		Shards: 2, N: staticN, K: staticK, Bounds: []uint32{0, staticN / 2, staticN},
		Instances: []uint64{11, 22}, Epochs: shard.EpochVector{0: 5, 1: 9},
	}}
	for i := range p.meta.Shards {
		lo, hi := p.meta.Bounds[i], p.meta.Bounds[i+1]
		f := &wire.Frame{Header: wire.Header{
			Kind: wire.KindSnapshot, K: staticK, Epoch: p.meta.Epochs[i],
			Instance: p.meta.Instances[i], Edges: 60, N: hi - lo,
		}}
		for v := lo; v < hi; v++ {
			f.Y = append(f.Y, int32(v%staticK))
			for j := range staticK {
				f.Rows = append(f.Rows, float32(v)+float32(j)/8)
			}
		}
		p.secs = append(p.secs, f)
	}
	return p
}

func (p *staticPrimary) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/partition" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p.meta)
		return
	}
	si, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil || si < 0 || si >= len(p.secs) {
		http.Error(w, "bad shard", http.StatusBadRequest)
		return
	}
	sec := p.secs[si]
	w.Header().Set("Content-Type", wire.ContentType)
	switch r.URL.Path {
	case "/v1/snapshot":
		sec.WriteTo(w)
	case "/v1/delta":
		dl := &wire.Frame{Header: wire.Header{
			Kind: wire.KindDelta, K: staticK, Epoch: sec.Epoch, Instance: sec.Instance,
			From: sec.Epoch, Edges: sec.Edges, N: staticN,
		}}
		dl.WriteTo(w)
	default:
		http.NotFound(w, r)
	}
}

// state returns the static embedding as n×k float64 rows and labels.
func (p *staticPrimary) state() ([]float64, []int32) {
	var z []float64
	var y []int32
	for _, f := range p.secs {
		for _, x := range f.Rows {
			z = append(z, float64(x))
		}
		y = append(y, f.Y...)
	}
	return z, y
}

// mustHold asserts s is the static embedding, every section at the
// primary's epoch and instance.
func (p *staticPrimary) mustHold(t *testing.T, s *client.ReplicaSnapshot) {
	t.Helper()
	z, y := p.state()
	for i := range p.secs {
		if s.Epochs[i] != p.meta.Epochs[i] || s.Instances[i] != p.meta.Instances[i] {
			t.Fatalf("shard %d at epoch %d/instance %d, want %d/%d",
				i, s.Epochs[i], s.Instances[i], p.meta.Epochs[i], p.meta.Instances[i])
		}
	}
	mustEqualRows(t, s, z, y)
}

// mustEqualRows asserts s holds exactly rows z and labels y, bit for bit.
func mustEqualRows(t *testing.T, s *client.ReplicaSnapshot, z []float64, y []int32) {
	t.Helper()
	n, k := s.Dims()
	if n != staticN || k != staticK {
		t.Fatalf("replica shape %dx%d, want %dx%d", n, k, staticN, staticK)
	}
	row := make([]float64, k)
	for v := range n {
		for j, x := range s.CopyRow(v, row) {
			if math.Float64bits(x) != math.Float64bits(z[v*k+j]) {
				t.Fatalf("Z[%d][%d] = %v, want %v", v, j, x, z[v*k+j])
			}
		}
		if s.Y[v] != y[v] {
			t.Fatalf("label of %d is %d, want %d", v, s.Y[v], y[v])
		}
	}
}

// FuzzReplicaDelta serves arbitrary bytes as shard 0's /v1/delta frame
// to a bootstrapped replica of the static primary (shard 1 answers an
// empty delta). A replica writes decoded frames straight into its
// pages, so a hostile frame must be harmless: Sync either fails and
// keeps the replica's version, or succeeds with exactly what the frame
// says — every applied row and label inside shard 0's window [0, 20)
// and k wide, every other row untouched, shard 1 unmoved — or, for a
// resync or a changed instance, a refetched section equal to the
// primary's.
//
//	go test -fuzz FuzzReplicaDelta -fuzztime 30s -run '^$' ./internal/server/client
func FuzzReplicaDelta(f *testing.F) {
	p := newStaticPrimary(f)
	var body atomic.Pointer[[]byte]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/delta" && r.URL.Query().Get("shard") == "0" {
			w.Header().Set("Content-Type", wire.ContentType)
			w.Write(*body.Load())
			return
		}
		p.ServeHTTP(w, r)
	}))
	f.Cleanup(ts.Close)
	c := client.New(ts.URL, ts.Client())

	seed := func(h wire.Header, ids []uint32, rows []float32, labels []wire.Label) {
		var b bytes.Buffer
		if _, err := (&wire.Frame{Header: h, RowIDs: ids, Rows: rows, Labels: labels}).WriteTo(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	valid := wire.Header{Kind: wire.KindDelta, Sparse: true, K: staticK, Epoch: 6, Instance: 11, From: 5, Edges: 61, N: staticN}
	seed(valid, []uint32{3, 17}, []float32{1, 0, -2, 0, 0.5, 0}, []wire.Label{{V: 4, Class: 2}})
	resync := wire.Header{Kind: wire.KindDelta, Resync: true, K: staticK, Epoch: 8, Instance: 11, From: 5, N: staticN}
	seed(resync, nil, nil, nil)
	seed(valid, []uint32{3, 25}, []float32{1, 0, -2, 0, 0.5, 0}, nil) // 25 is shard 1's
	wrongK := valid
	wrongK.K = staticK + 1
	seed(wrongK, []uint32{3}, []float32{1, 2, 3, 4}, nil)

	f.Fuzz(func(t *testing.T, data []byte) {
		body.Store(&data)
		ctx := context.Background()
		rep := client.NewReplica(c)
		if err := rep.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
		before := rep.Snapshot()
		_, err := rep.Sync(ctx)
		after := rep.Snapshot()
		if err != nil {
			if after != before {
				t.Fatalf("a failed sync (%v) replaced the replica's version", err)
			}
			return
		}
		fr, derr := wire.ReadFrame(bytes.NewReader(data))
		if derr != nil {
			t.Fatalf("the replica applied a frame the decoder refuses: %v", derr)
		}
		if after == before {
			return
		}
		if fr.Resync || fr.Instance != p.meta.Instances[0] {
			p.mustHold(t, after)
			return
		}
		z, y := p.state()
		lo, hi := p.meta.Bounds[0], p.meta.Bounds[1]
		if len(fr.RowIDs) > 0 && fr.K != staticK {
			t.Fatalf("applied rows of width %d, want %d", fr.K, staticK)
		}
		for i, v := range fr.RowIDs {
			if v < lo || v >= hi {
				t.Fatalf("applied row %d outside shard 0's window [%d,%d)", v, lo, hi)
			}
			for j := range staticK {
				z[int(v)*staticK+j] = float64(fr.Rows[i*staticK+j])
			}
		}
		for _, l := range fr.Labels {
			if l.V < lo || l.V >= hi {
				t.Fatalf("applied label of %d outside shard 0's window [%d,%d)", l.V, lo, hi)
			}
			y[l.V] = l.Class
		}
		if after.Epochs[0] != fr.Epoch || after.Epochs[1] != p.meta.Epochs[1] {
			t.Fatalf("epochs %v after a delta to epoch %d", after.Epochs, fr.Epoch)
		}
		mustEqualRows(t, after, z, y)
	})
}
