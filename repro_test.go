package repro

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
)

func TestFacadeEndToEnd(t *testing.T) {
	el := NewRMAT(4, 10, 10_000, 1)
	y := SampleLabels(el.N, 10, 0.2, 2)
	res, err := Embed(LigraParallel, el, y, Options{K: 10, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Z.R != el.N || res.Z.C != 10 {
		t.Fatalf("shape %dx%d", res.Z.R, res.Z.C)
	}
	ref, err := Embed(Reference, el, y, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Z.EqualTol(res.Z, 1e-9) {
		t.Fatal("facade parallel differs from reference")
	}
}

// TestFacadeServing drives the serving layer through the facade: a
// server over a dynamic embedder, a typed client writing through the
// coalescer and reading a row back at the acked epoch.
func TestFacadeServing(t *testing.T) {
	y := []int32{0, 1, 0, 1}
	d, err := NewDynamicEmbedder(4, y, DynamicOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewEmbeddingServer(d, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		ts.Close()
	}()
	c := NewEmbeddingClient(ts.URL, ts.Client())
	ack, err := c.InsertEdges(context.Background(), []Edge{{U: 0, V: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	emb, err := c.Embedding(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Epoch < ack.Epoch || emb.Row[1] <= 0 {
		t.Fatalf("insert not visible at acked epoch: ack %+v, emb %+v", ack, emb)
	}
}

// TestFacadeReplicaAndNeighbors drives the read-path scale-out facade:
// batched reads and neighbor queries against the serving API, and a
// replica that follows the primary through deltas.
func TestFacadeReplicaAndNeighbors(t *testing.T) {
	const n, k = 50, 2
	y := make([]int32, n)
	for i := range y {
		y[i] = int32(i % k)
	}
	d, err := NewDynamicEmbedder(n, y, DynamicOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewEmbeddingServer(d, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		ts.Close()
	}()
	c := NewEmbeddingClient(ts.URL, ts.Client())
	ctx := context.Background()
	rep := NewEmbeddingReplica(c)
	if err := rep.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertEdges(ctx, []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}}); err != nil {
		t.Fatal(err)
	}
	if resynced, err := rep.Sync(ctx); err != nil || resynced {
		t.Fatalf("delta sync: resynced=%v err=%v", resynced, err)
	}
	snap := d.Snapshot()
	local := rep.Snapshot()
	if local.Epoch != snap.Epoch {
		t.Fatalf("replica at epoch %d, primary at %d", local.Epoch, snap.Epoch)
	}
	row := make([]float64, snap.Z.C)
	// A replica holds the binary wire's float32 rows.
	for v := range snap.Z.R {
		for j, x := range local.CopyRow(v, row) {
			if w := float64(float32(snap.Z.At(v, j))); x != w {
				t.Fatalf("replica not identical to primary at epoch %d: Z[%d][%d] = %v, want %v", snap.Epoch, v, j, x, w)
			}
		}
	}
	batch, err := c.Embeddings(ctx, []uint32{0, 1, 2})
	if err != nil || len(batch.Rows) != 3 {
		t.Fatalf("batched read: %+v %v", batch, err)
	}
	res, err := c.Neighbors(ctx, NeighborsRequest{V: 0, K: 3, Metric: "l2"})
	if err != nil || len(res.Neighbors) != 3 {
		t.Fatalf("neighbor query: %+v %v", res, err)
	}
	want := cluster.TopK(2, snap.Z, snap.Z.Row(0), 3, cluster.L2, 0)
	for i := range want {
		if int(res.Neighbors[i].V) != want[i].V || res.Neighbors[i].Dist != want[i].Dist {
			t.Fatalf("served neighbors %+v differ from local TopK %+v", res.Neighbors, want)
		}
	}
}

func TestFacadeGraphPath(t *testing.T) {
	el := NewErdosRenyi(4, 500, 8000, 3)
	g := BuildGraph(4, el)
	y := SampleLabels(el.N, 5, 0.5, 4)
	a, err := EmbedGraph(LigraSerial, g, y, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := EmbedGraphTimed(LigraParallel, g, y, Options{K: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Z.EqualTol(b.Z, 1e-9) {
		t.Fatal("serial and timed parallel differ")
	}
}

func TestFacadeVerify(t *testing.T) {
	el := NewErdosRenyi(4, 200, 2000, 5)
	y := SampleLabels(el.N, 4, 0.5, 6)
	reports, err := Verify(el, y, Options{K: 4, Workers: 4}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(Impls)-1 {
		t.Fatalf("%d reports", len(reports))
	}
}

func TestFacadeSBMPipeline(t *testing.T) {
	el, truth := NewSBM(8, 900, 3, 0.08, 0.002, 7)
	res, err := Refine(el, RefineOptions{
		Embedding: Options{K: 3, Workers: 8},
		Impl:      LigraParallel,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ari := ARI(res.Labels, truth); ari < 0.7 {
		t.Fatalf("refine ARI=%v", ari)
	}
	if nmi := NMI(res.Labels, truth); nmi < 0.5 {
		t.Fatalf("refine NMI=%v", nmi)
	}
}

func TestFacadePropagationLabels(t *testing.T) {
	el, truth := NewSBM(4, 800, 2, 0.1, 0.002, 13)
	g := BuildGraph(4, Symmetrize(el))
	y := PropagationLabels(4, g, 50, 14)
	if ari := ARI(y, truth); ari < 0.5 {
		t.Fatalf("propagation ARI=%v", ari)
	}
}

func TestFacadeKMeansLabels(t *testing.T) {
	el, truth := NewSBM(4, 600, 2, 0.1, 0.002, 15)
	y := make([]int32, el.N)
	for i := range y {
		y[i] = Unknown
	}
	seeded := SampleLabels(el.N, 2, 0.1, 16)
	for i := range y {
		if seeded[i] >= 0 {
			y[i] = truth[i]
		}
	}
	res, err := Embed(Optimized, el, y, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	z := res.Z.Clone()
	z.RowL2Normalize() // the GEE paper's preprocessing before clustering
	assign := cluster.KMeans(4, z, 2, 17, 100).Assign
	if ari := ARI(assign, truth); ari < 0.8 {
		t.Fatalf("kmeans ARI=%v", ari)
	}
}

func TestFacadeFileRoundTrips(t *testing.T) {
	dir := t.TempDir()
	el := NewErdosRenyi(2, 50, 300, 19)
	elPath := filepath.Join(dir, "g.txt")
	if err := SaveEdgeList(elPath, el); err != nil {
		t.Fatal(err)
	}
	el2, err := LoadEdgeList(elPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(el2.Edges) != len(el.Edges) {
		t.Fatal("edge list round trip")
	}
	g := BuildGraph(2, el)
	adjPath := filepath.Join(dir, "g.adj")
	if err := SaveAdjacency(adjPath, g); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAdjacency(adjPath); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "g.bin")
	if err := SaveBinary(binPath, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinary(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("binary round trip")
	}
}

func TestEmbeddingTSVRoundTrip(t *testing.T) {
	el := NewErdosRenyi(2, 40, 200, 21)
	y := SampleLabels(el.N, 3, 0.5, 22)
	res, err := Embed(Optimized, el, y, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEmbedding(&buf, res.Z); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEmbedding(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.MaxAbsDiff(res.Z) != 0 {
		t.Fatal("TSV round trip lost precision")
	}
}

func TestReadEmbeddingErrors(t *testing.T) {
	if _, err := ReadEmbedding(bytes.NewReader([]byte("1\t2\n3\n"))); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := ReadEmbedding(bytes.NewReader([]byte("1\tx\n"))); err == nil {
		t.Fatal("non-numeric accepted")
	}
	z, err := ReadEmbedding(bytes.NewReader(nil))
	if err != nil || z.R != 0 {
		t.Fatalf("empty embedding: %v %v", z, err)
	}
}
