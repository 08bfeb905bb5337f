package dyn

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// The heap a served embedder keeps, per vertex, after preloading the
// serving benchmark's base graph (n = 100k, K = 10, 700k block-structured
// edges, the lowest fifth of the vertices labelled round-robin) on two
// workers. The bounds are ratchets: each is the reading when it was set,
// rounded up to a whole byte. A change that lowers a reading tightens
// its bound in the same change; no change loosens one.
//
// What the live bound holds today, besides the adjacency lists and the
// published pages: ~24 MB of fold scratch the 700k-edge preload leaves
// behind (the edge plan's buckets and the negated-batch copy).
const (
	preloadLiveBytesPerVertex = 551
	preloadScanBytesPerVertex = 25
)

func TestPreloadedHeapPerVertex(t *testing.T) {
	const n, k, m = 100_000, 10, 700_000
	live0, scan0 := settledHeap()
	d := preloadBase(t, n, k, m)
	live1, scan1 := settledHeap()
	runtime.KeepAlive(d)
	live := float64(live1-live0) / n
	scan := float64(scan1-scan0) / n
	t.Logf("after the preload: %.2f B live and %.2f B scannable heap per vertex", live, scan)
	if live > preloadLiveBytesPerVertex {
		t.Errorf("live heap %.1f B per vertex, bound %d", live, preloadLiveBytesPerVertex)
	}
	if scan > preloadScanBytesPerVertex {
		t.Errorf("scannable heap %.1f B per vertex, bound %d", scan, preloadScanBytesPerVertex)
	}
}

// settledHeap returns the live and the scannable heap bytes after two
// collections, so the first has swept what the second then finds dead.
// The test subtracts the reading before the preload from the one after
// it, so the bounds count what the embedder keeps and not the test
// process's own state, which grows over repeated counts.
func settledHeap() (live, scan int64) {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64()), int64(s[1].Value.Uint64())
}

// preloadBase builds an embedder over n vertices and applies m
// block-structured edges (nine in ten join two vertices of one class
// residue mod k, weights 1–4) as one batch. The batch is dropped when
// it returns, so only what the embedder keeps stays reachable.
func preloadBase(t *testing.T, n, k, m int) *DynamicEmbedder {
	t.Helper()
	y := make([]int32, n)
	for v := range y {
		y[v] = -1
		if v < n/5 {
			y[v] = int32(v % k)
		}
	}
	d, err := New(n, y, Options{K: k, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(101)
	edges := make([]graph.Edge, m)
	for i := range edges {
		u := r.Intn(n)
		v := r.Intn(n)
		if r.Float64() < 0.9 {
			v = u%k + k*r.Intn((n-1-u%k)/k+1)
		}
		edges[i] = graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: float32(r.Intn(4) + 1)}
	}
	if err := d.Apply(Batch{Insert: edges}); err != nil {
		t.Fatal(err)
	}
	return d
}
