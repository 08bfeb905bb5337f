package dyn

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/gee"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/xrand"
)

// churnScript drives an embedder through a deterministic interleaving
// of insert, delete, and label-update batches and returns the resulting
// live edge list and final labels, so the outcome can be replayed as a
// from-scratch batch embedding.
func churnScript(t *testing.T, d *DynamicEmbedder, n, k, rounds, batch int, seed uint64) (*graph.EdgeList, []int32) {
	t.Helper()
	r := xrand.New(seed)
	live := make([]graph.Edge, 0, rounds*batch)
	y := append([]int32(nil), d.Snapshot().Y...)
	for round := 0; round < rounds; round++ {
		var b Batch
		for i := 0; i < batch; i++ {
			b.Insert = append(b.Insert, graph.Edge{
				U: graph.NodeID(r.Intn(n)),
				V: graph.NodeID(r.Intn(n)),
				W: float32(r.Intn(4) + 1),
			})
		}
		// Delete about a third of a batch's worth from the live set
		// (skipping the edges being inserted in this same batch).
		if len(live) > batch {
			for i := 0; i < batch/3; i++ {
				j := r.Intn(len(live))
				b.Delete = append(b.Delete, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		// Relabel a handful of vertices: random class, sometimes
		// unlabeling entirely.
		for i := 0; i < 5; i++ {
			v := graph.NodeID(r.Intn(n))
			class := int32(r.Intn(k + 1)) // k means Unknown
			if int(class) == k {
				class = labels.Unknown
			}
			b.Labels = append(b.Labels, LabelUpdate{V: v, Class: class})
			y[v] = class
		}
		if err := d.Apply(b); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		live = append(live, b.Insert...)
	}
	return &graph.EdgeList{N: n, Edges: live}, y
}

// TestDynamicMatchesBatchEmbed is the tentpole acceptance check: after
// any interleaving of insert, delete, and label-update batches, the
// dynamic embedding equals a from-scratch batch Embed on the resulting
// graph within 1e-9 — on both ingest paths, serial and owner-computes.
func TestDynamicMatchesBatchEmbed(t *testing.T) {
	const n, k = 800, 6
	cases := []struct {
		name string
		opts Options
	}{
		{"sharded-folds", Options{K: k, Workers: 8}},
		{"serial-folds", Options{K: k, Workers: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			y0 := labels.SampleSemiSupervised(n, k, 0.3, 71)
			d, err := New(n, y0, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			d.shardedMin = 1 // every batch owner-computes, given more than one worker
			el, yFinal := churnScript(t, d, n, k, 12, 1500, 73)
			want, err := gee.Embed(gee.Reference, el, yFinal, gee.Options{K: k})
			if err != nil {
				t.Fatal(err)
			}
			snap := d.Snapshot()
			if snap.Edges != int64(len(el.Edges)) {
				t.Fatalf("live edges %d, want %d", snap.Edges, len(el.Edges))
			}
			if !want.Z.EqualTol(snap.Z, 1e-9) {
				t.Fatalf("dynamic deviates from batch embed by %v", want.Z.MaxAbsDiff(snap.Z))
			}
			for v := 0; v < n; v++ {
				if snap.Y[v] != yFinal[v] {
					t.Fatalf("label of %d drifted: %d vs %d", v, snap.Y[v], yFinal[v])
				}
			}
		})
	}
}

// TestDynamicFoldRouting checks the ingest actually takes the intended
// exec path per batch size: serial below the cut-over or on one worker,
// owner-computes over one reused plan at and above it.
func TestDynamicFoldRouting(t *testing.T) {
	mk := func(m int) []graph.Edge {
		r := xrand.New(uint64(m))
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: graph.NodeID(r.Intn(2000)), V: graph.NodeID(r.Intn(2000)), W: 1}
		}
		return edges
	}
	d, err := New(2000, labels.Full(2000, 4, 79), Options{K: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{100, 2000, 4096, 8192, shardedFoldMin - 1, shardedFoldMin} {
		if err := d.Apply(Batch{Insert: mk(m)}); err != nil {
			t.Fatal(err)
		}
	}
	plan := d.plan
	if err := d.Apply(Batch{Insert: mk(2 * shardedFoldMin)}); err != nil { // sharded again, plan reused
		t.Fatal(err)
	}
	st := d.Stats()
	if st.SerialFolds != 5 || st.AtomicFolds != 0 || st.ShardedFolds != 2 {
		t.Fatalf("fold routing: serial=%d atomic=%d sharded=%d, want 5/0/2",
			st.SerialFolds, st.AtomicFolds, st.ShardedFolds)
	}
	if plan == nil || d.plan != plan {
		t.Fatal("sharded folds did not build the edge plan once and reuse it")
	}
	if st.Batches != 7 || st.Inserts != 100+2000+4096+8192+4*shardedFoldMin-1 {
		t.Fatalf("counters: %+v", st)
	}
	// One worker folds serially whatever the batch size.
	one, err := New(2000, labels.Full(2000, 4, 81), Options{K: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{8192, shardedFoldMin, 2 * shardedFoldMin} {
		if err := one.Apply(Batch{Insert: mk(m)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := one.Stats(); st.SerialFolds != 3 || st.ShardedFolds != 0 || one.plan != nil {
		t.Fatalf("one worker did not fold every batch serially: %+v", st)
	}
}

func TestDynamicDeleteRollback(t *testing.T) {
	y := labels.Full(10, 2, 83)
	d, err := New(10, y, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}, {U: 4, V: 4, W: 2}}
	if err := d.Apply(Batch{Insert: base}); err != nil {
		t.Fatal(err)
	}
	before := d.Snapshot()
	// Second delete is not live: the whole batch must fail untouched.
	err = d.Apply(Batch{Delete: []graph.Edge{{U: 0, V: 1, W: 1}, {U: 5, V: 6, W: 1}}})
	if err == nil {
		t.Fatal("missing delete accepted")
	}
	if got := d.Snapshot(); got.Epoch != before.Epoch || got.Edges != before.Edges {
		t.Fatalf("failed batch mutated state: %d/%d vs %d/%d",
			got.Epoch, got.Edges, before.Epoch, before.Edges)
	}
	// The rolled-back edge must still be deletable (adjacency intact),
	// including the self-loop's paired halves.
	if err := d.Apply(Batch{Delete: base}); err != nil {
		t.Fatalf("rollback corrupted adjacency: %v", err)
	}
	if got := d.Snapshot(); got.Edges != 0 {
		t.Fatalf("%d live edges after deleting everything", got.Edges)
	}
	// Weight must match exactly.
	if err := d.Apply(Batch{Insert: base[:1]}); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(Batch{Delete: []graph.Edge{{U: 0, V: 1, W: 2}}}); err == nil {
		t.Fatal("weight-mismatched delete accepted")
	}
}

// TestDynamicFoldErrorRollback is the regression test for the Apply
// rollback bug: when the fold fails *after* detachDeletes succeeded,
// the detached adjacency halves must be reattached — before the fix
// they silently vanished, corrupting the adjacency/U invariant (the
// deleted edges' mass stayed in U with no half-edges to account for
// it, and later exact-match deletes of those edges failed).
func TestDynamicFoldErrorRollback(t *testing.T) {
	y := labels.Full(10, 2, 131)
	d, err := New(10, y, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 2}}
	if err := d.Apply(Batch{Insert: base}); err != nil {
		t.Fatal(err)
	}
	before := d.Snapshot()
	boom := errors.New("injected fold failure")
	d.foldHook = func(del, ins []graph.Edge) error { return boom }
	err = d.Apply(Batch{Delete: base[:2], Insert: []graph.Edge{{U: 5, V: 6, W: 1}}})
	if !errors.Is(err, boom) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	d.foldHook = nil
	if got := d.Snapshot(); got.Epoch != before.Epoch || got.Edges != before.Edges {
		t.Fatalf("failed batch mutated state: %d/%d vs %d/%d",
			got.Epoch, got.Edges, before.Epoch, before.Edges)
	}
	// The failed batch's insert must not have been applied.
	if err := d.Apply(Batch{Delete: []graph.Edge{{U: 5, V: 6, W: 1}}}); err == nil {
		t.Fatal("insert from the failed batch is live")
	}
	// The failed batch's deletes must still be live — exact-match
	// deleting the full base set only works if the rollback reattached
	// both halves of each detached edge.
	if err := d.Apply(Batch{Delete: base}); err != nil {
		t.Fatalf("fold failure corrupted the adjacency: %v", err)
	}
	if got := d.Snapshot().Edges; got != 0 {
		t.Fatalf("%d live edges after deleting everything", got)
	}
}

func TestDynamicLabelLifecycle(t *testing.T) {
	// One triangle, labels moving around: classes that empty out must
	// publish as zero columns, and re-labeling must restore mass.
	n := 3
	y := []int32{0, 1, labels.Unknown}
	d, err := New(n, y, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1}}
	if err := d.Apply(Batch{Insert: edges}); err != nil {
		t.Fatal(err)
	}
	// Move vertex 0 into class 2, then unlabel vertex 1: class 0 and 1
	// are now empty.
	if err := d.Apply(Batch{Labels: []LabelUpdate{{V: 0, Class: 2}, {V: 1, Class: labels.Unknown}}}); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	for u := 0; u < n; u++ {
		if snap.Z.At(u, 0) != 0 || snap.Z.At(u, 1) != 0 {
			t.Fatalf("empty classes leak mass at row %d: %v", u, snap.Z.Row(u))
		}
	}
	want, err := gee.Embed(gee.Reference, &graph.EdgeList{N: n, Edges: edges},
		[]int32{2, labels.Unknown, labels.Unknown}, gee.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Z.EqualTol(snap.Z, 1e-9) {
		t.Fatalf("label lifecycle deviates by %v", want.Z.MaxAbsDiff(snap.Z))
	}
	// No-op relabel must not bump counters.
	st := d.Stats()
	if err := d.Apply(Batch{Labels: []LabelUpdate{{V: 0, Class: 2}}}); err != nil {
		t.Fatal(err)
	}
	if d.Stats().LabelMoves != st.LabelMoves {
		t.Fatal("no-op relabel counted as a move")
	}
}

func TestDynamicManualPublish(t *testing.T) {
	y := labels.Full(50, 2, 89)
	d, err := New(50, y, Options{K: 2, ManualPublish: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(Batch{Insert: []graph.Edge{{U: 0, V: 1, W: 1}}}); err != nil {
		t.Fatal(err)
	}
	if got := d.Snapshot(); got.Epoch != 0 || got.Edges != 0 {
		t.Fatalf("manual mode auto-published: %+v", got)
	}
	snap := d.Publish()
	if snap.Epoch != 1 || snap.Edges != 1 {
		t.Fatalf("publish: epoch=%d edges=%d", snap.Epoch, snap.Edges)
	}
	if d.Epoch() != 1 {
		t.Fatalf("Epoch() = %d", d.Epoch())
	}
}

// TestDynamicPendingOps pins the op count the coalescer's settle reads
// under ManualPublish: inserts, deletes and applied label moves count,
// no-op reassignments do not, and Publish resets it.
func TestDynamicPendingOps(t *testing.T) {
	y := labels.Full(100, 2, 91)
	d, err := New(100, y, Options{K: 2, ManualPublish: true})
	if err != nil {
		t.Fatal(err)
	}
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}, {U: 4, V: 5, W: 1}}
	if err := d.Apply(Batch{Insert: edges}); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(Batch{Delete: edges[:1]}); err != nil {
		t.Fatal(err)
	}
	if got := d.PendingOps(); got != 4 {
		t.Fatalf("PendingOps after 3 inserts + 1 delete = %d, want 4", got)
	}
	ups := []LabelUpdate{{V: 0, Class: y[0]}, {V: 1, Class: 1 - y[1]}}
	if err := d.Apply(Batch{Labels: ups}); err != nil {
		t.Fatal(err)
	}
	if got := d.PendingOps(); got != 5 {
		t.Fatalf("PendingOps after one real and one no-op move = %d, want 5", got)
	}
	if e := d.Epoch(); e != 0 {
		t.Fatalf("ManualPublish embedder published: epoch %d", e)
	}
	if s := d.Publish(); s.Epoch != 1 || s.Edges != 2 {
		t.Fatalf("publish: epoch %d, %d edges", s.Epoch, s.Edges)
	}
	if got := d.PendingOps(); got != 0 {
		t.Fatalf("PendingOps after Publish = %d", got)
	}
}

// TestDynamicConcurrentPublish runs Apply and Publish from separate
// goroutines while readers assert epoch monotonicity and that Query is
// consistent: when the published epoch did not change around a Query,
// the returned row must equal that snapshot's row exactly. Run under
// `go test -race` this is the satellite serving-consistency check.
func TestDynamicConcurrentPublish(t *testing.T) {
	const n, k = 200, 3
	d, err := New(n, labels.Full(n, k, 107), Options{K: k, ManualPublish: true})
	if err != nil {
		t.Fatal(err)
	}
	first := d.Snapshot()
	firstRow := append([]float64(nil), first.Z.Row(0)...)
	done := make(chan struct{})
	errs := make(chan string, 8)
	var wg sync.WaitGroup
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.New(uint64(300 + id))
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				s1 := d.Snapshot()
				if s1.Epoch < last {
					errs <- "epoch went backwards"
					return
				}
				last = s1.Epoch
				v := graph.NodeID(r.Intn(n))
				row := d.Query(v)
				s2 := d.Snapshot()
				if s2.Epoch < s1.Epoch {
					errs <- "epoch went backwards across a query"
					return
				}
				if s1.Epoch == s2.Epoch {
					want := s1.Z.Row(int(v))
					for c := range row {
						if row[c] != want[c] {
							errs <- "query row inconsistent with the stable snapshot"
							return
						}
					}
				}
			}
		}(reader)
	}
	wg.Add(1)
	go func() { // concurrent publisher
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			s := d.Publish()
			if s.Epoch <= last {
				errs <- "publish did not advance the epoch"
				return
			}
			last = s.Epoch
		}
	}()
	r := xrand.New(109)
	for round := 0; round < 200; round++ {
		b := Batch{Insert: make([]graph.Edge, 50)}
		for i := range b.Insert {
			b.Insert[i] = graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: 1}
		}
		if err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	// Copy-on-epoch: the snapshot held since before the churn is untouched.
	for c := range firstRow {
		if first.Z.Row(0)[c] != firstRow[c] {
			t.Fatal("held snapshot mutated by later publishes")
		}
	}
}

func TestDynamicValidation(t *testing.T) {
	y := labels.Full(10, 2, 97)
	if _, err := New(0, nil, Options{K: 2}); err == nil {
		t.Fatal("zero vertices accepted")
	}
	if _, err := New(10, y[:5], Options{K: 2}); err == nil {
		t.Fatal("label length mismatch accepted")
	}
	if _, err := New(10, make([]int32, 10), Options{}); err != nil {
		t.Fatal("K inference from labels failed")
	}
	unlabeled := make([]int32, 10)
	for i := range unlabeled {
		unlabeled[i] = labels.Unknown
	}
	if _, err := New(10, unlabeled, Options{}); err == nil {
		t.Fatal("no labels and K unset accepted")
	}
	d, err := New(10, y, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(Batch{Insert: []graph.Edge{{U: 99, V: 0, W: 1}}}); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	if err := d.Apply(Batch{Delete: []graph.Edge{{U: 99, V: 0, W: 1}}}); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	if err := d.Apply(Batch{Labels: []LabelUpdate{{V: 99, Class: 0}}}); err == nil {
		t.Fatal("out-of-range label vertex accepted")
	}
	if err := d.Apply(Batch{Labels: []LabelUpdate{{V: 0, Class: 7}}}); err == nil {
		t.Fatal("out-of-range class accepted")
	}
	if err := d.Apply(Batch{Labels: []LabelUpdate{{V: 0, Class: -3}}}); err == nil {
		t.Fatal("below-Unknown class accepted")
	}
	if row := d.Query(99); row != nil {
		t.Fatal("out-of-range query returned a row")
	}
}

// TestDynamicConcurrentReaders runs ingest while reader goroutines
// hammer Query and Snapshot. Under `go test -race` this is the
// concurrent-serving acceptance check; in any build it verifies
// snapshot immutability and epoch monotonicity.
func TestDynamicConcurrentReaders(t *testing.T) {
	const n, k = 500, 4
	y := labels.SampleSemiSupervised(n, k, 0.5, 101)
	d, err := New(n, y, Options{K: k, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	d.shardedMin = 2048 // keep the ~3000-edge batches on the sharded path
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.New(uint64(200 + id))
			var lastEpoch uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				s := d.Snapshot()
				if s.Epoch < lastEpoch {
					errs <- "epoch went backwards"
					return
				}
				lastEpoch = s.Epoch
				if len(s.Y) != n || s.Z.R != n || s.Z.C != k {
					errs <- "malformed snapshot"
					return
				}
				if row := d.Query(graph.NodeID(r.Intn(n))); len(row) != k {
					errs <- "short query row"
					return
				}
			}
		}(reader)
	}
	r := xrand.New(103)
	live := make([]graph.Edge, 0, 1<<14)
	for round := 0; round < 30; round++ {
		var b Batch
		for i := 0; i < 3000; i++ {
			b.Insert = append(b.Insert, graph.Edge{
				U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: 1,
			})
		}
		if len(live) > 1000 {
			for i := 0; i < 500; i++ {
				j := r.Intn(len(live))
				b.Delete = append(b.Delete, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		for i := 0; i < 10; i++ {
			b.Labels = append(b.Labels, LabelUpdate{
				V: graph.NodeID(r.Intn(n)), Class: int32(r.Intn(k)),
			})
		}
		if err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
		live = append(live, b.Insert...)
	}
	close(done)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if got := d.Snapshot().Edges; got != int64(len(live)) {
		t.Fatalf("live edges %d, want %d", got, len(live))
	}
}

// TestFailedBatchLeavesAdjacencyIntact is the regression test for the
// rollback order: a delete batch that fails — a duplicate delete, a
// missing edge, a self-loop deleted once too often, a failing fold —
// must leave every adjacency list element for element as it was, not
// merely the same multiset. A relabel walks the list in order, so a
// reordered list rounds its -=/+= differently, and U would then differ
// in the last bit from a twin embedder that never saw the failures.
func TestFailedBatchLeavesAdjacencyIntact(t *testing.T) {
	const n, k = 40, 3
	y := labels.Full(n, k, 241)
	d, err := New(n, y, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(n, y, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0 has twelve edges to each of rows 1..5, one of them twice,
	// and a self-loop; every row also gets background mass. Weights span
	// 40 binary orders, so float64 sums round and the order a row's
	// updates arrive in shows in its bits.
	r := xrand.New(251)
	weight := func() float32 { return float32(math.Ldexp(1+r.Float64(), r.Intn(40)-20)) }
	var base []graph.Edge
	for i := 0; i < 60; i++ {
		base = append(base, graph.Edge{U: 0, V: graph.NodeID(1 + i%5), W: weight()})
	}
	base = append(base, base[3], graph.Edge{U: 0, V: 0, W: 0.3}, graph.Edge{U: 5, V: 9, W: 1})
	others := make([]graph.Edge, 300)
	for i := range others {
		others[i] = graph.Edge{U: graph.NodeID(1 + r.Intn(n-1)), V: graph.NodeID(1 + r.Intn(n-1)), W: weight()}
	}
	for _, e := range []*DynamicEmbedder{d, twin} {
		if err := e.Apply(Batch{Insert: others}); err != nil {
			t.Fatal(err)
		}
		if err := e.Apply(Batch{Insert: base}); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]halfEdge, n)
	for v, list := range d.adj {
		want[v] = slices.Clone(list)
	}
	boom := errors.New("injected fold failure")
	// Batches longer than detachGroup fail in a later group than their
	// first detaches, and after other groups were touched.
	span := func(lo, hi int, tail ...graph.Edge) []graph.Edge {
		return append(slices.Clone(base[lo:hi]), tail...)
	}
	for _, tc := range []struct {
		name string
		del  []graph.Edge
		hook bool
		at   int // the batch index the error names; -1 when the fold fails
	}{
		{"duplicate delete", []graph.Edge{base[10], base[1], base[20], base[10]}, false, 3},
		{"missing edge", []graph.Edge{base[0], base[3], base[30], {U: 7, V: 8, W: 1}}, false, 3},
		{"self-loop", []graph.Edge{base[2], base[61], base[40], base[61]}, false, 3},
		{"fold failure", []graph.Edge{base[5], base[60], base[61], base[50], base[62]}, true, -1},
		{"missing edge in the third group", span(0, 33, graph.Edge{U: 7, V: 8, W: 1}, base[40]), false, 33},
		{"duplicate across a group boundary", span(0, 15, base[20], base[20], base[21]), false, 16},
		{"self-loop across a group boundary", span(30, 44, base[61], base[3], base[60], base[50], base[61]), false, 18},
		{"fold failure on 40 edges", span(10, 50), true, -1},
	} {
		if tc.hook {
			d.foldHook = func(del, ins []graph.Edge) error { return boom }
		}
		err := d.Apply(Batch{Delete: tc.del})
		if err == nil || tc.hook != errors.Is(err, boom) {
			t.Fatalf("%s: the batch returned %v", tc.name, err)
		}
		if prefix := fmt.Sprintf("dyn: delete %d:", tc.at); !tc.hook && !strings.HasPrefix(err.Error(), prefix) {
			t.Fatalf("%s: error %q does not name delete %d", tc.name, err, tc.at)
		}
		d.foldHook = nil
		for v := range want {
			if !slices.Equal(d.adj[v], want[v]) {
				t.Fatalf("%s: adj[%d] = %v, was %v", tc.name, v, d.adj[v], want[v])
			}
		}
	}
	// The same relabels on both embedders must now agree bit for bit.
	var moves []LabelUpdate
	for i := 1; i <= 12; i++ {
		moves = append(moves, LabelUpdate{V: 0, Class: (y[0] + int32(i)) % k})
	}
	for _, e := range []*DynamicEmbedder{d, twin} {
		if err := e.Apply(Batch{Labels: moves}); err != nil {
			t.Fatal(err)
		}
	}
	for i, x := range d.u.Data {
		if math.Float64bits(x) != math.Float64bits(twin.u.Data[i]) {
			t.Fatalf("U[%d] = %v after the failed batches, %v without them", i, x, twin.u.Data[i])
		}
	}
}

// TestGroupedDetachOrder checks that a delete batch spanning several
// detach groups leaves every adjacency list element for element as
// deleting its edges one batch at a time does: the touch pass reads
// lists, and the detach still swap-deletes in batch order.
func TestGroupedDetachOrder(t *testing.T) {
	const n, k = 30, 3
	y := labels.Full(n, k, 263)
	r := xrand.New(269)
	edges := make([]graph.Edge, 400)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: float32(1 + r.Intn(3))}
	}
	var del []graph.Edge
	for _, i := range graph.RandomPermutation(len(edges), 271)[:3*detachGroup+5] {
		del = append(del, edges[i])
	}
	var lists [2][][]halfEdge
	for side := range lists {
		d, err := New(n, y, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Apply(Batch{Insert: edges}); err != nil {
			t.Fatal(err)
		}
		if side == 0 {
			err = d.Apply(Batch{Delete: del})
		} else {
			for _, e := range del {
				if err = d.Apply(Batch{Delete: []graph.Edge{e}}); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		lists[side] = d.adj
	}
	for v := range lists[0] {
		if !slices.Equal(lists[0][v], lists[1][v]) {
			t.Fatalf("adj[%d] = %v after one batch, %v one edge at a time", v, lists[0][v], lists[1][v])
		}
	}
}
