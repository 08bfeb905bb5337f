package dyn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/mat"
	"repro/internal/xrand"
)

// follower is a test-side replica state: a copy of one snapshot that
// advances by applying Deltas, exactly like internal/server/client's
// Replica does over HTTP.
type follower struct {
	epoch uint64
	z     *mat.Dense
	y     []int32
	edges int64
}

func newFollower(s *Snapshot) *follower {
	return &follower{epoch: s.Epoch, z: s.Z.Clone(), y: append([]int32(nil), s.Y...), edges: s.Edges}
}

// advance pulls one Delta and applies it (or resyncs from the current
// snapshot). Returns whether a resync was needed.
func (f *follower) advance(d *DynamicEmbedder) bool {
	dl := d.Delta(f.epoch)
	if dl.Resync {
		s := d.Snapshot()
		f.epoch, f.z, f.y, f.edges = s.Epoch, s.Z.Clone(), append([]int32(nil), s.Y...), s.Edges
		return true
	}
	k := f.z.C
	for i, v := range dl.Rows {
		copy(f.z.Row(int(v)), dl.Values[i*k:(i+1)*k])
	}
	for _, lu := range dl.Labels {
		f.y[lu.V] = lu.Class
	}
	f.epoch, f.edges = dl.Epoch, dl.Edges
	return false
}

// mustEqual asserts the follower state is bit-identical to the snapshot.
func (f *follower) mustEqual(t *testing.T, s *Snapshot) {
	t.Helper()
	if f.epoch != s.Epoch || f.edges != s.Edges {
		t.Fatalf("follower at epoch %d/%d edges, snapshot at %d/%d", f.epoch, f.edges, s.Epoch, s.Edges)
	}
	for i, v := range s.Z.Data {
		if f.z.Data[i] != v {
			t.Fatalf("follower Z[%d] = %v, snapshot %v (not bit-identical)", i, f.z.Data[i], v)
		}
	}
	for v := range s.Y {
		if f.y[v] != s.Y[v] {
			t.Fatalf("follower label of %d is %d, snapshot %d", v, f.y[v], s.Y[v])
		}
	}
}

// TestDeltaRowTracking checks the heart of the delta path: an edge
// batch dirties exactly its endpoint rows, the Delta lists them in
// ascending order with the published values, and applying it to a copy
// of the previous epoch reproduces the new epoch bit-for-bit.
func TestDeltaRowTracking(t *testing.T) {
	const n, k = 100, 4
	d, err := New(n, labels.Full(n, k, 211), Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	f := newFollower(d.Snapshot())
	if err := d.AddEdges([]graph.Edge{{U: 7, V: 3, W: 1}, {U: 7, V: 20, W: 2}}); err != nil {
		t.Fatal(err)
	}
	dl := d.Delta(f.epoch)
	if dl.Resync {
		t.Fatal("pure edge batch forced a resync")
	}
	if want := []graph.NodeID{3, 7, 20}; len(dl.Rows) != len(want) {
		t.Fatalf("delta rows %v, want %v", dl.Rows, want)
	} else {
		for i := range want {
			if dl.Rows[i] != want[i] {
				t.Fatalf("delta rows %v, want %v (ascending)", dl.Rows, want)
			}
		}
	}
	if len(dl.Values) != len(dl.Rows)*k {
		t.Fatalf("values len %d for %d rows of width %d", len(dl.Values), len(dl.Rows), k)
	}
	if len(dl.Labels) != 0 {
		t.Fatalf("edge batch reported label changes: %v", dl.Labels)
	}
	if f.advance(d) {
		t.Fatal("advance resynced")
	}
	f.mustEqual(t, d.Snapshot())

	// A second batch: the delta spans only the new epoch now.
	if err := d.AddEdges([]graph.Edge{{U: 50, V: 51, W: 1}}); err != nil {
		t.Fatal(err)
	}
	dl = d.Delta(f.epoch)
	if dl.Resync || len(dl.Rows) != 2 {
		t.Fatalf("second delta: resync=%v rows=%v", dl.Resync, dl.Rows)
	}
	// And a multi-epoch delta from the very start unions both batches.
	dl = d.Delta(0)
	if dl.Resync || len(dl.Rows) != 5 {
		t.Fatalf("merged delta from 0: resync=%v rows=%v", dl.Resync, dl.Rows)
	}
	// Same-epoch delta is empty, not a resync.
	cur := d.Epoch()
	dl = d.Delta(cur)
	if dl.Resync || len(dl.Rows) != 0 || dl.Epoch != cur {
		t.Fatalf("no-op delta: %+v", dl)
	}
}

// TestDeltaResyncSignals covers every path that must refuse a row-wise
// answer: a follower ahead of the embedder, an evicted fromEpoch, a
// disabled ring, a counts-changing relabel (full promotion), and a
// dirty set past half the rows.
func TestDeltaResyncSignals(t *testing.T) {
	const n, k = 40, 3
	mk := func(opts Options) *DynamicEmbedder {
		t.Helper()
		opts.K = k
		d, err := New(n, labels.Full(n, k, 223), opts)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	edge := func(u, v uint32) []graph.Edge { return []graph.Edge{{U: u, V: v, W: 1}} }

	d := mk(Options{})
	if dl := d.Delta(5); !dl.Resync {
		t.Fatal("follower ahead of the embedder not told to resync")
	}

	// Eviction: a 2-deep ring forgets epoch 1 after the third publish.
	d = mk(Options{DeltaHistory: 2})
	for i := uint32(0); i < 3; i++ {
		if err := d.AddEdges(edge(i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if dl := d.Delta(0); !dl.Resync {
		t.Fatal("evicted fromEpoch not told to resync")
	}
	if dl := d.Delta(1); dl.Resync {
		t.Fatal("retained span told to resync")
	}

	// Disabled ring: every delta resyncs.
	d = mk(Options{DeltaHistory: -1})
	if err := d.AddEdges(edge(0, 1)); err != nil {
		t.Fatal(err)
	}
	if dl := d.Delta(0); !dl.Resync {
		t.Fatal("disabled ring served a delta")
	}

	// A relabel that changes class counts rescales whole columns: the
	// epoch is full and the span resyncs — including when merged with
	// neighboring row-sized epochs.
	d = mk(Options{})
	if err := d.AddEdges(edge(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateLabels([]LabelUpdate{{V: 0, Class: (labels.Full(n, k, 223)[0] + 1) % k}}); err != nil {
		t.Fatal(err)
	}
	if dl := d.Delta(1); !dl.Resync {
		t.Fatal("counts-changing relabel served row-wise")
	}
	if dl := d.Delta(0); !dl.Resync {
		t.Fatal("span covering a full epoch served row-wise")
	}
	// But the epoch after it is row-sized again.
	if err := d.AddEdges(edge(2, 3)); err != nil {
		t.Fatal(err)
	}
	if dl := d.Delta(2); dl.Resync || len(dl.Rows) != 2 {
		t.Fatalf("post-full epoch: resync=%v rows=%v", dl.Resync, dl.Rows)
	}

	// Dirtying more than half the rows promotes to full even without
	// any label motion.
	d = mk(Options{})
	var wide []graph.Edge
	for u := uint32(0); u+1 < n; u += 2 {
		wide = append(wide, graph.Edge{U: u, V: u + 1, W: 1})
	}
	if err := d.AddEdges(wide); err != nil {
		t.Fatal(err)
	}
	if dl := d.Delta(0); !dl.Resync {
		t.Fatal("near-total dirty set served row-wise")
	}
}

// TestDeltaNetZeroRelabel is the subtle case the counts comparison (as
// opposed to a "any relabel happened" flag) buys: two label moves that
// cancel within one publish window leave the 1/n_k coefficients
// untouched, so the epoch stays row-sized — the delta carries the
// moved vertices' neighbors' rows plus both label reassignments, and a
// follower applying it matches the snapshot bit-for-bit.
func TestDeltaNetZeroRelabel(t *testing.T) {
	const n, k = 30, 2
	y := make([]int32, n)
	for v := range y {
		y[v] = int32(v % k)
	}
	d, err := New(n, y, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	// Give the moving vertices neighbors so mass actually slides.
	if err := d.AddEdges([]graph.Edge{{U: 0, V: 5, W: 1}, {U: 1, V: 6, W: 1}, {U: 10, V: 11, W: 1}}); err != nil {
		t.Fatal(err)
	}
	f := newFollower(d.Snapshot())
	// 0: class 0 → 1 and 1: class 1 → 0 in one batch — counts end where
	// they started.
	if err := d.UpdateLabels([]LabelUpdate{{V: 0, Class: 1}, {V: 1, Class: 0}}); err != nil {
		t.Fatal(err)
	}
	dl := d.Delta(f.epoch)
	if dl.Resync {
		t.Fatal("net-zero relabel pair promoted to full")
	}
	if len(dl.Labels) != 2 {
		t.Fatalf("label changes %v, want vertices 0 and 1", dl.Labels)
	}
	if dl.Labels[0] != (LabelUpdate{V: 0, Class: 1}) || dl.Labels[1] != (LabelUpdate{V: 1, Class: 0}) {
		t.Fatalf("label changes %v", dl.Labels)
	}
	// The moved vertices' neighbors (5 and 6) are the dirty rows; the
	// movers' own rows did not change.
	if len(dl.Rows) != 2 || dl.Rows[0] != 5 || dl.Rows[1] != 6 {
		t.Fatalf("dirty rows %v, want [5 6]", dl.Rows)
	}
	if f.advance(d) {
		t.Fatal("advance resynced")
	}
	f.mustEqual(t, d.Snapshot())
}

// TestDeltaFollowerUnderChurn runs a mixed insert/delete/relabel
// workload with a follower advancing purely through Delta (resyncing
// when told to) and checks bit-exact agreement with every published
// snapshot. Relabel rounds must force at least one resync; edge-only
// rounds must be served row-wise.
func TestDeltaFollowerUnderChurn(t *testing.T) {
	const n, k, rounds = 400, 4, 60
	d, err := New(n, labels.SampleSemiSupervised(n, k, 0.5, 227), Options{K: k, DeltaHistory: 8})
	if err != nil {
		t.Fatal(err)
	}
	f := newFollower(d.Snapshot())
	r := xrand.New(229)
	var live []graph.Edge
	resyncs, rowSyncs := 0, 0
	for round := 0; round < rounds; round++ {
		var b Batch
		for i := 0; i < 40; i++ {
			b.Insert = append(b.Insert, graph.Edge{
				U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: float32(r.Intn(3) + 1),
			})
		}
		if len(live) > 200 {
			for i := 0; i < 20; i++ {
				j := r.Intn(len(live))
				b.Delete = append(b.Delete, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		if round%10 == 9 {
			b.Labels = append(b.Labels, LabelUpdate{V: graph.NodeID(r.Intn(n)), Class: int32(r.Intn(k))})
		}
		if err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
		live = append(live, b.Insert...)
		// Let the follower lag a little: sync every third round so
		// deltas span multiple epochs.
		if round%3 == 2 {
			if f.advance(d) {
				resyncs++
			} else {
				rowSyncs++
			}
			f.mustEqual(t, d.Snapshot())
		}
	}
	if resyncs == 0 {
		t.Fatal("relabel rounds never forced a resync")
	}
	if rowSyncs == 0 {
		t.Fatal("edge-only rounds never served a row-wise delta")
	}
	t.Logf("follower: %d row-wise syncs, %d resyncs", rowSyncs, resyncs)
}

// TestDirtyRowsAreWrittenRows pins the dirty set to the kernel: an edge
// dirties an endpoint's row only when the fold wrote it (the other
// endpoint is labelled), a relabel dirties exactly its walk's rows, and
// nothing else is dirty. Random batches and relabels — some moving class
// counts, some cancelling — run at labelled fractions 0, 0.2 and 1, with
// and without an owned window. At every publish the test recomputes,
// independently of the embedder, the rows the fold and the walks wrote,
// and checks that the dirty set is exactly their owned part, that a row
// delta lists only them, and that every other row keeps the previous
// version's bits: served bits when the counts held, raw sums when a
// count moved.
func TestDirtyRowsAreWrittenRows(t *testing.T) {
	const n, k = 3001, 4
	for _, frac := range []float64{0, 0.2, 1} {
		for _, win := range [][2]int{{0, 0}, {501, 2203}} {
			t.Run(fmt.Sprintf("frac%v/own%d-%d", frac, win[0], win[1]), func(t *testing.T) {
				y := labels.SampleSemiSupervised(n, k, frac, 233)
				d, err := New(n, y, Options{K: k, ManualPublish: true, OwnedLo: win[0], OwnedHi: win[1]})
				if err != nil {
					t.Fatal(err)
				}
				lo, hi := d.Owned()
				r := xrand.New(239)
				var live []graph.Edge
				prev := d.Version()
				for epoch := 1; epoch <= 30; epoch++ {
					wrote := make(map[graph.NodeID]bool)
					write := func(v graph.NodeID) {
						if int(v) >= lo && int(v) < hi {
							wrote[v] = true
						}
					}
					for applies := 1 + r.Intn(3); applies > 0; applies-- {
						var b Batch
						for i := r.Intn(40); i > 0; i-- {
							b.Insert = append(b.Insert, graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: float32(r.Intn(3) + 1)})
						}
						for i := r.Intn(10); i > 0 && len(live) > 0; i-- {
							j := r.Intn(len(live))
							b.Delete = append(b.Delete, live[j])
							live[j] = live[len(live)-1]
							live = live[:len(live)-1]
						}
						switch r.Intn(4) {
						case 0: // counts move
							b.Labels = []LabelUpdate{{V: graph.NodeID(r.Intn(n)), Class: int32(r.Intn(k+1)) - 1}}
						case 1: // a move and its undo: counts hold
							v := graph.NodeID(r.Intn(n))
							b.Labels = []LabelUpdate{{V: v, Class: (y[v] + 2) % k}, {V: v, Class: y[v]}}
						}
						// The fold's writes, under the labels it runs with.
						for _, es := range [][]graph.Edge{b.Delete, b.Insert} {
							for _, e := range es {
								if y[e.V] >= 0 {
									write(e.U)
								}
								if y[e.U] >= 0 {
									write(e.V)
								}
							}
						}
						live = append(live, b.Insert...)
						// Each applied move walks every live edge at its vertex.
						for _, lu := range b.Labels {
							if y[lu.V] == lu.Class {
								continue
							}
							for _, e := range live {
								if e.U == lu.V {
									write(e.V)
								}
								if e.V == lu.V {
									write(e.U)
								}
							}
							y[lu.V] = lu.Class
						}
						if err := d.Apply(b); err != nil {
							t.Fatalf("epoch %d: %v", epoch, err)
						}
					}
					d.mu.Lock()
					if d.dirtyFull || len(d.dirtyRows) != len(wrote) {
						t.Fatalf("epoch %d: %d dirty rows (full=%v), the fold and walks wrote %d", epoch, len(d.dirtyRows), d.dirtyFull, len(wrote))
					}
					for _, v := range d.dirtyRows {
						if !wrote[v] {
							t.Fatalf("epoch %d: row %d is dirty but nothing wrote it", epoch, v)
						}
					}
					d.mu.Unlock()
					ver := d.Publish()
					counted := slices.Equal(ver.Z.inv, prev.Z.inv)
					if dl := d.Delta(prev.Epoch); dl.Resync == counted {
						t.Fatalf("epoch %d: resync=%v, but class counts held=%v", epoch, dl.Resync, counted)
					} else {
						for _, v := range dl.Rows {
							if !wrote[v] {
								t.Fatalf("epoch %d: delta lists row %d, which nothing wrote", epoch, v)
							}
						}
					}
					a, b := make([]float64, k), make([]float64, k)
					for v := 0; v < n; v++ {
						if wrote[graph.NodeID(v)] {
							continue
						}
						was, is := prev.Z.span(v, v+1), ver.Z.span(v, v+1)
						if counted {
							was, is = prev.Z.Row(v, a), ver.Z.Row(v, b)
						}
						for c := range is {
							if math.Float64bits(is[c]) != math.Float64bits(was[c]) {
								t.Fatalf("epoch %d: untouched row %d column %d moved from %v to %v", epoch, v, c, was[c], is[c])
							}
						}
					}
					prev = ver
				}
			})
		}
	}
}
