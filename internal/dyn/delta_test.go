package dyn

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

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
// answer: a follower ahead of the embedder, a span crossing a
// counts-changing relabel, and a span that changed more than half the
// rows.
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

	// A relabel that changes class counts rescales whole columns: a span
	// crossing it resyncs — including when it also covers row-sized
	// epochs.
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

	// A span that changed more than half the rows resyncs even without
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
	d, err := New(n, labels.SampleSemiSupervised(n, k, 0.5, 227), Options{K: k})
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

// churn draws random batches — inserts, deletes of live edges, label
// moves that change class counts and moves that cancel — and works out,
// independently of the embedder, what each one writes: the owned rows
// the fold and the relabel walks wrote, and the owned vertices whose
// label moved.
type churn struct {
	r      *xrand.Rand
	n, k   int
	lo, hi int     // the owned window
	y      []int32 // the labels the embedder holds
	live   []graph.Edge
	// relabelOdds: one batch in relabelOdds moves class counts, and one
	// more makes a move and its undo.
	relabelOdds int
}

func (c *churn) owned(v graph.NodeID) bool { return int(v) >= c.lo && int(v) < c.hi }

// counts is the class histogram of the labels.
func (c *churn) counts() []int64 {
	out := make([]int64, c.k)
	for _, cl := range c.y {
		if cl >= 0 {
			out[cl]++
		}
	}
	return out
}

// next returns one batch of up to maxIns inserts and adds the rows it
// writes to rows and the labels it moves to moved.
func (c *churn) next(maxIns int, rows, moved map[graph.NodeID]bool) Batch {
	r, n := c.r, c.n
	write := func(v graph.NodeID) {
		if c.owned(v) {
			rows[v] = true
		}
	}
	var b Batch
	for i := r.Intn(maxIns); i > 0; i-- {
		b.Insert = append(b.Insert, graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: float32(r.Intn(3) + 1)})
	}
	for i := r.Intn(10); i > 0 && len(c.live) > 0; i-- {
		j := r.Intn(len(c.live))
		b.Delete = append(b.Delete, c.live[j])
		c.live[j] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
	}
	switch r.Intn(c.relabelOdds) {
	case 0: // counts move
		b.Labels = []LabelUpdate{{V: graph.NodeID(r.Intn(n)), Class: int32(r.Intn(c.k+1)) - 1}}
	case 1: // a move and its undo: counts hold
		v := graph.NodeID(r.Intn(n))
		b.Labels = []LabelUpdate{{V: v, Class: (c.y[v] + 2) % int32(c.k)}, {V: v, Class: c.y[v]}}
	}
	// The fold's writes, under the labels it runs with.
	for _, es := range [][]graph.Edge{b.Delete, b.Insert} {
		for _, e := range es {
			if c.y[e.V] >= 0 {
				write(e.U)
			}
			if c.y[e.U] >= 0 {
				write(e.V)
			}
		}
	}
	c.live = append(c.live, b.Insert...)
	// Each applied move walks every live edge at its vertex.
	for _, lu := range b.Labels {
		if c.y[lu.V] == lu.Class {
			continue
		}
		for _, e := range c.live {
			if e.U == lu.V {
				write(e.V)
			}
			if e.V == lu.V {
				write(e.U)
			}
		}
		if c.owned(lu.V) {
			moved[lu.V] = true
		}
		c.y[lu.V] = lu.Class
	}
	return b
}

// ascending returns the members of set in ascending order.
func ascending(set map[graph.NodeID]bool) []graph.NodeID {
	var out []graph.NodeID
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TestDirtyRowsAreWrittenRows pins the dirty set and the stamps to the
// kernel: an edge dirties an endpoint's row only when the fold wrote it
// (the other endpoint is labelled), a relabel dirties exactly its walk's
// rows and its own label, and nothing else is dirty. Random batches and
// relabels — some moving class counts, some cancelling — run at
// labelled fractions 0, 0.2 and 1, with and without an owned window. At
// every publish the test recomputes, independently of the embedder, the
// rows the fold and the walks wrote and the labels that moved, and
// checks that the dirty rows are exactly their owned part, that the
// version stamps exactly those rows and labels with its epoch, that a
// row delta lists exactly them, and that every other row keeps the
// previous version's bits: served bits when the counts held, raw sums
// when a count moved.
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
				c := &churn{r: xrand.New(239), n: n, k: k, lo: lo, hi: hi, y: y, relabelOdds: 4}
				prev := d.Version()
				for epoch := 1; epoch <= 30; epoch++ {
					wrote, moved := make(map[graph.NodeID]bool), make(map[graph.NodeID]bool)
					for applies := 1 + c.r.Intn(3); applies > 0; applies-- {
						if err := d.Apply(c.next(40, wrote, moved)); err != nil {
							t.Fatalf("epoch %d: %v", epoch, err)
						}
					}
					d.mu.Lock()
					rows := 0
					for _, v := range d.dirty {
						if d.rowAt[v] != uint64(epoch) {
							continue
						}
						rows++
						if !wrote[v] {
							t.Fatalf("epoch %d: row %d is dirty but nothing wrote it", epoch, v)
						}
					}
					if rows != len(wrote) {
						t.Fatalf("epoch %d: %d dirty rows, the fold and walks wrote %d", epoch, rows, len(wrote))
					}
					d.mu.Unlock()
					ver := d.Publish()
					for v := 0; v < n; v++ {
						row, label := ver.Z.Stamps(v)
						if (row == ver.Epoch) != wrote[graph.NodeID(v)] || (label == ver.Epoch) != moved[graph.NodeID(v)] {
							t.Fatalf("epoch %d: vertex %d stamped row %d, label %d; written %v, moved %v",
								epoch, v, row, label, wrote[graph.NodeID(v)], moved[graph.NodeID(v)])
						}
					}
					counted := ver.invEpoch == prev.invEpoch
					if dl := d.Delta(prev.Epoch); dl.Resync == counted {
						t.Fatalf("epoch %d: resync=%v, but class counts held=%v", epoch, dl.Resync, counted)
					} else if !dl.Resync && !slices.Equal(dl.Rows, ascending(wrote)) {
						t.Fatalf("epoch %d: delta lists rows %v, the fold and walks wrote %v", epoch, dl.Rows, ascending(wrote))
					}
					a, b := make([]float64, k), make([]float64, k)
					for v := 0; v < n; v++ {
						if wrote[graph.NodeID(v)] {
							continue
						}
						was, is := prev.Z.RawRow(v, a), ver.Z.RawRow(v, b)
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

// TestDeltaFromAnyHeldEpoch pins Delta to the stamp contract across
// spans of any length: random inserts, deletes, relabels and cancelling
// moves, with the owned window on and off, and after every publish a
// delta from EVERY version published so far. Each must answer resync
// exactly when one of the three rules says so — the follower is ahead,
// the class counts moved after it, or the span wrote more than half the
// owned rows — and otherwise list exactly the rows written and the
// labels moved in the span (as an independent model of the fold and
// the walks works them out), include every row whose raw bits differ,
// and, applied to the held version's rows and labels, give the current
// version bit for bit. Every rule must fire, and row deltas must be
// served from both flat and paged versions (where both occur).
func TestDeltaFromAnyHeldEpoch(t *testing.T) {
	const n, k, epochs = 601, 4, 40
	for _, win := range [][2]int{{0, 0}, {101, 437}} {
		t.Run(fmt.Sprintf("own%d-%d", win[0], win[1]), func(t *testing.T) {
			y := labels.SampleSemiSupervised(n, k, 0.5, 241)
			d, err := New(n, y, Options{K: k, ManualPublish: true, OwnedLo: win[0], OwnedHi: win[1]})
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := d.Owned()
			c := &churn{r: xrand.New(251), n: n, k: k, lo: lo, hi: hi, y: slices.Clone(y), relabelOdds: 64}
			// What each epoch wrote, moved, and whether it moved counts.
			wroteAt, movedAt := []map[graph.NodeID]bool{nil}, []map[graph.NodeID]bool{nil}
			countsAt := []bool{false}
			held := []*Version{d.Version()}
			fired := map[string]int{}
			for epoch := 1; epoch <= epochs; epoch++ {
				before := c.counts()
				wrote, moved := make(map[graph.NodeID]bool), make(map[graph.NodeID]bool)
				for applies := 1 + c.r.Intn(3); applies > 0; applies-- {
					if err := d.Apply(c.next(1+c.r.Intn(40), wrote, moved)); err != nil {
						t.Fatalf("epoch %d: %v", epoch, err)
					}
				}
				cur := d.Publish()
				wroteAt, movedAt = append(wroteAt, wrote), append(movedAt, moved)
				countsAt = append(countsAt, !slices.Equal(before, c.counts()))
				held = append(held, cur)
				if !d.Delta(cur.Epoch + 1).Resync {
					t.Fatalf("epoch %d: a follower ahead was served a delta", epoch)
				}
				fired["ahead"]++
				now, nowY := cur.Z.Dense(), labelsOf(cur)
				for _, e := range held {
					rows, labs := make(map[graph.NodeID]bool), make(map[graph.NodeID]bool)
					countsMoved := false
					for x := e.Epoch + 1; x <= cur.Epoch; x++ {
						maps.Copy(rows, wroteAt[x])
						maps.Copy(labs, movedAt[x])
						countsMoved = countsMoved || countsAt[x]
					}
					big := len(rows) > (hi-lo)/2
					dl := d.Delta(e.Epoch)
					if dl.Resync != (countsMoved || big) || dl.Epoch != cur.Epoch || dl.FromEpoch != e.Epoch {
						t.Fatalf("epoch %d from %d: resync=%v (epoch %d), but counts moved=%v and %d of %d rows written",
							epoch, e.Epoch, dl.Resync, dl.Epoch, countsMoved, len(rows), hi-lo)
					}
					switch {
					case countsMoved:
						fired["counts"]++
						continue
					case big:
						fired["half"]++
						continue
					case !cur.Z.Paged():
						fired["flat"]++
					default:
						fired["paged"]++
					}
					if !slices.Equal(dl.Rows, ascending(rows)) {
						t.Fatalf("epoch %d from %d: delta rows %v, written %v", epoch, e.Epoch, dl.Rows, ascending(rows))
					}
					var got []graph.NodeID
					for _, lu := range dl.Labels {
						got = append(got, lu.V)
					}
					if !slices.Equal(got, ascending(labs)) {
						t.Fatalf("epoch %d from %d: delta labels %v, moved %v", epoch, e.Epoch, got, ascending(labs))
					}
					was, is := make([]float64, k), make([]float64, k)
					for v := 0; v < n; v++ {
						if !slices.Equal(e.Z.RawRow(v, was), cur.Z.RawRow(v, is)) && !rows[graph.NodeID(v)] {
							t.Fatalf("epoch %d from %d: row %d changed raw bits but is not in the delta", epoch, e.Epoch, v)
						}
					}
					z, ys := e.Z.Dense(), labelsOf(e)
					for i, v := range dl.Rows {
						copy(z.Row(int(v)), dl.Values[i*k:(i+1)*k])
					}
					for _, lu := range dl.Labels {
						ys[lu.V] = lu.Class
					}
					for i, x := range now.Data {
						if math.Float64bits(z.Data[i]) != math.Float64bits(x) {
							t.Fatalf("epoch %d from %d: Z[%d][%d] = %v after the delta, current %v", epoch, e.Epoch, i/k, i%k, z.Data[i], x)
						}
					}
					if !slices.Equal(ys, nowY) {
						t.Fatalf("epoch %d from %d: labels after the delta differ from the current version's", epoch, e.Epoch)
					}
				}
			}
			t.Logf("deltas served or refused: %v", fired)
			// Only an embedder owning every row publishes flat versions.
			for _, rule := range []string{"counts", "half", "flat", "paged"} {
				if fired[rule] == 0 && (rule != "flat" || hi-lo == n) {
					t.Errorf("no delta took the %q path: %v", rule, fired)
				}
			}
		})
	}
}

// TestDeltaDoesNotTakeWriterLock checks that Delta is lock-free: it
// answers while a writer holds the embedder's lock, parked in a publish
// hook, and sees the version that writer has just published.
func TestDeltaDoesNotTakeWriterLock(t *testing.T) {
	const n, k = 100, 3
	d, err := New(n, labels.Full(n, k, 257), Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdges([]graph.Edge{{U: 0, V: 1, W: 1}}); err != nil {
		t.Fatal(err)
	}
	inside, release := make(chan struct{}), make(chan struct{})
	d.SetPublishHook(func(uint64, time.Duration) {
		close(inside)
		<-release
	})
	errc := make(chan error, 1)
	go func() { errc <- d.AddEdges([]graph.Edge{{U: 2, V: 3, W: 1}}) }()
	<-inside
	done := make(chan *Delta, 1)
	go func() { done <- d.Delta(0) }()
	select {
	case dl := <-done:
		if dl.Resync || dl.Epoch != 2 || !slices.Equal(dl.Rows, []graph.NodeID{0, 1, 2, 3}) {
			t.Errorf("delta under a held writer lock: resync=%v epoch=%d rows=%v", dl.Resync, dl.Epoch, dl.Rows)
		}
	case <-time.After(10 * time.Second):
		t.Error("Delta blocked behind a writer holding the lock")
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestStampRebase pins the 32-bit page stamps: the publish whose epoch
// no longer fits an offset from the stamp base rebuilds every page
// against a new base, deltas from that base on stay exact on every
// version after it, flat or paged, and a span reaching back before the
// base resyncs.
func TestStampRebase(t *testing.T) {
	const n, k = 200, 3
	for _, win := range [][2]int{{0, 0}, {37, 151}} {
		t.Run(fmt.Sprintf("own%d-%d", win[0], win[1]), func(t *testing.T) {
			d, err := New(n, labels.Full(n, k, 263), Options{K: k, OwnedLo: win[0], OwnedHi: win[1]})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.AddEdges([]graph.Edge{{U: 40, V: 41, W: 1}}); err != nil {
				t.Fatal(err)
			}
			// Jump the epoch counter to just short of the first overflow:
			// publish i, at epoch first+i, writes rows 50+2i and 51+2i, and
			// the one at 2^32 re-bases to 2^32-1.
			d.cur.Load().Epoch = math.MaxUint32 - 1
			const first = uint64(math.MaxUint32)
			for i := range uint32(4) {
				if err := d.AddEdges([]graph.Edge{{U: 50 + 2*i, V: 51 + 2*i, W: 1}}); err != nil {
					t.Fatal(err)
				}
				ver, base := d.Version(), uint64(0)
				if i > 0 {
					base = math.MaxUint32
					if dl := d.Delta(base - 1); !dl.Resync {
						t.Fatalf("epoch %d: a delta from before the stamp base was served", ver.Epoch)
					}
				}
				nop := func(int, bool, bool) {}
				if ver.Epoch != first+uint64(i) || !ver.Z.Since(base, nop) || (base > 0 && ver.Z.Since(base-1, nop)) {
					t.Fatalf("epoch %d: stamps do not reach back exactly to base %d (want epoch %d)", ver.Epoch, base, first+uint64(i))
				}
				for from := max(base, first-1); from < ver.Epoch; from++ {
					var want []graph.NodeID
					for j := uint32(from + 1 - first); j <= i; j++ {
						want = append(want, 50+2*j, 51+2*j)
					}
					if dl := d.Delta(from); dl.Resync || !slices.Equal(dl.Rows, want) {
						t.Fatalf("epoch %d from %d: resync=%v rows=%v, want %v", ver.Epoch, from, dl.Resync, dl.Rows, want)
					}
				}
			}
		})
	}
}

// TestDeltaAcrossSaturatedAges serves deltas over spans longer than a
// chunk's page ages count: one page of a chunk is written once, early,
// while another page of the same chunk is rewritten for 300 publishes,
// so the first page's age saturates. A delta from every epoch must list
// exactly the rows written after it.
func TestDeltaAcrossSaturatedAges(t *testing.T) {
	const n, k, publishes = 200, 3, 300
	d, err := New(n, labels.Full(n, k, 269), Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	last := make([]uint64, n) // the epoch that last wrote each row
	write := func(u, v graph.NodeID) {
		if err := d.AddEdges([]graph.Edge{{U: u, V: v, W: 1}}); err != nil {
			t.Fatal(err)
		}
		last[u], last[v] = d.Epoch(), d.Epoch()
	}
	write(0, 1) // page 0 of chunk 0
	for i := range publishes {
		write(4, 5+graph.NodeID(i%3)) // page 1 of chunk 0
	}
	if !d.Version().Z.Paged() {
		t.Fatal("test setup: the current version is flat, not paged")
	}
	for from := range d.Epoch() {
		var want []graph.NodeID
		for v, e := range last {
			if e > from {
				want = append(want, graph.NodeID(v))
			}
		}
		if dl := d.Delta(from); dl.Resync || !slices.Equal(dl.Rows, want) {
			t.Fatalf("from %d: resync=%v rows=%v, want %v", from, dl.Resync, dl.Rows, want)
		}
	}
}
