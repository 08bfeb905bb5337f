package dyn

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/metrics"
	"repro/internal/rows"
	"repro/internal/xrand"
)

// samePage reports whether page pg of a and b is one piece of memory.
func samePage(a, b *rows.Pages[float64], pg int) bool {
	return a.SameRow(pg*rows.PageRows, b, pg*rows.PageRows)
}

// scratchRows is the from-scratch reference of a publish: row u of
// U·diag(1/n_k) for owned u, zero elsewhere, computed independently of
// any page. Caller holds no lock; the embedder must be quiescent.
func scratchRows(d *DynamicEmbedder) []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	want := make([]float64, d.n*d.k)
	for u := d.ownLo; u < d.ownHi; u++ {
		for c := 0; c < d.k; c++ {
			if d.counts[c] > 0 {
				want[u*d.k+c] = d.u.At(u, c) * (1 / float64(d.counts[c]))
			}
		}
	}
	return want
}

// held is a version a reader kept, with what it read at the time.
type held struct {
	ver  *Version
	rows []float64
	y    []int32
}

func (h held) check(t *testing.T) {
	t.Helper()
	k := h.ver.Z.C
	buf := make([]float64, k)
	for v := 0; v < h.ver.Z.R; v++ {
		for c, x := range h.ver.Z.Row(v, buf) {
			if x != h.rows[v*k+c] {
				t.Fatalf("epoch %d changed under its reader: Z[%d][%d] = %v, was %v", h.ver.Epoch, v, c, x, h.rows[v*k+c])
			}
		}
	}
	for v, c := range labelsOf(h.ver) {
		if c != h.y[v] {
			t.Fatalf("epoch %d changed under its reader: Y[%d] = %d, was %d", h.ver.Epoch, v, c, h.y[v])
		}
	}
}

// labelsOf reads every label of ver through the block reader.
func labelsOf(ver *Version) []int32 {
	y := make([]int32, ver.Z.R)
	ver.Z.Labels(0, ver.Z.R, y)
	return y
}

// TestPagedPublishProperty drives random schedules of inserts, deletes,
// relabels (some cancelling inside one publish window) and 4096-edge
// bursts through embedders whose n is no multiple of the page height,
// whose owned window starts and ends mid-page, with readers holding every
// older version (hist-1), none (hist0) or the oldest and the newest few
// (hist3) — and checks at EVERY epoch, patched or rebuilt, that the paged
// version is bit for bit the from-scratch normalisation with the
// embedder's owned labels, that its contiguous Snapshot is the same rows
// and labels and one pointer per epoch, and that every older version a
// reader still holds has not changed.
// Readers hammer Query, Delta and the pages meanwhile (run with -race).
func TestPagedPublishProperty(t *testing.T) {
	const n, k = 20011, 5
	for _, win := range [][2]int{{0, 0}, {3001, 15007}} {
		for _, hist := range []int{-1, 0, 3} {
			t.Run(fmt.Sprintf("own%d-%d/hist%d", win[0], win[1], hist), func(t *testing.T) {
				seed := uint64(1000*win[0] + hist + 7)
				y0 := labels.SampleSemiSupervised(n, k, 0.6, seed)
				d, err := New(n, y0, Options{K: k, Workers: 2, ManualPublish: true,
					OwnedLo: win[0], OwnedHi: win[1]})
				if err != nil {
					t.Fatal(err)
				}
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						r := xrand.New(seed + uint64(g) + 1)
						buf := make([]float64, k)
						for {
							select {
							case <-stop:
								return
							default:
							}
							v := graph.NodeID(r.Intn(n))
							ver := d.Version()
							row := d.Query(v)
							if len(row) != k || len(ver.Z.Row(int(v), buf)) != k {
								t.Errorf("reader: row %d has %d/%d columns", v, len(row), len(ver.Z.Row(int(v), buf)))
								return
							}
							if dl := d.Delta(ver.Epoch); dl.Epoch < ver.Epoch {
								t.Errorf("reader: delta from %d reached back to %d", ver.Epoch, dl.Epoch)
								return
							}
							runtime.Gosched()
						}
					}(g)
				}
				defer func() { close(stop); wg.Wait() }()

				r := xrand.New(seed)
				var live []graph.Edge
				edge := func() graph.Edge {
					return graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: float32(r.Intn(3) + 1)}
				}
				var keep []held
				patched, rebuilt := 0, 0
				prev := d.Version()
				for epoch := 1; epoch <= 25; epoch++ {
					for applies := 1 + r.Intn(3); applies > 0; applies-- {
						var b Batch
						switch r.Intn(6) {
						case 0: // a burst past the dirty-page rule
							for i := 0; i < 4096; i++ {
								b.Insert = append(b.Insert, edge())
							}
						case 1: // a relabel that moves class counts
							v := graph.NodeID(r.Intn(n))
							b.Labels = []LabelUpdate{{V: v, Class: int32(r.Intn(k+1)) - 1}}
						case 2: // moves that cancel before anyone can see them
							d.mu.Lock()
							v := graph.NodeID(r.Intn(n))
							was := d.y[v]
							d.mu.Unlock()
							b.Labels = []LabelUpdate{{V: v, Class: (was + 2) % k}, {V: v, Class: was}}
						default:
							for i := 1 + r.Intn(20); i > 0; i-- {
								b.Insert = append(b.Insert, edge())
							}
							for i := r.Intn(4); i > 0 && len(live) > 0; i-- {
								j := r.Intn(len(live))
								b.Delete = append(b.Delete, live[j])
								live[j] = live[len(live)-1]
								live = live[:len(live)-1]
							}
						}
						if err := d.Apply(b); err != nil {
							t.Fatalf("epoch %d: %v", epoch, err)
						}
						live = append(live, b.Insert...)
					}
					ver := d.Publish()
					if ver.Epoch != uint64(epoch) || d.Version() != ver {
						t.Fatalf("published epoch %d, want %d current", ver.Epoch, epoch)
					}
					want := scratchRows(d)
					snap := ver.Snapshot()
					if snap != ver.Snapshot() || snap != d.Snapshot() || snap.Epoch != ver.Epoch || snap.Edges != int64(len(live)) {
						t.Fatalf("epoch %d: Snapshot is not one stable value per version", epoch)
					}
					if snap.Z.R != n || snap.Z.C != k || len(snap.Z.Data) != n*k {
						t.Fatalf("epoch %d: snapshot Z is %dx%d over %d floats", epoch, snap.Z.R, snap.Z.C, len(snap.Z.Data))
					}
					buf := make([]float64, k)
					for v := 0; v < n; v++ {
						for c, x := range ver.Z.Row(v, buf) {
							if x != want[v*k+c] || snap.Z.Data[v*k+c] != x {
								t.Fatalf("epoch %d: Z[%d][%d] paged %v, contiguous %v, from scratch %v",
									epoch, v, c, x, snap.Z.Data[v*k+c], want[v*k+c])
							}
						}
					}
					d.mu.Lock()
					for v, c := range labelsOf(ver) {
						want := d.y[v]
						if !d.owned(graph.NodeID(v)) {
							want = labels.Unknown
						}
						if c != want || snap.Y[v] != want || ver.Z.Label(v) != want {
							t.Fatalf("epoch %d: Y[%d] = %d (contiguous %d), want %d", epoch, v, c, snap.Y[v], want)
						}
					}
					d.mu.Unlock()
					if a, b := 4000/rows.PageRows, 12000/rows.PageRows; samePage(ver.Z, prev.Z, a) || samePage(ver.Z, prev.Z, b) {
						patched++
					} else {
						rebuilt++
					}
					for _, h := range keep {
						h.check(t)
					}
					if hist != 0 {
						keep = append(keep, held{ver, want, labelsOf(ver)})
					}
					if hist > 0 && len(keep) > hist {
						keep = append(keep[:1], keep[2:]...) // the oldest stays held throughout
					}
					prev = ver
				}
				if patched == 0 || rebuilt == 0 {
					t.Fatalf("schedule took %d patched and %d rebuilt publishes; want both paths", patched, rebuilt)
				}
			})
		}
	}
}

// TestPublishSharesUntouchedPages pins the cost model at the benchmark's
// scale: a 64-edge write replaces at most 128 pages and shares the rest,
// labels included, with the previous version, allocating a small
// fraction of the matrix; so does a count-changing relabel, which copies
// only the pages its walk wrote and the mover's.
func TestPublishSharesUntouchedPages(t *testing.T) {
	const n, k = 100_000, 10
	y0 := labels.SampleSemiSupervised(n, k, 1, 5)
	d, err := New(n, y0, Options{K: k, ManualPublish: true})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	batch := func(m int) Batch {
		var b Batch
		for i := 0; i < m; i++ {
			b.Insert = append(b.Insert, graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: 1})
		}
		return b
	}
	// A bulk load is rebuilt into one array; the first small write after
	// it cuts that array into pages (once), the next ones only patch.
	for _, m := range []int{50_000, 64} {
		if err := d.Apply(batch(m)); err != nil {
			t.Fatal(err)
		}
		d.Publish()
	}
	// publish publishes b and checks what it cost against the previous
	// version: bytes allocated, and how many pages it did not share.
	publish := func(what string, b Batch) (before, after *Version, differ int) {
		t.Helper()
		before = d.Version()
		if err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		after = d.Publish()
		runtime.ReadMemStats(&m1)
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(n*k*8/10); got >= limit {
			t.Errorf("%s: publish allocated %d bytes, want < %d (10%% of the matrix)", what, got, limit)
		}
		for pg := 0; pg < (n+rows.PageRows-1)/rows.PageRows; pg++ {
			if !samePage(after.Z, before.Z, pg) {
				differ++
			}
		}
		return before, after, differ
	}
	_, _, differ := publish("64-edge write", batch(64))
	if differ == 0 || differ > 128 {
		t.Errorf("%d pages differ after a 64-edge write, want 1..128", differ)
	}

	// Moving one vertex changes two class counts: a new 1/n_k vector, and
	// fresh copies of the pages its walk wrote — its neighbours' rows —
	// and of the page holding its label.
	d.mu.Lock()
	walked := len(d.adj[0])
	d.mu.Unlock()
	if walked == 0 {
		t.Fatal("vertex 0 has no neighbours; the relabel would walk nothing")
	}
	moved := LabelUpdate{V: 0, Class: (y0[0] + 1) % k}
	before, after, differ := publish("count-changing relabel", Batch{Labels: []LabelUpdate{moved}})
	if differ == 0 || differ > walked+1 {
		t.Errorf("%d pages differ after a relabel walking %d rows, want 1..%d", differ, walked, walked+1)
	}
	if samePage(after.Z, before.Z, 0) || before.Z.Label(0) != y0[0] || after.Z.Label(0) != moved.Class {
		t.Error("a relabel wrote into the labels of a published version")
	}
	if st := d.Stats(); st.DenseViews != 0 {
		t.Errorf("publishing derived %d contiguous views, want none", st.DenseViews)
	}
}

// TestCountChangingRelabelPatches pins the raw-sum contract on the
// publish a relabel makes: moving labelled vertices between classes
// copies exactly the pages holding a row its walk wrote or an owned
// mover's label, and shares every other page with the previous version;
// the copied pages stamp exactly those rows and labels with the new
// epoch; every row still equals the from-scratch U·diag(1/n_k) bit for
// bit; the version a reader held across it is unchanged; and a delta
// across it still answers resync, because every served row of the two
// classes' columns was rescaled.
func TestCountChangingRelabelPatches(t *testing.T) {
	const n, k = 20011, 5
	for _, win := range [][2]int{{0, 0}, {3001, 15007}} {
		t.Run(fmt.Sprintf("own%d-%d", win[0], win[1]), func(t *testing.T) {
			y0 := labels.SampleSemiSupervised(n, k, 0.6, 17)
			d, err := New(n, y0, Options{K: k, ManualPublish: true, OwnedLo: win[0], OwnedHi: win[1]})
			if err != nil {
				t.Fatal(err)
			}
			r := xrand.New(19)
			var b Batch
			for i := 0; i < 30_000; i++ {
				b.Insert = append(b.Insert, graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: float32(r.Intn(3) + 1)})
			}
			if err := d.Apply(b); err != nil {
				t.Fatal(err)
			}
			// Two publishes: the bulk load rebuilds, the second cuts pages.
			d.Publish()
			if err := d.AddEdges(b.Insert[:8]); err != nil {
				t.Fatal(err)
			}
			prev := d.Publish()
			keep := held{prev, scratchRows(d), labelsOf(prev)}

			// Twenty labelled vertices, each moved to another class.
			var moves []LabelUpdate
			walked, movers := make(map[int]bool), make(map[int]bool)
			d.mu.Lock()
			for len(moves) < 20 {
				v := graph.NodeID(r.Intn(n))
				if y0[v] < 0 || slices.ContainsFunc(moves, func(m LabelUpdate) bool { return m.V == v }) {
					continue
				}
				moves = append(moves, LabelUpdate{V: v, Class: (y0[v] + 1 + int32(r.Intn(k-1))) % k})
				movers[int(v)] = d.owned(v)
				for _, he := range d.adj[v] {
					if d.owned(he.v) {
						walked[int(he.v)] = true
					}
				}
			}
			d.mu.Unlock()
			if err := d.UpdateLabels(moves); err != nil {
				t.Fatal(err)
			}
			ver := d.Publish()
			if ver.invEpoch == prev.invEpoch {
				t.Fatal("the relabel left the class counts where they were; pick moves that change them")
			}
			for pg := 0; pg < (n+rows.PageRows-1)/rows.PageRows; pg++ {
				wrote := false
				for v := pg * rows.PageRows; v < min((pg+1)*rows.PageRows, n); v++ {
					wrote = wrote || walked[v] || movers[v]
					row, label := ver.Z.Stamps(v)
					if (row == ver.Epoch) != walked[v] || (label == ver.Epoch) != movers[v] {
						t.Fatalf("vertex %d: row stamp %d (walked %v), label stamp %d (owned mover %v), epoch %d",
							v, row, walked[v], label, movers[v], ver.Epoch)
					}
				}
				if shared := samePage(ver.Z, prev.Z, pg); shared == wrote {
					t.Fatalf("page %d: shared=%v, but it holds a walked row or moved label=%v", pg, shared, wrote)
				}
			}
			want := scratchRows(d)
			buf := make([]float64, k)
			for v := 0; v < n; v++ {
				for c, x := range ver.Z.Row(v, buf) {
					if x != want[v*k+c] {
						t.Fatalf("Z[%d][%d] = %v, from scratch %v", v, c, x, want[v*k+c])
					}
				}
			}
			keep.check(t)
			if !d.Delta(prev.Epoch).Resync {
				t.Error("a count-changing relabel was served as a row delta")
			}
		})
	}
}

// TestPublishInstrumentsAndFoldPaths checks that the publish instruments
// describe every publish — dirty rows (a count change counts as every
// row), rows copied into fresh pages (a moved label's page included), and
// count-changing epochs — and that folds are exported by path.
func TestPublishInstrumentsAndFoldPaths(t *testing.T) {
	const n, k = 2000, 4
	d, err := New(n, labels.Full(n, k, 3), Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	d.Instrument(reg, metrics.L("shard", "0"))
	// Two rows on two pages, patched; then a count-changing move of one
	// endpoint, which copies the page its walk wrote (the other
	// endpoint's) and the page of its own label.
	if err := d.AddEdges([]graph.Edge{{U: 1, V: 100, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateLabels([]LabelUpdate{{V: 1, Class: (d.Version().Z.Label(1) + 1) % k}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		name, path string
		value      float64
	}{
		{"gee_dyn_publish_dirty_rows_count", "", 2},
		{"gee_dyn_publish_dirty_rows_sum", "", 2 + n},
		{"gee_dyn_publish_rows_normalized_count", "", 2},
		{"gee_dyn_publish_rows_normalized_sum", "", 2*rows.PageRows + 2*rows.PageRows},
		{"gee_dyn_full_epochs_total", "", 1},
		{"gee_dyn_folds_total", "serial", 1},
		{"gee_dyn_folds_total", "atomic", 0},
		{"gee_dyn_folds_total", "sharded", 0},
	} {
		found := false
		for _, s := range samples {
			if s.Name == want.name && s.Labels["path"] == want.path && s.Labels["shard"] == "0" {
				found = true
				if s.Value != want.value {
					t.Errorf("%s{path=%q} = %v, want %v", want.name, want.path, s.Value, want.value)
				}
			}
		}
		if !found {
			t.Errorf("%s{path=%q} not exported", want.name, want.path)
		}
	}
}
