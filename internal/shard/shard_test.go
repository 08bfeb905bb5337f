package shard

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/rows"
)

func TestNewPartition(t *testing.T) {
	cases := []struct {
		n, shards int
		ok        bool
		bounds    []uint32
	}{
		{10, 1, true, []uint32{0, 10}},
		{10, 2, true, []uint32{0, 5, 10}},
		{10, 3, true, []uint32{0, 4, 7, 10}},
		{10, 4, true, []uint32{0, 3, 6, 8, 10}},
		{3, 3, true, []uint32{0, 1, 2, 3}},
		{2, 3, false, nil},
		{0, 1, false, nil},
		{10, 0, false, nil},
		{10, -1, false, nil},
	}
	for _, c := range cases {
		p, err := NewPartition(c.n, c.shards)
		if (err == nil) != c.ok {
			t.Fatalf("NewPartition(%d, %d): err=%v, want ok=%v", c.n, c.shards, err, c.ok)
		}
		if err != nil {
			continue
		}
		got := p.Bounds()
		if len(got) != len(c.bounds) {
			t.Fatalf("NewPartition(%d, %d): bounds %v, want %v", c.n, c.shards, got, c.bounds)
		}
		for i := range got {
			if got[i] != c.bounds[i] {
				t.Fatalf("NewPartition(%d, %d): bounds %v, want %v", c.n, c.shards, got, c.bounds)
			}
		}
		if p.Shards() != c.shards {
			t.Fatalf("Shards() = %d, want %d", p.Shards(), c.shards)
		}
	}
}

func TestOwnerCoversEveryVertex(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 7} {
		p, err := NewPartition(100, shards)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 100; v++ {
			s := p.Owner(graph.NodeID(v))
			lo, hi := p.Range(s)
			if uint32(v) < lo || uint32(v) >= hi {
				t.Fatalf("shards=%d: Owner(%d)=%d owns [%d,%d)", shards, v, s, lo, hi)
			}
		}
		// Out-of-range vertices map to the last shard (Owner is total).
		if got := p.Owner(100); got != shards-1 {
			t.Fatalf("shards=%d: Owner(100)=%d, want %d", shards, got, shards-1)
		}
	}
}

func TestNewPartitionFromBounds(t *testing.T) {
	p, err := NewPartition(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewPartitionFromBounds(10, p.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 10; v++ {
		if p.Owner(graph.NodeID(v)) != q.Owner(graph.NodeID(v)) {
			t.Fatalf("round-tripped partition disagrees at %d", v)
		}
	}
	for _, bad := range [][]uint32{
		nil,
		{0},
		{0, 5},        // does not span to n
		{1, 10},       // does not start at 0
		{0, 5, 5, 10}, // not strictly increasing
		{0, 7, 3, 10}, // decreasing
		{0, 10, 10},   // duplicate terminal
	} {
		if _, err := NewPartitionFromBounds(10, bad); err == nil {
			t.Fatalf("NewPartitionFromBounds(10, %v): want error", bad)
		}
	}
}

func TestEpochVector(t *testing.T) {
	var empty EpochVector
	if empty.Max() != 0 {
		t.Fatalf("empty Max = %d", empty.Max())
	}
	ev := EpochVector{0: 5, 1: 7, 2: 3}
	if ev.Max() != 7 {
		t.Fatalf("Max = %d, want 7", ev.Max())
	}
	if !ev.Covers(EpochVector{0: 5, 2: 3}) {
		t.Fatal("Covers(subset at equal epochs) = false")
	}
	if !ev.Covers(nil) {
		t.Fatal("Covers(nil) = false")
	}
	if ev.Covers(EpochVector{1: 8}) {
		t.Fatal("Covers(ahead) = true")
	}
	if ev.Covers(EpochVector{3: 1}) {
		t.Fatal("Covers(unknown shard) = true")
	}
}

func TestSplitRoutesAndCounts(t *testing.T) {
	p, err := NewPartition(10, 2) // [0,5) and [5,10)
	if err != nil {
		t.Fatal(err)
	}
	b := dyn.Batch{
		Insert: []graph.Edge{
			{U: 0, V: 1, W: 1}, // local to shard 0
			{U: 6, V: 7, W: 1}, // local to shard 1
			{U: 2, V: 8, W: 1}, // cut: both shards
		},
		Delete: []graph.Edge{
			{U: 4, V: 5, W: 1}, // cut
		},
		Labels: []dyn.LabelUpdate{{V: 3, Class: 1}},
	}
	subs, cut := Split(p, b)
	if cut != 2 {
		t.Fatalf("cut = %d, want 2", cut)
	}
	if len(subs) != 2 {
		t.Fatalf("%d sub-batches", len(subs))
	}
	if got := len(subs[0].Insert); got != 2 {
		t.Fatalf("shard 0 inserts = %d, want 2", got)
	}
	if got := len(subs[1].Insert); got != 2 {
		t.Fatalf("shard 1 inserts = %d, want 2", got)
	}
	if len(subs[0].Delete) != 1 || len(subs[1].Delete) != 1 {
		t.Fatalf("cut delete not delivered to both shards: %d/%d", len(subs[0].Delete), len(subs[1].Delete))
	}
	// Labels broadcast to every shard.
	if len(subs[0].Labels) != 1 || len(subs[1].Labels) != 1 {
		t.Fatalf("labels not broadcast: %d/%d", len(subs[0].Labels), len(subs[1].Labels))
	}
	// Original batch order is preserved within each sub-batch.
	if subs[0].Insert[0].U != 0 || subs[0].Insert[1].U != 2 {
		t.Fatalf("shard 0 insert order: %v", subs[0].Insert)
	}
}

// churner drives the same random mixed workload into an unsharded
// embedder and a set of sharded ones, tracking live edges so deletes
// always name a live edge.
type churner struct {
	rng  *rand.Rand
	n, k int
	live []graph.Edge
}

func (c *churner) batch() dyn.Batch {
	var b dyn.Batch
	// Deletes first (from the live set, removed immediately so one batch
	// never deletes the same edge twice).
	nDel := c.rng.Intn(3)
	for i := 0; i < nDel && len(c.live) > 0; i++ {
		j := c.rng.Intn(len(c.live))
		b.Delete = append(b.Delete, c.live[j])
		c.live[j] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
	}
	nIns := 1 + c.rng.Intn(6)
	for i := 0; i < nIns; i++ {
		e := graph.Edge{
			U: graph.NodeID(c.rng.Intn(c.n)),
			V: graph.NodeID(c.rng.Intn(c.n)),
			W: float32(1 + c.rng.Intn(4)),
		}
		b.Insert = append(b.Insert, e)
		c.live = append(c.live, e)
	}
	if c.rng.Intn(2) == 0 {
		cls := int32(c.rng.Intn(c.k))
		if c.rng.Intn(8) == 0 {
			cls = labels.Unknown
		}
		b.Labels = append(b.Labels, dyn.LabelUpdate{
			V:     graph.NodeID(c.rng.Intn(c.n)),
			Class: cls,
		})
	}
	return b
}

// TestShardedIngestMatchesUnsharded is the sharding-exactness property
// test: for 1, 2, and 4 shards, delivering each batch through Split to
// per-shard embedders (cut edges to both owners, labels broadcast) and
// assembling the owned rows yields the unsharded embedding within 1e-9,
// with identical labels, under mixed insert/delete/relabel churn.
func TestShardedIngestMatchesUnsharded(t *testing.T) {
	const (
		n      = 64
		k      = 4
		rounds = 120
	)
	for _, shards := range []int{1, 2, 4} {
		y := make([]int32, n)
		for v := range y {
			y[v] = int32(v % k)
		}
		ref, err := dyn.New(n, y, dyn.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPartition(n, shards)
		if err != nil {
			t.Fatal(err)
		}
		set, err := NewShards(p, y, dyn.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		c := &churner{rng: rand.New(rand.NewSource(int64(41 + shards))), n: n, k: k}
		for r := 0; r < rounds; r++ {
			b := c.batch()
			if err := ref.Apply(b); err != nil {
				t.Fatalf("shards=%d round %d: unsharded apply: %v", shards, r, err)
			}
			subs, _ := Split(p, b)
			for i, sub := range subs {
				if Ops(sub) == 0 {
					continue
				}
				if err := set[i].D.Apply(sub); err != nil {
					t.Fatalf("shards=%d round %d: shard %d apply: %v", shards, r, i, err)
				}
			}
		}
		want := ref.Snapshot()
		for i, sh := range set {
			snap := sh.D.Snapshot()
			if snap.Z.R != n || snap.Z.C != k {
				t.Fatalf("shard %d snapshot %dx%d", i, snap.Z.R, snap.Z.C)
			}
			lo, hi := p.Range(i)
			for v := int(lo); v < int(hi); v++ {
				if snap.Y[v] != want.Y[v] {
					t.Fatalf("shards=%d: shard %d label[%d] = %d, want %d",
						shards, i, v, snap.Y[v], want.Y[v])
				}
				sr, wr := snap.Z.Row(v), want.Z.Row(v)
				for col := 0; col < k; col++ {
					if math.Abs(sr[col]-wr[col]) > 1e-9 {
						t.Fatalf("shards=%d: row %d col %d: sharded %g vs unsharded %g",
							shards, v, col, sr[col], wr[col])
					}
				}
			}
			// Rows outside the owned window are never published: they
			// must be zero regardless of the cut-edge mass folded there.
			for v := 0; v < n; v++ {
				if v >= int(lo) && v < int(hi) {
					continue
				}
				for col, x := range snap.Z.Row(v) {
					if x != 0 {
						t.Fatalf("shards=%d: shard %d published non-owned row %d col %d = %g",
							shards, i, v, col, x)
					}
				}
			}
		}
	}
}

// TestShardedDeltaRestrictedToOwnedRows checks that a sharded
// embedder's Delta lists only owned rows and owned relabels, so the
// per-shard delta sections a replica consumes never overlap.
func TestShardedDeltaRestrictedToOwnedRows(t *testing.T) {
	const n, k = 32, 2
	y := make([]int32, n)
	for v := range y {
		y[v] = int32(v % k)
	}
	p, err := NewPartition(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewShards(p, y, dyn.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	// A cut edge dirties one row on each side; each shard's delta must
	// list only its own endpoint.
	b := dyn.Batch{Insert: []graph.Edge{{U: 2, V: 20, W: 1}}}
	subs, cut := Split(p, b)
	if cut != 1 {
		t.Fatalf("cut = %d, want 1", cut)
	}
	for i := range set {
		from := set[i].D.Epoch()
		if err := set[i].D.Apply(subs[i]); err != nil {
			t.Fatal(err)
		}
		dl := set[i].D.Delta(from)
		if dl.Resync {
			t.Fatalf("shard %d: unexpected resync", i)
		}
		lo, hi := p.Range(i)
		if len(dl.Rows) != 1 {
			t.Fatalf("shard %d: delta rows %v, want exactly the owned endpoint", i, dl.Rows)
		}
		if v := dl.Rows[0]; uint32(v) < lo || uint32(v) >= hi {
			t.Fatalf("shard %d: delta row %d outside owned [%d,%d)", i, v, lo, hi)
		}
	}
}

// TestShardPublishesOnlyItsWindow pins what a shard's publish costs: a
// version's pages outside the owned window are all one shared zero page
// (through full rebuilds and patched publishes alike), and the bytes a
// full rebuild allocates are the window's, not the global n×K.
func TestShardPublishesOnlyItsWindow(t *testing.T) {
	const n, k = 50_000, 8
	y := make([]int32, n)
	for v := range y {
		y[v] = int32(v % k)
	}
	p, err := NewPartition(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewShards(p, y, dyn.Options{K: k, ManualPublish: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	edges := func(m int) []graph.Edge {
		out := make([]graph.Edge, m)
		for i := range out {
			out[i] = graph.Edge{U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n)), W: 1}
		}
		return out
	}
	// A bulk load rebuilds every owned page, a 64-edge write patches a few.
	for _, m := range []int{40_000, 64} {
		subs, _ := Split(p, dyn.Batch{Insert: edges(m)})
		for i, sh := range set {
			if err := sh.D.Apply(subs[i]); err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			ver := sh.D.Publish()
			runtime.ReadMemStats(&m1)
			if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(n*k*8*3/4); got >= limit {
				t.Errorf("shard %d, %d edges: publish allocated %d bytes, want < %d (the window is half of n×K)", i, m, got, limit)
			}
			zero := -1
			for v := 0; v < n; v += rows.PageRows {
				// Only pages wholly outside the window (a boundary page
				// holds owned rows too).
				if v+rows.PageRows > int(sh.Lo) && v < int(sh.Hi) {
					continue
				}
				if zero < 0 {
					zero = v
				}
				if !ver.Z.SameRow(v, ver.Z, zero) {
					t.Fatalf("shard %d, %d edges: page of row %d outside [%d,%d) has memory of its own", i, m, v, sh.Lo, sh.Hi)
				}
			}
		}
	}
}
