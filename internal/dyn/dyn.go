// Package dyn is the dynamic embedding service of the GEE reproduction:
// a DynamicEmbedder maintains a One-Hot Graph Encoder Embedding under
// edge insertions, edge deletions, and incremental label changes, while
// serving concurrent readers from epoch-versioned snapshots.
//
// The paper's one-pass formulation makes this possible: Z is a sum of
// independent per-edge contributions, so an inserted edge folds in with
// the same two half-updates as the batch algorithm and a deleted edge
// folds the same contribution with negated sign. The subtlety is the
// 1/n_k projection coefficients — a label change alters class counts,
// which rescales every contribution of the two affected classes. The
// embedder therefore accumulates the *unnormalized* per-class sums U
// (coefficient 1 per labeled endpoint): column c of U only receives
// mass keyed by class-c endpoints, so the exact embedding is recovered
// as Z(·,c) = U(·,c)/n_c, and a label change reduces to sliding the
// vertex's raw incident-edge mass between two columns (O(degree), via a
// maintained adjacency) plus a count update. Class counts entering only
// where a row is read is what keeps the coefficients exact under any
// interleaving of operations.
//
// Writers are serialized by an internal lock and route edge folds
// through internal/exec by one rule: a small batch folds serially, a
// large one owner-computes on the contention-free sharded backend,
// bucketing each batch in O(batch) against a shard layout cached across
// batches so every row has one writer. Readers
// never take the lock: Query, Version and Snapshot read an atomically
// published immutable version, so queries stay consistent while ingest
// continues.
//
// A version is a paged, copy-on-write store of U's raw rows and the
// labels, plus the epoch's 1/n_k vector (rows.Pages, the store a
// follower keeps too), normalised where a row is read. A row is dirty
// only when the fold or a relabel walk actually wrote it — an edge
// writes an endpoint's row only when the other endpoint is labelled —
// and a label only when it moved, so a publish
// shares the previous version's pages and copies only those holding a
// dirty row or label: O(dirty pages), not O(nK). A count-changing
// relabel is no exception (it brings a new 1/n_k vector, and the pages
// of the rows its walk wrote); only when so many pages are dirty that
// one sweep is cheaper is the whole owned window copied. Each row and
// label is stamped with the epoch that wrote it: see Delta.
package dyn

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/rows"
)

// Options configures a DynamicEmbedder. The Laplacian variant is not
// supported dynamically: its 1/sqrt(deg) scale changes with every batch.
type Options struct {
	// K is the number of classes (embedding width). Zero infers
	// 1 + max(y) from the initial labels.
	K int
	// Workers bounds parallelism for folds and publishes; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// ManualPublish suppresses the automatic publish after every Apply;
	// the caller batches visibility with explicit Publish calls. A
	// publish costs O(dirty pages), so this is about when readers see a
	// change, not about saving a matrix copy per batch.
	ManualPublish bool
	// OwnedLo/OwnedHi restrict the published window to the vertex range
	// [OwnedLo, OwnedHi): folds still span the full vertex range (an
	// edge's contribution lands in both endpoint rows regardless of
	// ownership), but the published rows and labels, and so the dirty
	// tracking and deltas, cover only the owned vertices — rows outside
	// the window stay zero, and labels unknown, in every version. Both
	// zero means the full
	// range. This is the sharded serving tier's partition hook
	// (internal/shard); a standalone embedder leaves it unset.
	OwnedLo, OwnedHi int
}

// shardedFoldMin is the batch size (in folded edges) from which a fold
// with more than one worker owner-computes over the sharded edge plan; a
// smaller batch folds serially. An insert-only Apply's rate on 2 vCPUs
// at the serving scale (n = 100k, K = 10, 700k edges;
// BenchmarkFoldPaths), Medges/s, serial against owner-computes on two
// workers: 6.8-7.6 against 5.2-5.6 at 4096 edges, 7.0-7.3 against 5.7-6.3 at 8192, 8.0-9.0 against
// 6.6-6.8 at 16384. Serial won every run up to 16384 edges; from 32768
// to 131072 the two paths read 6.5-8.5 each, run to run, and the
// cut-over sits inside that band.
const shardedFoldMin = 65536

// LabelUpdate reassigns vertex V to Class (labels.Unknown removes the
// label).
type LabelUpdate struct {
	V     graph.NodeID
	Class int32
}

// Batch is one atomic unit of ingest, applied in field order: deletions
// first, then insertions, then label updates. A reader never observes a
// partially applied batch.
type Batch struct {
	Insert []graph.Edge
	Delete []graph.Edge
	Labels []LabelUpdate
}

// Version is one published, immutable version of the embedding, its
// rows held in copy-on-write pages shared with neighbouring epochs.
// Readers may hold it indefinitely; it is never mutated after publish.
// This is what every publish produces and what the serving tier reads.
type Version struct {
	// Epoch is the version counter (0 = the empty initial version).
	Epoch uint64
	// Instance identifies the embedder lifetime that produced this
	// version: epochs are only comparable within one instance, so a
	// follower that sees the instance change must resync rather than
	// apply deltas across the restart.
	Instance uint64
	// Z is the n×K embedding and the labels at publish time: U's raw
	// rows and this epoch's 1/n_k, normalised as they are read (Row,
	// Rows, Dense), and each vertex's class (Label, Labels). Rows
	// outside the embedder's owned window read zero, and their labels
	// unknown.
	Z *rows.Pages[float64]
	// Edges is the number of live edges folded into Z.
	Edges int64

	// invEpoch is the epoch whose class counts Z's 1/n_k vector holds: a
	// delta from before it would rescale every served row of two columns.
	invEpoch uint64

	once  sync.Once
	snap  *Snapshot
	views *atomic.Int64 // the embedder's DenseViews counter (nil for a hand-built Version)
}

// Snapshot returns the version with Z as one contiguous matrix and Y as
// one label vector, gathered from the pages once per version and then
// shared by every caller. It is an O(nK) gather of normalised rows, so
// only code that scans the whole matrix (neighbor search, index builds)
// should ask for it.
func (v *Version) Snapshot() *Snapshot {
	v.once.Do(func() {
		y := make([]int32, v.Z.R)
		v.Z.Labels(0, v.Z.R, y)
		v.snap = &Snapshot{Epoch: v.Epoch, Instance: v.Instance, Z: v.Z.Dense(), Y: y, Edges: v.Edges}
		if v.views != nil {
			v.views.Add(1)
		}
	})
	return v.snap
}

// Snapshot is the contiguous form of a Version (see Version.Snapshot).
// Readers may hold it indefinitely; it is never mutated.
type Snapshot struct {
	// Epoch is the version counter (0 = the empty initial version).
	Epoch uint64
	// Instance identifies the embedder lifetime that produced this
	// snapshot: epochs are only comparable within one instance, so a
	// follower that sees the instance change must resync rather than
	// apply deltas across the restart.
	Instance uint64
	// Z is the normalized n×K embedding. Read-only by contract.
	Z *mat.Dense
	// Y is the label vector at publish time. Read-only by contract.
	Y []int32
	// Edges is the number of live edges folded into Z.
	Edges int64
}

// Stats counts what the embedder has done so far.
type Stats struct {
	Epoch        uint64
	LiveEdges    int64
	Inserts      int64
	Deletes      int64
	LabelMoves   int64 // applied label updates (no-op reassignments excluded)
	Batches      int64
	AtomicFolds  int64 // always 0: no batch folds with atomic adds; the benchmark still reads it (ROADMAP item 5 removes it)
	ShardedFolds int64 // batches folded through the sharded edge plan
	SerialFolds  int64 // batches folded serially (under 65536 folded edges, or one worker)
	Publishes    int64 // published versions (excluding the epoch-0 bootstrap)
	DenseViews   int64 // versions whose contiguous Snapshot was derived (see Version.Snapshot)
}

// halfEdge is one incident arc endpoint: the *other* vertex's row
// receives this vertex's class contribution, so a label change walks
// exactly this list.
type halfEdge struct {
	v graph.NodeID
	w float32
}

// removal is one half-edge a delete detached: the list it left and the
// slot it sat in, so a failed batch can put it back exactly there.
type removal struct {
	u  graph.NodeID
	i  int32
	he halfEdge
}

// DynamicEmbedder maintains a GEE embedding under churn. All writer
// methods (Apply and its convenience wrappers, Publish) are safe for
// concurrent use with each other and with readers; Query and Snapshot
// never block on writers.
type DynamicEmbedder struct {
	n, k     int
	workers  int
	manual   bool
	instance uint64
	// Owned row window [ownLo, ownHi): publish/delta restriction (see
	// Options.OwnedLo). Full range for a standalone embedder.
	ownLo, ownHi int

	mu     sync.Mutex // serializes writers over the mutable state below
	y      []int32
	counts []int64
	adj    [][]halfEdge // incident half-edges of each vertex
	u      *mat.Dense   // unnormalized per-class sums
	// rowAt[v] and yAt[v] are the epochs that last wrote row v and v's
	// label (mark); pages carry them as offsets from stampBase.
	rowAt, yAt []uint64
	stampBase  uint64
	lent       bool // u.Data, y, rowAt and yAt are the current version's store: copy before writing (own)
	kern       exec.Kernel[float64]
	plan       *exec.EdgePlan // lazily built sharded layout, reused per batch
	edges      int64
	scratch    []graph.Edge // negated-delete + insert fold buffer
	detached   []removal    // halves detachDeletes removed, for undoDetach
	touched    uint32       // sum of detachDeletes' touch loads, kept so the compiler keeps them
	sincePub   int64        // ops folded since the last publish (PendingOps)
	stats      Stats

	// Dirty tracking since the last publish (all under mu): it decides
	// what a publish copies.
	dirty     []graph.NodeID // vertices whose row or label the next publish stamps (mark), each once
	pageMark  []uint64       // pageMark[p] == the publishing epoch ⇔ page p already in pageBuf
	pageBuf   []int32        // publish scratch: pages holding a dirty row or label
	pubCounts []int64        // class counts at the last publish

	// foldHook, when non-nil, replaces the exec fold — tests inject
	// failures to exercise Apply's nothing-is-applied contract.
	foldHook func(del, ins []graph.Edge) error
	// shardedMin is the fold cut-over, shardedFoldMin; tests lower it to
	// force owner-computes on small batches.
	shardedMin int

	// publishHook, when non-nil, observes every published epoch and
	// how long the publish took. The serving layer's coalescer uses it
	// to split publish time out of the fold span when auto-publish
	// runs inside Apply. Called under mu; keep it cheap.
	publishHook func(epoch uint64, dur time.Duration)

	// Observability instruments (nil until Instrument; all guarded by
	// mu like the state they measure).
	mPublish    *metrics.Histogram // publish (copy + version) latency
	mDirtyRows  *metrics.Histogram // dirty vertices per published epoch
	mCopied     *metrics.Histogram // rows copied into fresh pages per published epoch
	mFullEpochs *metrics.Counter   // epochs that moved class counts

	denseViews atomic.Int64 // Stats.DenseViews
	cur        atomic.Pointer[Version]
}

// Instrument registers the embedder's instruments on reg: publish
// latency, dirty and copied rows per epoch, count-changing epochs, and
// folds by path. Call at most once per registry and label set
// (the serving layer does this when it adopts the embedder; a sharded
// server passes a distinct shard label per embedder so N shards'
// series coexist on one registry); publishes before Instrument simply
// go unmeasured.
func (d *DynamicEmbedder) Instrument(reg *metrics.Registry, labels ...metrics.Label) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mPublish = reg.Histogram("gee_dyn_publish_seconds",
		"Latency of publishing one epoch (copy U's dirty rows and version the snapshot).",
		metrics.DefLatencyBuckets, labels...)
	d.mDirtyRows = reg.Histogram("gee_dyn_publish_dirty_rows",
		"Vertices whose row or label changed in one published epoch (every row when class counts moved).",
		metrics.DefCountBuckets, labels...)
	d.mCopied = reg.Histogram("gee_dyn_publish_rows_normalized",
		"Rows copied into fresh pages in one published epoch (dirty pages x page height, or every owned row on a full rebuild).",
		metrics.DefCountBuckets, labels...)
	d.mFullEpochs = reg.Counter("gee_dyn_full_epochs_total",
		"Published epochs that moved class counts (every served row of two columns rescaled; followers must resync across them).",
		labels...)
	reg.GaugeFunc("gee_dyn_epoch",
		"Currently published epoch.",
		func() float64 { return float64(d.Epoch()) },
		labels...)
	for _, p := range []struct {
		path  string
		count func(Stats) int64
	}{
		{"serial", func(s Stats) int64 { return s.SerialFolds }},
		{"sharded", func(s Stats) int64 { return s.ShardedFolds }},
	} {
		reg.CounterFunc("gee_dyn_folds_total",
			"Batches folded into U, by the exec path that folded them.",
			func() float64 { return float64(p.count(d.Stats())) },
			append(labels[:len(labels):len(labels)], metrics.L("path", p.path))...)
	}
}

// New prepares an embedder for n vertices with the given initial labels
// (labels.Unknown for unlabeled vertices) and publishes the empty epoch-0
// snapshot.
func New(n int, y []int32, opts Options) (*DynamicEmbedder, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dyn: %d vertices", n)
	}
	if len(y) != n {
		return nil, fmt.Errorf("dyn: %d labels for %d vertices", len(y), n)
	}
	k := opts.K
	if k == 0 {
		for _, v := range y {
			if int(v)+1 > k {
				k = int(v) + 1
			}
		}
	}
	if k <= 0 {
		return nil, fmt.Errorf("dyn: no labeled vertices and K unset")
	}
	if err := labels.Validate(y, k); err != nil {
		return nil, err
	}
	workers := parallel.Workers(opts.Workers)
	ownLo, ownHi := opts.OwnedLo, opts.OwnedHi
	if ownLo == 0 && ownHi == 0 {
		ownHi = n
	}
	if ownLo < 0 || ownLo >= ownHi || ownHi > n {
		return nil, fmt.Errorf("dyn: owned range [%d,%d) outside [0,%d)", ownLo, ownHi, n)
	}
	yc := append([]int32(nil), y...)
	d := &DynamicEmbedder{
		n: n, k: k, workers: workers,
		instance:   newInstanceID(),
		manual:     opts.ManualPublish,
		shardedMin: shardedFoldMin,
		ownLo:      ownLo,
		ownHi:      ownHi,
		y:          yc,
		counts:     parallel.Histogram(workers, n, k, func(i int) int { return int(yc[i]) }),
		adj:        make([][]halfEdge, n),
		u:          mat.NewDense(n, k),
		rowAt:      make([]uint64, n),
		yAt:        make([]uint64, n),
		// U holds raw sums, so every class weighs 1 in the fold kernel;
		// readers apply 1/n_k when they normalise.
		kern:      exec.NewKernel(k, yc, slices.Repeat([]float64{1}, k), nil),
		pageMark:  make([]uint64, (n+rows.PageRows-1)/rows.PageRows),
		pubCounts: make([]int64, k),
	}
	d.publishLocked()
	return d, nil
}

// instanceCounter distinguishes embedders created within the same
// nanosecond of one process.
var instanceCounter atomic.Uint64

// newInstanceID tags one embedder lifetime. It only needs to differ
// across restarts and coexisting embedders — wall-clock nanoseconds
// salted with a process-local counter — so a follower never mistakes a
// fresh history's epochs for its own.
func newInstanceID() uint64 {
	return uint64(time.Now().UnixNano()) ^ (instanceCounter.Add(1) << 48)
}

// Instance returns the embedder's lifetime identity (see
// Snapshot.Instance).
func (d *DynamicEmbedder) Instance() uint64 { return d.instance }

// Owned returns the published row window [lo, hi) (see Options.OwnedLo);
// the full range for a standalone embedder.
func (d *DynamicEmbedder) Owned() (lo, hi int) { return d.ownLo, d.ownHi }

// owned reports whether vertex v's row is published by this embedder.
func (d *DynamicEmbedder) owned(v graph.NodeID) bool {
	return int(v) >= d.ownLo && int(v) < d.ownHi
}

// N returns the vertex count.
func (d *DynamicEmbedder) N() int { return d.n }

// K returns the embedding width.
func (d *DynamicEmbedder) K() int { return d.k }

// Epoch returns the currently published version.
func (d *DynamicEmbedder) Epoch() uint64 { return d.cur.Load().Epoch }

// Stats returns a copy of the operation counters.
func (d *DynamicEmbedder) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	st.Epoch = d.cur.Load().Epoch
	st.LiveEdges = d.edges
	st.DenseViews = d.denseViews.Load()
	return st
}

// PendingOps returns the number of operations applied since the last
// publish: zero means the published snapshot reflects every completed
// Apply. (Another writer may race new applies against this read; a
// single-writer caller — like the serving layer's ingest coalescer —
// gets an exact answer.)
func (d *DynamicEmbedder) PendingOps() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sincePub
}

// Version returns the currently published version in O(1). The returned
// value is immutable and consistent: every batch is either fully
// reflected or not at all.
func (d *DynamicEmbedder) Version() *Version { return d.cur.Load() }

// Snapshot returns the currently published version with a contiguous Z
// (see Version.Snapshot for what that costs).
func (d *DynamicEmbedder) Snapshot() *Snapshot { return d.cur.Load().Snapshot() }

// Query returns a copy of vertex v's embedding row in the currently
// published version, or nil when v is out of range.
func (d *DynamicEmbedder) Query(v graph.NodeID) []float64 {
	z := d.cur.Load().Z
	if int(v) >= z.R {
		return nil
	}
	return z.Row(int(v), make([]float64, z.C))
}

// Apply folds one batch into the embedding: deletions, then insertions,
// then label updates. A deleted edge must match a live edge exactly
// (same orientation and weight). On error nothing is applied. Unless
// the embedder is in manual-publish mode, the new version is published
// before Apply returns.
func (d *DynamicEmbedder) Apply(b Batch) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.validate(&b); err != nil {
		return err
	}
	// Deletions detach from the adjacency first — this is also the
	// existence check — so a missing edge aborts before any fold.
	if err := d.detachDeletes(b.Delete); err != nil {
		return err
	}
	// Fold deletions (negated) and insertions in one pass under the
	// current labels; label updates below move any of this mass that
	// their vertex keys.
	d.own()
	if err := d.fold(b.Delete, b.Insert); err != nil {
		// The deletions were already detached above; without putting
		// them back, a failed fold would leave the adjacency missing
		// edges whose mass is still in U — "on error nothing is
		// applied" demands the undo.
		d.undoDetach()
		return err
	}
	d.detached = d.detached[:0]
	for _, e := range b.Insert {
		d.adj[e.U] = append(d.adj[e.U], halfEdge{v: e.V, w: e.W})
		d.adj[e.V] = append(d.adj[e.V], halfEdge{v: e.U, w: e.W})
	}
	// Under the labels the fold ran with, before the updates below move
	// them.
	for _, e := range b.Delete {
		d.markWritten(e)
	}
	for _, e := range b.Insert {
		d.markWritten(e)
	}
	moved := -d.stats.LabelMoves
	for _, lu := range b.Labels {
		d.relabel(lu.V, lu.Class)
	}
	moved += d.stats.LabelMoves
	d.edges += int64(len(b.Insert)) - int64(len(b.Delete))
	d.stats.Inserts += int64(len(b.Insert))
	d.stats.Deletes += int64(len(b.Delete))
	d.stats.Batches++
	d.sincePub += int64(len(b.Insert)) + int64(len(b.Delete)) + moved
	if !d.manual {
		d.publishLocked()
	}
	return nil
}

// Publish makes all applied batches visible as a new version. Only
// needed in manual-publish mode; otherwise every Apply publishes.
func (d *DynamicEmbedder) Publish() *Version {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.publishLocked()
}

// validate checks every operation of the batch before any mutation.
func (d *DynamicEmbedder) validate(b *Batch) error {
	if i := graph.FirstInvalidEdge(d.workers, d.n, b.Insert); i >= 0 {
		e := b.Insert[i]
		return fmt.Errorf("dyn: insert %d (%d->%d) out of range [0,%d)", i, e.U, e.V, d.n)
	}
	if i := graph.FirstInvalidEdge(d.workers, d.n, b.Delete); i >= 0 {
		e := b.Delete[i]
		return fmt.Errorf("dyn: delete %d (%d->%d) out of range [0,%d)", i, e.U, e.V, d.n)
	}
	for i, lu := range b.Labels {
		if int(lu.V) >= d.n {
			return fmt.Errorf("dyn: label update %d: vertex %d out of range [0,%d)", i, lu.V, d.n)
		}
		if lu.Class < labels.Unknown || int(lu.Class) >= d.k {
			return fmt.Errorf("dyn: label update %d: class %d outside [-1,%d)", i, lu.Class, d.k)
		}
	}
	return nil
}

// detachGroup is how many deletes detachDeletes touches before it
// detaches them. Removing a half is a scan of a cache-cold list, so a
// delete-at-a-time detach waits on one miss after another; touching a
// group's lists first puts their misses in flight together. A 4096-edge
// delete at the serving scale on 2 vCPUs (BenchmarkDynamicDelete in
// publish_bench_test.go, which times the serial fold too), ns per
// deleted edge over a block-shaped base graph: 414-451 untouched;
// touching groups of 1, 4, 8, 16, 32 and 64 deletes, 362-391, 252-285,
// 229-255, 225-247, 232-266 and 223-259. Over the benchmark's uniform
// base graph, groups of 1, 4, 16 and 64 read 485-637, 347-411, 321-353
// and 297-357.
const detachGroup = 16

// detachDeletes removes each deleted edge from the adjacency, undoing
// every removal on a miss so a failed batch leaves no trace. It works
// through the batch a group at a time, touching the group's lists
// before it detaches the group in batch order, so every list ends as a
// delete-at-a-time detach leaves it.
func (d *DynamicEmbedder) detachDeletes(del []graph.Edge) error {
	for lo := 0; lo < len(del); lo += detachGroup {
		group := del[lo:min(lo+detachGroup, len(del))]
		for _, e := range group {
			d.touched += touch(d.adj[e.U]) + touch(d.adj[e.V])
		}
		for i, e := range group {
			if !d.removeHalf(e.U, e.V, e.W) || !d.removeHalf(e.V, e.U, e.W) {
				d.undoDetach()
				return fmt.Errorf("dyn: delete %d: edge (%d->%d, w=%g) not live", lo+i, e.U, e.V, e.W)
			}
		}
	}
	return nil
}

// halvesPerLine is how many 8-byte halfEdges share a 64-byte cache line.
const halvesPerLine = 64 / 8

// touch makes one plain load per cache line of list, and one of its
// last entry (a list need not start on a line boundary). The loads do
// not depend on each other, so their misses overlap; Go has no prefetch
// intrinsic, and the returned sum keeps them from being optimised away.
//
//gee:noalloc
func touch(list []halfEdge) uint32 {
	if len(list) == 0 {
		return 0
	}
	s := list[len(list)-1].v
	for i := 0; i < len(list); i += halvesPerLine {
		s += list[i].v
	}
	return s
}

// removeHalf swap-deletes one (v, w) entry from adj[u], recording where
// it sat.
func (d *DynamicEmbedder) removeHalf(u, v graph.NodeID, w float32) bool {
	list := d.adj[u]
	for i := range list {
		if list[i].v == v && list[i].w == w {
			d.detached = append(d.detached, removal{u: u, i: int32(i), he: list[i]})
			list[i] = list[len(list)-1]
			d.adj[u] = list[:len(list)-1]
			return true
		}
	}
	return false
}

// undoDetach puts back every half detachDeletes removed, newest first:
// the half's slot holds the list's former last entry, which moves back
// to the end. Each list ends element for element as it was, so a later
// relabel walks it — and rounds its -=/+= — in the same order as an
// embedder that never saw the failed batch.
func (d *DynamicEmbedder) undoDetach() {
	for j := len(d.detached) - 1; j >= 0; j-- {
		r := d.detached[j]
		list := append(d.adj[r.u], r.he)
		last := len(list) - 1
		list[r.i], list[last] = r.he, list[r.i]
		d.adj[r.u] = list
	}
	d.detached = d.detached[:0]
}

// own gives the embedder private U, label and stamp arrays again when a
// rebuild lent them to the published version (see rebuildPages). Every
// write to them comes after it.
func (d *DynamicEmbedder) own() {
	if d.lent {
		d.u.Data = slices.Clone(d.u.Data)
		d.y = slices.Clone(d.y)
		d.kern.SrcCol, d.kern.DstCol = d.y, d.y
		d.rowAt, d.yAt = slices.Clone(d.rowAt), slices.Clone(d.yAt)
		d.lent = false
	}
}

// fold applies the deletions (negated) and insertions to U through the
// exec layer: serially below shardedMin folded edges or on one worker,
// otherwise owner-computes over the sharded edge plan.
func (d *DynamicEmbedder) fold(del, ins []graph.Edge) error {
	if d.foldHook != nil {
		return d.foldHook(del, ins)
	}
	total := len(del) + len(ins)
	if total == 0 {
		return nil
	}
	if cap(d.scratch) < total {
		d.scratch = make([]graph.Edge, total)
	}
	fold := d.scratch[:0]
	for _, e := range del {
		fold = append(fold, graph.Edge{U: e.U, V: e.V, W: -e.W})
	}
	fold = append(fold, ins...)
	d.scratch = fold
	if d.workers <= 1 || total < d.shardedMin {
		d.stats.SerialFolds++
		_, err := exec.SerialEdges(d.kern, fold, d.n, d.u.Data)
		return err
	}
	if d.plan == nil {
		plan, err := exec.NewEdgePlan(d.n, d.workers)
		if err != nil {
			return err
		}
		d.plan = plan
	}
	d.stats.ShardedFolds++
	_, err := exec.ShardedEdges(d.kern, fold, d.u.Data, d.plan, d.workers)
	return err
}

// relabel moves vertex v from its current class to class: the raw mass
// v contributes along its incident edges slides from the old column to
// the new one in the neighbors' rows, and the class counts shift so the
// 1/n_k normalization readers apply stays exact.
func (d *DynamicEmbedder) relabel(v graph.NodeID, class int32) {
	old := d.y[v]
	if old == class {
		return
	}
	k := d.k
	for _, he := range d.adj[v] {
		row := int(he.v) * k
		w := float64(he.w)
		if old >= 0 {
			d.u.Data[row+int(old)] -= w
		}
		if class >= 0 {
			d.u.Data[row+int(class)] += w
		}
	}
	// Every neighbor's row slid mass between columns (v's own row is
	// keyed by its neighbors' classes and does not move); those rows and
	// v's label are all the publish copies. The count shift below only
	// brings a new 1/n_k vector — but it rescales two whole columns of
	// every served row, so a delta across it answers resync unless a
	// later move restores the counts exactly.
	for _, he := range d.adj[v] {
		d.mark(he.v, d.rowAt)
	}
	d.mark(v, d.yAt)
	if old >= 0 {
		d.counts[old]--
	}
	if class >= 0 {
		d.counts[class]++
	}
	d.y[v] = class
	d.stats.LabelMoves++
}

// publishLocked is the one publish routine: it derives the next
// version's pages from U, the labels and their stamps, and atomically
// publishes them as the next epoch. Earlier versions stay valid for
// readers still holding them.
//
// A version stores U's raw rows, and a raw row changes only when the
// fold or a relabel walk wrote it (it is in the dirty set). So the new
// version is the previous one's page table with the dirty pages copied
// fresh from U; every other page is shared, and a class-count change
// costs only the new 1/n_k vector. Only the first publish and a write
// dirtying so many pages that copying them one by one would cost more
// than one sweep copy the whole owned window. Every reader applies the
// same src[c]*inv[c] product to the same raw bits, so which path
// produced a row is invisible in what it serves.
func (d *DynamicEmbedder) publishLocked() *Version {
	t0 := time.Now()
	prev := d.cur.Load()
	v := &Version{Instance: d.instance, Edges: d.edges, views: &d.denseViews}
	if prev != nil {
		v.Epoch = prev.Epoch + 1
	}
	var dirty []int32
	patch := prev != nil
	if patch {
		dirty, patch = d.dirtyPagesLocked(v.Epoch)
	}
	// The publish whose stamp would overflow a page's 32-bit offset
	// rebuilds every page against a new base, once per 2^32 epochs.
	if v.Epoch-d.stampBase > math.MaxUint32 {
		d.stampBase, patch = v.Epoch-1, false
	}
	countsMoved := !slices.Equal(d.counts, d.pubCounts)
	var inv []float64
	if prev != nil && !countsMoved {
		inv, v.invEpoch = prev.Z.Scale(), prev.invEpoch
	} else {
		inv, v.invEpoch = make([]float64, d.k), v.Epoch
		for c, n := range d.counts {
			if n > 0 {
				inv[c] = 1 / float64(n)
			}
		}
	}
	copied := d.ownHi - d.ownLo
	if patch {
		v.Z = d.patchPages(prev.Z, dirty, v.Epoch, inv)
		copied = len(dirty) * rows.PageRows
	} else {
		v.Z = d.rebuildPages(inv)
	}
	if prev != nil {
		d.stats.Publishes++
		if d.mDirtyRows != nil {
			// A count change rescaled two whole columns of every row;
			// record it as such so the distribution reflects what a
			// follower would have to fetch.
			dirtyRows := len(d.dirty)
			if countsMoved {
				dirtyRows = d.n
				d.mFullEpochs.Inc()
			}
			d.mDirtyRows.Observe(float64(dirtyRows))
			d.mCopied.Observe(float64(copied))
		}
	}
	copy(d.pubCounts, d.counts)
	d.dirty = d.dirty[:0]
	d.sincePub = 0
	d.cur.Store(v)
	if d.mPublish != nil {
		d.mPublish.ObserveSince(t0)
	}
	if d.publishHook != nil {
		d.publishHook(v.Epoch, time.Since(t0))
	}
	return v
}

// dirtyPagesLocked lists the pages holding a dirty row or label. ok is
// false when patching them one by one would not pay: more than an eighth
// of the owned pages are dirty. Measured at n=100k, K=10 on two cores,
// patching every eighth page takes ~0.37 ms and allocates 1.6 MB against
// ~0.87 ms and 8 MB for copying the whole window, so by time the two
// meet near a third of the pages; the rule stops earlier because the
// sweep also leaves the rows contiguous and needs no page table. A
// 4096-edge batch there, at 20% labelled, writes ~6% of the pages and is
// patched.
func (d *DynamicEmbedder) dirtyPagesLocked(epoch uint64) (pages []int32, ok bool) {
	limit := ((d.ownHi+rows.PageRows-1)/rows.PageRows - d.ownLo/rows.PageRows) / 8
	pages = d.pageBuf[:0]
	for _, v := range d.dirty {
		p := int32(v / rows.PageRows)
		if d.pageMark[p] == epoch {
			continue
		}
		if len(pages) >= limit {
			return nil, false
		}
		d.pageMark[p] = epoch
		pages = append(pages, p)
	}
	d.pageBuf = pages
	return pages, true
}

// rebuildPages makes a version of the whole owned window at once. An
// embedder that owns every row lends its U, label and stamp arrays
// themselves as the store (no page table: the next patch cuts one, once)
// and takes private copies on its next write (own) — the copy a rebuild
// would make, only later, and never made on a server nobody writes to
// after its bulk load, which then holds one n×K array of sums instead of
// two. A shard fills the window's pages (rows.Fill: one allocation per
// few thousand rows), and every page outside the window is the store's
// shared zero page, so it allocates its window, not n×K.
func (d *DynamicEmbedder) rebuildPages(inv []float64) *rows.Pages[float64] {
	if d.ownLo == 0 && d.ownHi == d.n {
		d.lent = true
		return rows.Flat(d.k, d.u.Data, d.y, d.rowAt, d.yAt, inv, d.stampBase)
	}
	return rows.Fill(d.n, d.k, d.ownLo, d.ownHi, inv, d.stampBase, d.workers, d.fillPage)
}

// patchPages returns prev with the dirty pages replaced by fresh copies
// of their rows of U, their labels and their stamps; every other page,
// and every chunk of the table without a dirty page, is shared. Each
// page is its own pointer-free allocation, so that a version superseded
// page by page is also collected page by page. The grain keeps a small
// write's few pages on the publishing goroutine (measured: a second
// worker only pays from a few thousand rows up).
func (d *DynamicEmbedder) patchPages(prev *rows.Pages[float64], dirty []int32, epoch uint64, inv []float64) *rows.Pages[float64] {
	b := prev.Edit(epoch, inv)
	for _, p := range dirty {
		b.Touch(int(p))
	}
	parallel.ForChunk(d.workers, len(dirty), 4096/rows.PageRows, func(lo, hi int) {
		for _, p := range dirty[lo:hi] {
			d.fillPage(int(p), b.Fresh(int(p)))
		}
	})
	return b.Done()
}

// fillPage writes page p's owned rows of U, their labels and their
// stamps into pg; every other row of the page stays zero, unlabelled and
// never written (U holds partial sums there — cut-edge mass whose
// authoritative copy is another shard's — that are never published).
func (d *DynamicEmbedder) fillPage(p int, pg rows.Page[float64]) {
	k, r0 := d.k, p*rows.PageRows
	u0, u1 := max(r0, d.ownLo), min(r0+rows.PageRows, d.ownHi)
	copy(pg.Rows()[(u0-r0)*k:(u1-r0)*k], d.u.Data[u0*k:u1*k])
	for v := u0; v < u1; v++ {
		pg.SetLabel(v-r0, d.y[v])
		pg.StampRow(v-r0, d.rowAt[v])
		pg.StampLabel(v-r0, d.yAt[v])
	}
}

// SetPublishHook installs a callback invoked after every published
// epoch with the epoch number and the publish duration (copy +
// version). The hook runs with the embedder's writer lock held, so it
// must be cheap and must not call back into the embedder. Pass nil to
// clear. At most one hook is supported; the serving coalescer owns it.
func (d *DynamicEmbedder) SetPublishHook(h func(epoch uint64, dur time.Duration)) {
	d.mu.Lock()
	d.publishHook = h
	d.mu.Unlock()
}
