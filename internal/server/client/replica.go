package client

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rows"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Replica is a read-only follower of one serving endpoint. It speaks
// one protocol, the section protocol: /v1/partition says which
// contiguous row windows exist (one per shard; a lone embedder is the
// one-section case), each section bootstraps from /v1/snapshot?shard=i
// and is then kept current by applying /v1/delta?shard=i responses —
// changed rows instead of O(nK) re-streams — falling back to a fresh
// section whenever the server answers "resync" for it. This is the read
// fan-out story: any number of replicas serve local, lock-free reads
// (the same copy-on-epoch discipline as the primary's own snapshot
// reads) while the primary pays each publish's delta once per replica,
// not each read once per network round trip.
//
// Each section's rows live in a paged row store (rows.Pages), the store
// the primary publishes its epochs in: a bootstrap or resync fills one
// section's store, and a delta copies only the pages holding a row it
// carries and shares the rest with the previous version, so a sync costs
// the rows it applies, not n×K. The replica reads binary frames whatever
// its client's Format and holds their float32 rows, the binary wire's
// documented precision; exact float64 rows are read from the primary's
// JSON routes (Client.Snapshot, SnapshotShard, Embeddings).
//
// Reads (Snapshot, Embedding) never block and are safe for any
// concurrency; Bootstrap and Sync are serialized internally, so one
// background goroutine calling Sync on a ticker is the intended use.
type Replica struct {
	c *Client

	mu  sync.Mutex // serializes Bootstrap/Sync (the only writers)
	cur atomic.Pointer[ReplicaSnapshot]

	syncs           atomic.Int64
	resyncs         atomic.Int64
	rowsApplied     atomic.Int64
	deltaBytes      atomic.Int64
	snapshotBytes   atomic.Int64
	deltaPayload    atomic.Int64
	snapshotPayload atomic.Int64

	// Observability instruments (nil until Instrument; all uses are
	// nil-guarded).
	mSyncDelta  *metrics.Histogram // Sync wall time, delta-served calls
	mSyncResync *metrics.Histogram // Sync wall time, full-bootstrap calls
	mBytesDelta *metrics.Histogram // on-wire bytes per /v1/delta response
	mBytesSnap  *metrics.Histogram // on-wire bytes per /v1/snapshot response
}

// ReplicaSnapshot is one immutable local version of the embedding.
// Identical contract to dyn.Snapshot: readers may hold it forever.
// Use Dims and CopyRow to read rows.
type ReplicaSnapshot struct {
	// Epoch is the max of Epochs, the scalar summary.
	Epoch uint64
	// Epochs is the per-shard epoch vector: Epochs[i] is the section
	// epoch shard i's rows are current at. Sections sync independently,
	// so the entries generally differ.
	Epochs shard.EpochVector
	// Instances[i] is the server-side embedder lifetime Epochs[i]
	// belongs to; Sync discards a section and refetches it when its
	// shard's instance changes (a restart resets the epoch counter, so
	// cross-instance deltas would silently corrupt the copy).
	Instances []uint64
	// Y is the label vector. Versions share it until a sync moves a
	// label. Read-only by contract.
	Y []int32
	// Edges sums the per-shard live-edge counts (a cut edge lives in
	// both owning shards, so the sum counts it twice — the same
	// convention as the server's own /statsz aggregate).
	Edges int64

	n, k int
	// secs[i] mirrors shard i's owned window. It rides the immutable
	// snapshot chain — Sync builds the next version's secs
	// copy-on-write, like the rows themselves.
	secs []section
}

// section is one shard's locally-mirrored owned row window [lo, hi):
// which global rows the shard is the authority for, the epoch and
// embedder instance those rows are current at, and the rows.
type section struct {
	lo, hi   int
	epoch    uint64
	instance uint64
	edges    int64
	// z holds the window's rows (row i is global row lo+i), each stamped
	// with the section epoch that last wrote it: the fill's epoch, which
	// is z's stamp base, or a later delta's. Labels live in
	// ReplicaSnapshot.Y, so z's are left unset.
	z *rows.Pages[float32]
}

// Dims returns the local matrix shape (rows, columns).
func (s *ReplicaSnapshot) Dims() (n, k int) { return s.n, s.k }

// CopyRow copies vertex v's row into dst, which must have length ≥ k,
// and returns dst[:k]; nil when v is out of range.
func (s *ReplicaSnapshot) CopyRow(v int, dst []float64) []float64 {
	if v < 0 || v >= s.n {
		return nil
	}
	i := 0
	for v >= s.secs[i].hi {
		i++
	}
	return s.secs[i].z.Row(v-s.secs[i].lo, dst)
}

// ReplicaStats counts what the replica has done and paid. Wire bytes
// (what actually crossed the network) and payload bytes (the decoded
// rows/labels materialized locally) are tracked separately: a sparse
// delta frame crosses the wire in a small fraction of the bytes it
// decodes into, while a dense snapshot frame IS its payload —
// conflating the two would hide exactly the figure the sparse encoding
// exists to improve.
type ReplicaStats struct {
	Epoch       uint64 // current local epoch
	Syncs       int64  // Sync calls that completed successfully
	Resyncs     int64  // syncs that refetched at least one whole section
	RowsApplied int64  // rows patched in via deltas
	// On-wire response-body bytes, by endpoint.
	DeltaBytes    int64
	SnapshotBytes int64
	// Decoded-payload bytes materialized locally: rows × k × 4 (every
	// value is a float32) plus row ids and label updates.
	DeltaPayloadBytes    int64
	SnapshotPayloadBytes int64
}

// NewReplica prepares a follower over the client. Call Bootstrap (or
// the first Sync, which bootstraps implicitly) before reading.
func NewReplica(c *Client) *Replica { return &Replica{c: c} }

// Snapshot returns the current local version, or nil before the first
// successful Bootstrap/Sync. The returned value is immutable.
func (r *Replica) Snapshot() *ReplicaSnapshot { return r.cur.Load() }

// Embedding returns a copy of vertex v's local row, or nil when the
// replica is not bootstrapped or v is out of range. Never blocks, even
// during a concurrent Sync.
func (r *Replica) Embedding(v graph.NodeID) []float64 {
	s := r.cur.Load()
	if s == nil || int(v) >= s.n {
		return nil
	}
	return s.CopyRow(int(v), make([]float64, s.k))
}

// Stats returns a copy of the counters.
func (r *Replica) Stats() ReplicaStats {
	var epoch uint64
	if s := r.cur.Load(); s != nil {
		epoch = s.Epoch
	}
	return ReplicaStats{
		Epoch:                epoch,
		Syncs:                r.syncs.Load(),
		Resyncs:              r.resyncs.Load(),
		RowsApplied:          r.rowsApplied.Load(),
		DeltaBytes:           r.deltaBytes.Load(),
		SnapshotBytes:        r.snapshotBytes.Load(),
		DeltaPayloadBytes:    r.deltaPayload.Load(),
		SnapshotPayloadBytes: r.snapshotPayload.Load(),
	}
}

// Instrument registers the replica's instruments: sync wall time split
// by outcome (a delta patch vs a full-snapshot resync — they differ by
// orders of magnitude, so one histogram would bury the delta signal),
// on-wire bytes per endpoint, and the existing counters. A process
// running several replicas should give each its own registry.
func (r *Replica) Instrument(reg *metrics.Registry) {
	r.mSyncDelta = reg.Histogram("gee_replica_sync_seconds",
		"Sync wall time by outcome (delta = row patch, resync = full snapshot).",
		metrics.DefLatencyBuckets, metrics.L("outcome", "delta"))
	r.mSyncResync = reg.Histogram("gee_replica_sync_seconds",
		"Sync wall time by outcome (delta = row patch, resync = full snapshot).",
		metrics.DefLatencyBuckets, metrics.L("outcome", "resync"))
	r.mBytesDelta = reg.Histogram("gee_replica_sync_bytes",
		"On-wire response-body bytes per sync round trip, by endpoint.",
		metrics.DefSizeBuckets, metrics.L("endpoint", "delta"))
	r.mBytesSnap = reg.Histogram("gee_replica_sync_bytes",
		"On-wire response-body bytes per sync round trip, by endpoint.",
		metrics.DefSizeBuckets, metrics.L("endpoint", "snapshot"))
	reg.CounterFunc("gee_replica_syncs_total",
		"Sync calls that completed successfully.",
		func() float64 { return float64(r.syncs.Load()) })
	reg.CounterFunc("gee_replica_resyncs_total",
		"Syncs that refetched at least one whole section.",
		func() float64 { return float64(r.resyncs.Load()) })
	reg.CounterFunc("gee_replica_rows_applied_total",
		"Rows patched in via deltas.",
		func() float64 { return float64(r.rowsApplied.Load()) })
	reg.GaugeFunc("gee_replica_epoch",
		"Current local epoch (0 before the first bootstrap).",
		func() float64 {
			if s := r.cur.Load(); s != nil {
				return float64(s.Epoch)
			}
			return 0
		})
}

// addSnapshotBytes / addDeltaBytes feed both the /statsz counters and,
// when instrumented, the per-round-trip byte histograms.
func (r *Replica) addSnapshotBytes(n int64) {
	r.snapshotBytes.Add(n)
	if r.mBytesSnap != nil {
		r.mBytesSnap.Observe(float64(n))
	}
}

func (r *Replica) addDeltaBytes(n int64) {
	r.deltaBytes.Add(n)
	if r.mBytesDelta != nil {
		r.mBytesDelta.Observe(float64(n))
	}
}

// Bootstrap (re)initializes the local copy from whole sections.
func (r *Replica) Bootstrap(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bootstrapLocked(ctx)
}

// bootstrapLocked asks /v1/partition which sections exist and fetches
// every one whole. Sections are fetched sequentially, so they may
// straddle concurrent publishes — each is internally consistent at its
// own epoch, and subsequent Syncs advance each shard independently;
// there is no cross-shard "one instant" any more than there is on the
// serving side.
func (r *Replica) bootstrapLocked(ctx context.Context) error {
	meta, err := r.c.Partition(ctx)
	if err != nil {
		return err
	}
	if _, err := shard.NewPartitionFromBounds(meta.N, meta.Bounds); err != nil ||
		len(meta.Bounds) != meta.Shards+1 || meta.K <= 0 {
		return fmt.Errorf("client: partition shape shards=%d n=%d k=%d bounds=%v",
			meta.Shards, meta.N, meta.K, meta.Bounds)
	}
	// An empty version that knows only the layout: with no delta to
	// carry anything over, every section is fetched whole.
	layout := &ReplicaSnapshot{n: meta.N, k: meta.K, secs: make([]section, meta.Shards)}
	for i := range layout.secs {
		layout.secs[i] = section{lo: int(meta.Bounds[i]), hi: int(meta.Bounds[i+1])}
	}
	return r.rebuildLocked(ctx, layout, make([]*wire.Frame, meta.Shards))
}

// sectionShapeError reports a section response whose shape disagrees
// with the partition metadata in hand — the layout changed under us
// (a restart with a different shard count or vertex range), so the
// right recovery is a full re-bootstrap, not a hard failure.
type sectionShapeError struct{ msg string }

func (e *sectionShapeError) Error() string { return e.msg }

// fetchSection fetches shard i's snapshot frame into a fresh row store
// for sec and its labels into y, and stamps sec with its epoch, instance
// and edge count, validating the frame against the window [sec.lo,
// sec.hi) and width k the partition promised (a frame has no lo field —
// the window comes from the partition alone).
func (r *Replica) fetchSection(ctx context.Context, i int, sec *section, y []int32, k int) error {
	f, n, err := r.c.readFrame(ctx, fmt.Sprintf("/v1/snapshot?shard=%d", i))
	r.addSnapshotBytes(n)
	if err != nil {
		return err
	}
	if err := snapshotFrameShape(f); err != nil {
		return err
	}
	lo, hi := sec.lo, sec.hi
	m := hi - lo
	if int(f.N) != m || int(f.K) != k {
		return &sectionShapeError{msg: fmt.Sprintf(
			"client: shard %d section frame n=%d k=%d, want window [%d,%d) k=%d", i, f.N, f.K, lo, hi, k)}
	}
	sec.z = rows.Fill(m, k, 0, m, nil, f.Epoch, 0, func(p int, pg rows.Page[float32]) {
		r0 := p * rows.PageRows
		copy(pg.Rows(), f.Rows[r0*k:min(r0+rows.PageRows, m)*k])
	})
	copy(y[lo:hi], f.Y)
	sec.epoch, sec.instance, sec.edges = f.Epoch, f.Instance, f.Edges
	r.snapshotPayload.Add(int64(m)*int64(k)*4 + int64(m)*4)
	return nil
}

// apply patches one shard's delta frame into sec — a new row store that
// copies the pages holding a delta row and shares the rest — and its
// labels into y (nil when the frame carries none), enforcing the
// owned-window contract: a delta's row ids are global but must fall
// inside the shard's window. The frame's rows are k wide (followLocked
// checked).
func (sec *section) apply(f *wire.Frame, y []int32, k int) error {
	for i, v := range f.RowIDs {
		if int(v) < sec.lo || int(v) >= sec.hi {
			return fmt.Errorf("client: delta row %d (vertex %d) outside shard window [%d,%d)",
				i, v, sec.lo, sec.hi)
		}
	}
	if len(f.RowIDs) > 0 {
		b := sec.z.Edit(f.Epoch, nil)
		for i, v := range f.RowIDs {
			u := int(v) - sec.lo
			pg, j := b.Page(u/rows.PageRows), u%rows.PageRows
			copy(pg.Rows()[j*k:(j+1)*k], f.Rows[i*k:(i+1)*k])
			pg.StampRow(j, f.Epoch)
		}
		sec.z = b.Done()
	}
	for _, l := range f.Labels {
		if int(l.V) < sec.lo || int(l.V) >= sec.hi {
			return fmt.Errorf("client: delta label vertex %d outside shard window [%d,%d)",
				l.V, sec.lo, sec.hi)
		}
		y[l.V] = l.Class
	}
	sec.epoch, sec.edges = f.Epoch, f.Edges
	return nil
}

// rebuildLocked makes and publishes the version after cur. Section i is
// fetched whole into a fresh store when deltas[i] is nil (bootstrap,
// resync, restarted shard), and otherwise is cur's store with deltas[i]
// patched in; a section with an empty delta keeps cur's store. The
// label vector is cur's until a section or a delta moves a label.
// Copy-on-epoch: readers holding cur are unaffected, and the new
// version appears atomically with every section advanced.
func (r *Replica) rebuildLocked(ctx context.Context, cur *ReplicaSnapshot, deltas []*wire.Frame) error {
	k := cur.k
	secs := slices.Clone(cur.secs)
	y, own := cur.Y, false
	labels := func() []int32 {
		if !own {
			y, own = make([]int32, cur.n), true
			copy(y, cur.Y)
		}
		return y
	}
	applied := 0
	for i := range secs {
		dl := deltas[i]
		if dl == nil {
			if err := r.fetchSection(ctx, i, &secs[i], labels(), k); err != nil {
				return err
			}
			continue
		}
		var ys []int32
		if len(dl.Labels) > 0 {
			ys = labels()
		}
		if err := secs[i].apply(dl, ys, k); err != nil {
			return err
		}
		applied += len(dl.RowIDs)
		r.deltaPayload.Add(int64(len(dl.RowIDs))*int64(k)*4 +
			int64(len(dl.RowIDs))*4 + int64(len(dl.Labels))*8)
	}
	r.rowsApplied.Add(int64(applied))
	s := &ReplicaSnapshot{
		Epochs: make(shard.EpochVector, len(secs)), Instances: make([]uint64, len(secs)),
		Y: y, n: cur.n, k: k, secs: secs,
	}
	for i, sec := range secs {
		s.Epochs[i], s.Instances[i] = sec.epoch, sec.instance
		s.Edges += sec.edges
	}
	s.Epoch = s.Epochs.Max()
	r.cur.Store(s)
	return nil
}

// Sync advances the local copy to the server's published epochs: one
// /v1/delta round trip per shard, plus a section transfer for each
// shard that demands a resync (or a full bootstrap when the replica has
// no state yet). Returns whether any whole-section transfer happened.
// Copy-on-epoch: readers holding the previous ReplicaSnapshot are
// unaffected.
func (r *Replica) Sync(ctx context.Context) (resynced bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t0 := time.Now()
	if cur := r.cur.Load(); cur == nil {
		resynced, err = true, r.bootstrapLocked(ctx)
	} else {
		resynced, err = r.followLocked(ctx, cur)
	}
	if err != nil {
		return false, err
	}
	r.syncs.Add(1)
	// Wall time goes under the outcome's histogram: a resync transfers
	// whole sections, a delta patches rows — mixing them would bury the
	// delta signal.
	h := r.mSyncDelta
	if resynced {
		r.resyncs.Add(1)
		h = r.mSyncResync
	}
	if h != nil {
		h.ObserveSince(t0)
	}
	return resynced, nil
}

// followLocked advances every section of cur. Shards resync
// independently — only a section whose server answered "resync" (or
// whose embedder instance changed: that shard restarted, and even a
// well-formed row delta would patch an unrelated base) pays a full
// section transfer, the others keep patching rows. A section whose
// shape no longer matches the stored window means the partition itself
// changed, so the whole copy re-bootstraps through a fresh
// /v1/partition probe.
func (r *Replica) followLocked(ctx context.Context, cur *ReplicaSnapshot) (resynced bool, err error) {
	deltas := make([]*wire.Frame, len(cur.secs))
	changed := false
	for i, sec := range cur.secs {
		f, n, err := r.c.readFrame(ctx, fmt.Sprintf("/v1/delta?from=%d&shard=%d", sec.epoch, i))
		r.addDeltaBytes(n)
		if err != nil {
			return false, err
		}
		switch {
		case f.Kind != wire.KindDelta:
			return false, fmt.Errorf("client: frame kind %d answering shard %d's delta request", f.Kind, i)
		case f.Resync || f.Instance != sec.instance:
			resynced, changed = true, true // deltas[i] stays nil: refetch the section
		case int(f.K) != cur.k || len(f.RowIDs) != int(f.NRows):
			return false, fmt.Errorf("client: shard %d delta frame k=%d with %d ids for %d rows, want k=%d and one id per row",
				i, f.K, len(f.RowIDs), f.NRows, cur.k)
		default:
			deltas[i] = f
			changed = changed || f.Epoch != sec.epoch
		}
	}
	if !changed {
		return false, nil // every section already current
	}
	err = r.rebuildLocked(ctx, cur, deltas)
	var shape *sectionShapeError
	if errors.As(err, &shape) {
		return true, r.bootstrapLocked(ctx)
	}
	return resynced, err
}
