package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/server"
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
// Over a Binary-format client the local matrix is float32, the binary
// wire's documented precision: section frames are copied into it as
// they arrive and deltas patch copy-on-write versions.
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
// Use Dims and CopyRow to read rows — they work for both storage
// representations (see Z).
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
	// Z is the float64 copy of the embedding held by a JSON-format
	// client; nil for a Binary-format one (float32 rows).
	Z *mat.Dense
	// Y is the label vector.
	Y []int32
	// Edges sums the per-shard live-edge counts (a cut edge lives in
	// both owning shards, so the sum counts it twice — the same
	// convention as the server's own /statsz aggregate).
	Edges int64

	z32  []float32 // row-major n×k; set exactly when Z is nil
	n, k int
	// secs[i] mirrors shard i's owned window. It rides the immutable
	// snapshot chain — Sync builds the next version's secs
	// copy-on-write, like the matrix itself.
	secs []section
}

// section is one shard's locally-mirrored owned row window [lo, hi):
// which global rows the shard is the authority for, and the epoch and
// embedder instance those rows are current at.
type section struct {
	lo, hi   int
	epoch    uint64
	instance uint64
	edges    int64
}

// Dims returns the local matrix shape (rows, columns).
func (s *ReplicaSnapshot) Dims() (n, k int) { return s.n, s.k }

// CopyRow copies vertex v's row into dst, which must have length ≥ k,
// and returns dst[:k]; nil when v is out of range. Binary-backed rows
// widen float32 → float64 exactly, so two reads of the same version
// always agree bit-for-bit.
func (s *ReplicaSnapshot) CopyRow(v int, dst []float64) []float64 {
	if v < 0 || v >= s.n {
		return nil
	}
	dst = dst[:s.k]
	if s.Z != nil {
		copy(dst, s.Z.Row(v))
		return dst
	}
	for j, x := range s.z32[v*s.k : (v+1)*s.k] {
		dst[j] = float64(x)
	}
	return dst
}

// ReplicaStats counts what the replica has done and paid. Wire bytes
// (what actually crossed the network) and payload bytes (the decoded
// rows/labels materialized locally) are tracked separately: a sparse
// binary delta crosses the wire in a small fraction of the bytes it
// decodes into, JSON text sits much closer to its payload, and the
// dense binary snapshot IS its payload — conflating the two would
// hide exactly the figure the binary format exists to improve.
type ReplicaStats struct {
	Epoch       uint64 // current local epoch
	Syncs       int64  // Sync calls that completed successfully
	Resyncs     int64  // syncs that refetched at least one whole section
	RowsApplied int64  // rows patched in via deltas
	// On-wire response-body bytes, by endpoint.
	DeltaBytes    int64
	SnapshotBytes int64
	// Decoded-payload bytes materialized locally: rows × k × element
	// size (8 for float64 storage, 4 for float32) plus row ids and
	// label updates.
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
	return r.rebuildLocked(ctx, layout, make([]*server.DeltaResponse, meta.Shards))
}

// sectionShapeError reports a section response whose shape disagrees
// with the partition metadata in hand — the layout changed under us
// (a restart with a different shard count or vertex range), so the
// right recovery is a full re-bootstrap, not a hard failure.
type sectionShapeError struct{ msg string }

func (e *sectionShapeError) Error() string { return e.msg }

// sectionBody is one fetched snapshot section in whichever encoding the
// server answered: frame for a binary answer (its float32 rows are
// copied straight into the assembly — no float64 detour), the embedded
// response for JSON (a server may always answer JSON; content
// negotiation is outside input).
type sectionBody struct {
	server.SnapshotResponse
	frame *wire.Frame
}

// assembly is the next version's storage while Sync builds it: float32
// rows for a Binary-format client, float64 otherwise.
type assembly struct {
	z   *mat.Dense // exactly one of z and z32 is set
	z32 []float32
	y   []int32
	k   int
}

func newAssembly(binary bool, n, k int) *assembly {
	a := &assembly{y: make([]int32, n), k: k}
	if binary {
		a.z32 = make([]float32, n*k)
	} else {
		a.z = mat.NewDense(n, k)
	}
	return a
}

// elemSize is the storage width of one value, for payload accounting.
func (a *assembly) elemSize() int64 {
	if a.z32 != nil {
		return 4
	}
	return 8
}

// carry copies the row window [lo, hi) and its labels over from cur.
func (a *assembly) carry(cur *ReplicaSnapshot, lo, hi int) {
	if a.z32 != nil {
		copy(a.z32[lo*a.k:hi*a.k], cur.z32[lo*a.k:hi*a.k])
	} else {
		copy(a.z.Data[lo*a.k:hi*a.k], cur.Z.Data[lo*a.k:hi*a.k])
	}
	copy(a.y[lo:hi], cur.Y[lo:hi])
}

// setRow stores one decoded float64 row. Narrowing into float32 storage
// is exact for rows the binary wire carried (float32, widened on
// decode).
func (a *assembly) setRow(v int, row []float64) {
	if a.z != nil {
		copy(a.z.Row(v), row)
		return
	}
	dst := a.z32[v*a.k : (v+1)*a.k]
	for j, x := range row {
		dst[j] = float32(x)
	}
}

// setFrameRows stores a frame's dense float32 rows starting at row lo.
func (a *assembly) setFrameRows(lo int, rows []float32) {
	if a.z32 != nil {
		copy(a.z32[lo*a.k:], rows)
		return
	}
	dst := a.z.Data[lo*a.k:]
	for j, x := range rows {
		dst[j] = float64(x)
	}
}

// snapshot seals the assembly into the immutable version.
func (a *assembly) snapshot(secs []section) *ReplicaSnapshot {
	s := &ReplicaSnapshot{
		Epochs: make(shard.EpochVector, len(secs)), Instances: make([]uint64, len(secs)),
		Z: a.z, z32: a.z32, Y: a.y, n: len(a.y), k: a.k, secs: secs,
	}
	for i, sec := range secs {
		s.Epochs[i], s.Instances[i] = sec.epoch, sec.instance
		s.Edges += sec.edges
	}
	s.Epoch = s.Epochs.Max()
	return s
}

// fetchSection fetches shard i's snapshot section into the assembly and
// stamps sec with its epoch, instance and edge count, validating the
// body against the window [sec.lo, sec.hi) and width the partition
// promised (a binary frame has no lo field — the window comes from the
// partition alone).
func (r *Replica) fetchSection(ctx context.Context, i int, sec *section, a *assembly) error {
	var body sectionBody
	n, err := r.c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/snapshot?shard=%d", i), nil, &body)
	r.addSnapshotBytes(n)
	if err != nil {
		return err
	}
	lo, hi, k := sec.lo, sec.hi, a.k
	if f := body.frame; f != nil {
		// frameInto already checked the frame is a self-consistent
		// snapshot (N rows, N labels, implicit ids).
		if int(f.N) != hi-lo || int(f.K) != k {
			return &sectionShapeError{msg: fmt.Sprintf(
				"client: shard %d section frame n=%d k=%d, want window [%d,%d) k=%d", i, f.N, f.K, lo, hi, k)}
		}
		a.setFrameRows(lo, f.Rows)
		copy(a.y[lo:hi], f.Y)
		sec.epoch, sec.instance, sec.edges = f.Epoch, f.Instance, f.Edges
	} else {
		snap := &body.SnapshotResponse
		if snap.N != hi-lo || snap.K != k || len(snap.Z) != snap.N || len(snap.Y) != snap.N || int(snap.Lo) != lo {
			return &sectionShapeError{msg: fmt.Sprintf(
				"client: shard %d section shape n=%d k=%d lo=%d (%d rows, %d labels), want window [%d,%d) k=%d",
				i, snap.N, snap.K, snap.Lo, len(snap.Z), len(snap.Y), lo, hi, k)}
		}
		for u, row := range snap.Z {
			if len(row) != k {
				return fmt.Errorf("client: shard %d section row %d has width %d, want %d", i, u, len(row), k)
			}
			a.setRow(lo+u, row)
		}
		copy(a.y[lo:hi], snap.Y)
		sec.epoch, sec.instance, sec.edges = snap.Epoch, snap.Instance, snap.Edges
	}
	r.snapshotPayload.Add(int64(hi-lo)*int64(k)*a.elemSize() + int64(hi-lo)*4)
	return nil
}

// applyDelta patches one shard's delta rows and labels into the
// assembly, enforcing the owned-window contract: a delta's row ids are
// global but must fall inside the shard's window.
func (a *assembly) applyDelta(dl *server.DeltaResponse, sec *section) error {
	for i, v := range dl.Rows {
		if int(v) < sec.lo || int(v) >= sec.hi || len(dl.Z[i]) != a.k {
			return fmt.Errorf("client: delta row %d (vertex %d) outside shard window [%d,%d) or malformed",
				i, v, sec.lo, sec.hi)
		}
		a.setRow(int(v), dl.Z[i])
	}
	for _, l := range dl.Labels {
		if int(l.V) < sec.lo || int(l.V) >= sec.hi {
			return fmt.Errorf("client: delta label vertex %d outside shard window [%d,%d)",
				l.V, sec.lo, sec.hi)
		}
		a.y[l.V] = l.Class
	}
	sec.epoch, sec.edges = dl.Epoch, dl.Edges
	return nil
}

// rebuildLocked assembles and publishes the version after cur. Section
// i is fetched whole when deltas[i] is nil (bootstrap, resync,
// restarted shard) — filled in place, never cloned from cur first — and
// otherwise carried over from cur with deltas[i] patched in.
// Copy-on-epoch: readers holding cur are unaffected, and the new
// version appears atomically with every section advanced.
func (r *Replica) rebuildLocked(ctx context.Context, cur *ReplicaSnapshot, deltas []*server.DeltaResponse) error {
	k := cur.k
	a := newAssembly(r.c.wire == Binary, cur.n, k)
	secs := slices.Clone(cur.secs)
	rows := 0
	for i := range secs {
		dl := deltas[i]
		if dl == nil {
			if err := r.fetchSection(ctx, i, &secs[i], a); err != nil {
				return err
			}
			continue
		}
		a.carry(cur, secs[i].lo, secs[i].hi)
		if err := a.applyDelta(dl, &secs[i]); err != nil {
			return err
		}
		rows += len(dl.Rows)
		r.deltaPayload.Add(int64(len(dl.Rows))*int64(k)*a.elemSize() +
			int64(len(dl.Rows))*4 + int64(len(dl.Labels))*8)
	}
	r.rowsApplied.Add(int64(rows))
	r.cur.Store(a.snapshot(secs))
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
	deltas := make([]*server.DeltaResponse, len(cur.secs))
	changed := false
	for i, sec := range cur.secs {
		dl := new(server.DeltaResponse)
		n, err := r.c.do(ctx, http.MethodGet,
			fmt.Sprintf("/v1/delta?from=%d&shard=%d", sec.epoch, i), nil, dl)
		r.addDeltaBytes(n)
		if err != nil {
			return false, err
		}
		switch {
		case dl.Resync || dl.Instance != sec.instance:
			resynced, changed = true, true // deltas[i] stays nil: refetch the section
		case len(dl.Z) != len(dl.Rows):
			return false, fmt.Errorf("client: shard %d delta carries %d rows but %d value rows",
				i, len(dl.Rows), len(dl.Z))
		default:
			deltas[i] = dl
			changed = changed || dl.Epoch != sec.epoch
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
