// Epoch-delta tracking: the read-path scale-out story. A replica that
// already holds epoch E should not pay a full O(nK) snapshot transfer
// to reach epoch E' when only a few rows moved — and under edge churn
// only a few rows do move: an insert or delete writes at most its two
// endpoint rows (an endpoint's row only when the other endpoint is
// labelled), and a label move writes the moved vertex's neighbors'. The
// embedder marks exactly the rows the fold and the relabel walks wrote
// (publish needs them anyway: they name the pages to copy) and, at each
// publish, files the epoch's dirty set into a bounded ring. Delta unions
// the per-epoch sets and reads the new rows, normalised, straight from
// the current immutable version, so the ring never stores floats.
//
// The exception is the 1/n_k normalization: a label move that changes
// class counts rescales two whole columns of every served row, though
// it rewrites no page but its walk's — a row list would be the whole
// matrix. Such an epoch is promoted to a "full" delta and Delta answers
// with the resync signal instead (fetch a snapshot). Moves that cancel
// within one publish window (counts end where they started) stay
// row-sized.
package dyn

import (
	"math/bits"

	"repro/internal/graph"
)

// Delta describes how to bring a copy of the embedding from FromEpoch
// to Epoch. When Resync is false, overwriting the listed rows with
// Values and applying Labels yields the epoch-Epoch snapshot exactly
// (same floats); when Resync is true the span is not reconstructible
// row-wise — the ring evicted FromEpoch, or a covered epoch changed
// class counts — and the caller must fetch a full snapshot instead.
type Delta struct {
	FromEpoch uint64
	Epoch     uint64
	// Instance is the embedder lifetime the epochs belong to (see
	// Snapshot.Instance); a follower holding a different instance's
	// state must resync regardless of the epoch numbers.
	Instance uint64
	Resync   bool
	// Rows lists the changed row ids in ascending order; Values holds
	// their new rows back to back (len(Rows)×K, row-major).
	Rows   []graph.NodeID
	Values []float64
	// Labels carries the final class of every vertex whose label
	// changed in the span, in ascending vertex order.
	Labels []LabelUpdate
	// Edges is the live-edge count at Epoch.
	Edges int64
}

// epochDelta is one ring entry: what one publish changed.
type epochDelta struct {
	epoch     uint64
	full      bool           // counts changed or too many rows: not row-reconstructible
	rows      []graph.NodeID // Z rows the epoch changed (unordered, deduplicated)
	relabeled []graph.NodeID // vertices whose label changed (unordered, may repeat)
}

// markDirty records that row v's embedding changed since the last
// publish. Rows outside the owned window are never published, so they
// never enter the delta. Once more than half the owned rows are dirty
// the epoch is promoted to full: the row list would cost more than the
// snapshot it is meant to avoid.
func (d *DynamicEmbedder) markDirty(v graph.NodeID) {
	if d.dirtyFull || !d.owned(v) || d.dirtyMark[v] == d.dirtyGen {
		return
	}
	d.dirtyMark[v] = d.dirtyGen
	d.dirtyRows = append(d.dirtyRows, v)
	if len(d.dirtyRows) > (d.ownHi-d.ownLo)/2 {
		d.dirtyFull = true
		d.dirtyRows = nil
	}
}

// markWritten marks the rows the fold of edge e wrote, by the fold's
// own kernel predicate: row U only when V is labelled, row V only when
// U is. Call it under the labels the fold ran with.
func (d *DynamicEmbedder) markWritten(e graph.Edge) {
	src, dst := d.kern.Writes(e.U, e.V)
	if src {
		d.markDirty(e.U)
	}
	if dst {
		d.markDirty(e.V)
	}
}

// recordDeltaLocked files the epoch's dirty set into the ring, taking
// ownership of the row lists (publishLocked starts fresh ones). full
// marks an epoch that is not row-reconstructible. The epoch-0 bootstrap
// publish is never recorded: the ring describes transitions, and there
// is no epoch before 0 to transition from.
func (d *DynamicEmbedder) recordDeltaLocked(epoch uint64, full bool) {
	e := epochDelta{epoch: epoch, full: full}
	if !full {
		e.rows = d.dirtyRows
		e.relabeled = d.relabeled
	}
	if len(d.ring) >= d.deltaHist {
		n := copy(d.ring, d.ring[1:])
		d.ring = d.ring[:n]
	}
	d.ring = append(d.ring, e)
}

// Delta returns how to advance a copy of the embedding from epoch
// `from` to the currently published epoch. A Resync result means the
// span cannot be served row-wise (from is older than the ring, ahead
// of the embedder, a covered epoch was full, or the ring is disabled);
// the caller should fetch a full Snapshot and restart from its epoch.
// Safe for concurrent use with writers; the returned value is owned by
// the caller.
func (d *DynamicEmbedder) Delta(from uint64) *Delta {
	// Under mu: only the cheap header work. The snapshot loaded here is
	// exactly the ring's newest epoch; the ring entry headers are
	// copied out so the row union below — up to history × n/2 ids —
	// never stalls writers on the same mutex. The per-entry rows and
	// relabeled slices are safe to read unlocked: recordDeltaLocked
	// takes ownership of them and nothing mutates them afterwards
	// (eviction only shifts the headers).
	d.mu.Lock()
	snap := d.cur.Load()
	res := &Delta{FromEpoch: from, Epoch: snap.Epoch, Instance: d.instance, Edges: snap.Edges}
	if from == snap.Epoch {
		d.mu.Unlock()
		return res
	}
	if from > snap.Epoch || len(d.ring) == 0 || d.ring[0].epoch > from+1 {
		d.mu.Unlock()
		res.Resync = true
		return res
	}
	entries := append([]epochDelta(nil), d.ring...)
	d.mu.Unlock()

	// The union is a bitset sweep: setting a bit deduplicates, and
	// reading the words back in order yields ascending ids — no map, no
	// sort, and 2×n/8 bytes however many epochs the span covers.
	rowSet, labSet := newIDSet(len(snap.Y)), newIDSet(len(snap.Y))
	for i := range entries {
		e := &entries[i]
		if e.epoch <= from {
			continue
		}
		if e.full {
			res.Resync = true
			return res
		}
		rowSet.add(e.rows)
		labSet.add(e.relabeled)
	}

	// Values and final classes come from the published snapshot, not
	// the ring: intermediate states a row passed through are invisible
	// to a follower jumping from `from` straight to Epoch. A vertex
	// relabeled back to its epoch-`from` class still appears in Labels;
	// reapplying an unchanged class is harmless.
	rows, relabeled := rowSet.ascending(), labSet.ascending()
	res.Rows = rows
	res.Values = make([]float64, len(rows)*snap.Z.C)
	for i, v := range rows {
		snap.Z.Row(int(v), res.Values[i*snap.Z.C:])
	}
	res.Labels = make([]LabelUpdate, len(relabeled))
	for i, v := range relabeled {
		res.Labels[i] = LabelUpdate{V: v, Class: snap.Y[v]}
	}
	return res
}

// idSet is a set of vertex ids below a fixed n, one bit each.
type idSet []uint64

func newIDSet(n int) idSet { return make(idSet, (n+63)/64) }

func (s idSet) add(ids []graph.NodeID) {
	for _, v := range ids {
		s[v>>6] |= 1 << (v & 63)
	}
}

// ascending returns the members in ascending order (nil when empty).
func (s idSet) ascending() []graph.NodeID {
	count := 0
	for _, w := range s {
		count += bits.OnesCount64(w)
	}
	if count == 0 {
		return nil
	}
	out := make([]graph.NodeID, 0, count)
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, graph.NodeID(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return out
}
