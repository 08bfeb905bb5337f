// Epoch deltas: the read-path scale-out story. A replica that already
// holds epoch E should not pay a full O(nK) snapshot transfer to reach
// epoch E' when only a few rows moved — and under edge churn only a few
// rows do move: an insert or delete writes at most its two endpoint rows
// (an endpoint's row only when the other endpoint is labelled), and a
// label move writes the moved vertex's neighbors' rows and its own label.
// The embedder marks exactly the rows and labels the folds and relabel
// walks wrote (publish needs them anyway: they name the pages to copy)
// and stamps each with the epoch that publishes it. A version therefore
// is its own delta: the rows and labels changed since any earlier epoch
// of the instance are the ones stamped after it, found by one walk of
// the current version that skips every chunk and page nothing in the
// span touched. No history is kept, and no lock is taken.
//
// The exception is the 1/n_k normalization: a label move that changes
// class counts rescales two whole columns of every served row, though it
// rewrites no page but its walk's — a row list would be the whole
// matrix. A span that crosses such a publish is answered with the resync
// signal instead (fetch a snapshot). Moves that cancel within one publish
// window (counts end where they started) stay row-sized.
package dyn

import "repro/internal/graph"

// Delta describes how to bring a copy of the embedding from FromEpoch
// to Epoch. When Resync is false, overwriting the listed rows with
// Values and applying Labels yields the epoch-Epoch snapshot exactly
// (same floats); when Resync is true the span is not worth serving
// row-wise — see DynamicEmbedder.Delta — and the caller must fetch a full
// snapshot instead.
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

// mark stamps vertex v's row (at is d.rowAt) or label (d.yAt) with the
// epoch the next publish will carry, and lists v as dirty once. Rows and
// labels outside the owned window are never published, so they are
// never marked: label authority follows row ownership — every shard sees
// a label broadcast, exactly one publishes it.
func (d *DynamicEmbedder) mark(v graph.NodeID, at []uint64) {
	next := d.cur.Load().Epoch + 1
	if !d.owned(v) || at[v] == next {
		return
	}
	if d.rowAt[v] != next && d.yAt[v] != next {
		d.dirty = append(d.dirty, v)
	}
	at[v] = next
}

// markWritten marks the rows the fold of edge e wrote, by the fold's
// own kernel predicate: row U only when V is labelled, row V only when
// U is. Call it under the labels the fold ran with.
func (d *DynamicEmbedder) markWritten(e graph.Edge) {
	src, dst := d.kern.Writes(e.U, e.V)
	if src {
		d.mark(e.U, d.rowAt)
	}
	if dst {
		d.mark(e.V, d.rowAt)
	}
}

// Delta returns how to advance a copy of the embedding from epoch
// `from` to the currently published epoch: the rows and labels the
// current version stamps after `from`, read straight from it. It answers
// Resync in exactly three cases: `from` is ahead of the current epoch;
// the class counts moved after `from` (every served row of two columns
// was rescaled); or more than half the owned rows changed in the span, so
// the row list would cost more than the snapshot it is meant to avoid.
// The caller should then fetch a full Snapshot and restart from its
// epoch. Any older epoch of the instance is otherwise served, however far
// behind — up to the 2^32 publishes a page stamp spans, past which a
// span resyncs too. Lock-free and safe for concurrent use with writers;
// the returned value is owned by the caller.
func (d *DynamicEmbedder) Delta(from uint64) *Delta {
	ver := d.cur.Load()
	res := &Delta{FromEpoch: from, Epoch: ver.Epoch, Instance: ver.Instance, Edges: ver.Edges}
	switch {
	case from == ver.Epoch:
		return res
	case from > ver.Epoch || from < ver.invEpoch:
		res.Resync = true
		return res
	}
	// One walk of the stamps (rows.Pages.Since). Values and final classes
	// come from the current version: the intermediate states a row passed
	// through are invisible to a follower jumping from `from` straight to
	// Epoch. A vertex moved back to its epoch-`from` class still appears
	// in Labels; reapplying an unchanged class is harmless.
	z := ver.Z
	if !z.Since(from, func(v int, row, label bool) {
		if row {
			res.Rows = append(res.Rows, graph.NodeID(v))
		}
		if label {
			res.Labels = append(res.Labels, LabelUpdate{V: graph.NodeID(v), Class: z.Label(v)})
		}
	}) || len(res.Rows) > (d.ownHi-d.ownLo)/2 {
		res.Rows, res.Labels, res.Resync = nil, nil, true
		return res
	}
	res.Values = make([]float64, len(res.Rows)*z.C)
	for i, v := range res.Rows {
		z.Row(int(v), res.Values[i*z.C:])
	}
	return res
}
