package server

import (
	"repro/internal/dyn"
	"repro/internal/rows"
	"repro/internal/wire"
)

// Binary counterparts of the JSON streamers: the same abort discipline
// (stop formatting within one check window of a departed client), the
// same pooled scratch buffer, but rows leave as little-endian float32
// frames (see internal/wire) instead of decimal text. Snapshots and
// embeddings are dense (a replica copies the float32 rows straight
// into its local matrix); deltas use the sparse row encoding and are
// only ever sent as frames. Snapshots and embeddings negotiate per
// request via the Accept header, JSON being their default.

// binRowsPerChunk rows are converted into scratch between writes: big
// enough to amortize the bufio call, small enough that scratch stays a
// few tens of KiB for any plausible K.
const binRowsPerChunk = 64

// binHeader writes the frame prefix.
func (s *streamer) binHeader(h wire.Header) {
	s.scratch = h.AppendTo(s.scratch[:0])
	s.w.Write(s.scratch)
}

// binLabels writes z's labels as an int32 section with periodic abort
// checks; reports whether it ran to completion.
func (s *streamer) binLabels(z *rows.Pages[float64]) bool {
	for lo := 0; lo < z.R; lo += labelsPerBlock {
		if s.aborted() {
			return false
		}
		s.scratch = wire.AppendI32s(s.scratch[:0], s.labelBlock(z, lo, min(lo+labelsPerBlock, z.R)))
		s.w.Write(s.scratch)
	}
	return true
}

// binU32s writes a uint32 section with periodic abort checks.
func (s *streamer) binU32s(vals []uint32) bool {
	for lo := 0; lo < len(vals); lo += 8 * abortCheckEvery {
		if s.aborted() {
			return false
		}
		hi := min(lo+8*abortCheckEvery, len(vals))
		s.scratch = wire.AppendU32s(s.scratch[:0], vals[lo:hi])
		s.w.Write(s.scratch)
	}
	return true
}

// binRows writes n embedding rows of width k as float32 payload,
// checking for a departed client between chunks. Returns the number of
// rows emitted — n when the stream completed (a truncated frame only
// ever reaches a reader that already left; the decoder rejects it).
func (s *streamer) binRows(n, k int, fill rowFill) int {
	for lo := 0; lo < n; lo += binRowsPerChunk {
		if s.aborted() {
			return lo
		}
		hi := min(lo+binRowsPerChunk, n)
		s.scratch = wire.AppendRow(s.scratch[:0], s.block(lo, hi, k, fill))
		s.w.Write(s.scratch)
	}
	return n
}

// streamSnapshotBinary writes one published version as a snapshot
// frame (implicit identity row ids). Returns the number of Z rows
// emitted; a short count means the client went away mid-stream.
func streamSnapshotBinary(s *streamer, snap *dyn.Version) int {
	s.binHeader(wire.Header{
		Kind: wire.KindSnapshot, K: uint32(snap.Z.C),
		Epoch: snap.Epoch, Instance: snap.Instance, Edges: snap.Edges,
		N: uint32(snap.Z.R), NY: uint32(snap.Z.R), NRows: uint32(snap.Z.R),
	})
	rows := 0
	if s.binLabels(snap.Z) {
		rows = s.binRows(snap.Z.R, snap.Z.C, snap.Z.Rows)
	}
	s.flush()
	return rows
}

// streamDeltaBinary writes one dyn.Delta as a sparse delta frame; k is
// the embedding width and n the server's vertex count. Returns the
// number of changed rows emitted.
//
// Deltas use the sparse row encoding (varint id increments, nonzero
// bitmaps): changed rows are mostly zeros, and a fixed-width frame
// would spend four bytes on each zero that JSON spends one on. The
// header carries the blob's exact length, so the blob is built in a
// pooled side buffer before anything is written.
func streamDeltaBinary(s *streamer, dl *dyn.Delta, k, n int) int {
	h := wire.Header{
		Kind: wire.KindDelta, Resync: dl.Resync, K: uint32(k),
		Epoch: dl.Epoch, Instance: dl.Instance, From: dl.FromEpoch,
		N: uint32(n),
	}
	if dl.Resync {
		s.binHeader(h)
		s.flush()
		return 0
	}
	s.blob = s.blob[:0]
	prev := uint64(0)
	for i, v := range dl.Rows {
		if i%abortCheckEvery == 0 && s.aborted() {
			return 0
		}
		delta := uint64(v)
		if i > 0 {
			delta = uint64(v) - prev
		}
		prev = uint64(v)
		s.blob = wire.AppendSparseRow(s.blob, delta, dl.Values[i*k:(i+1)*k])
	}
	h.Sparse = true
	h.Edges = dl.Edges
	h.NLabels = uint32(len(dl.Labels))
	h.NIDs = uint32(len(dl.Rows))
	h.NRows = uint32(len(dl.Rows))
	h.BodyBytes = uint32(len(s.blob))
	s.binHeader(h)
	for lo := 0; lo < len(dl.Labels); lo += 8 * abortCheckEvery {
		if s.aborted() {
			s.flush()
			return 0
		}
		hi := min(lo+8*abortCheckEvery, len(dl.Labels))
		s.scratch = s.scratch[:0]
		for _, lu := range dl.Labels[lo:hi] {
			s.scratch = wire.AppendLabel(s.scratch, wire.Label{V: lu.V, Class: lu.Class})
		}
		s.w.Write(s.scratch)
	}
	if s.aborted() {
		s.flush()
		return 0
	}
	s.w.Write(s.blob)
	s.flush()
	if s.aborted() {
		return 0
	}
	return len(dl.Rows)
}

// streamEmbeddingsBinary writes a batched read's rows as an embeddings
// frame: explicit row ids in request order (duplicates preserved).
func streamEmbeddingsBinary(s *streamer, snap *dyn.Version, vs []uint32) int {
	s.binHeader(wire.Header{
		Kind: wire.KindEmbeddings, K: uint32(snap.Z.C),
		Epoch: snap.Epoch, Instance: snap.Instance, Edges: snap.Edges,
		N: uint32(snap.Z.R), NIDs: uint32(len(vs)), NRows: uint32(len(vs)),
	})
	rows := 0
	if s.binU32s(vs) {
		k := snap.Z.C
		rows = s.binRows(len(vs), k, func(lo, hi int, dst []float64) {
			for i, v := range vs[lo:hi] {
				snap.Z.Row(int(v), dst[i*k:])
			}
		})
	}
	s.flush()
	return rows
}
