package server

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/dyn"
	"repro/internal/rows"
	"repro/internal/sticky"
)

// Large read responses (snapshots, deltas, batched rows) are streamed
// through a streamer rather than marshaled whole: the n×K matrix never
// gets a second in-memory copy, floats go out in shortest round-trip
// form (a client re-reading them recovers the exact published bits),
// and — the part handleSnapshot originally got wrong — the stream
// aborts as soon as the client is gone. Without the abort a
// disconnected reader still cost the full O(nK) serialization:
// bufio's sticky error made the bytes vanish quietly while the loop
// kept formatting every remaining row.

// abortCheckEvery is how many rows are emitted between client-liveness
// checks: frequent enough that a vanished reader wastes at most a few
// hundred rows of formatting, rare enough that the context poll stays
// invisible next to the float formatting itself.
const abortCheckEvery = 256

// streamer incrementally writes one large response — JSON through the
// numeric writers below, binary frames through the stream_binary.go
// side. Chunks go through a sticky.Writer: the first client error is
// retained there, every later write is a cheap no-op, and the streamer
// checks the verdict once per abort window instead of once per chunk
// (which is why the bare w.Write calls below are legal — see the
// stickywrite analyzer). Streamers are pooled: the 64 KiB write buffer
// and the scratch formatting buffer survive across requests, so
// concurrent snapshot/delta streams stop paying a fresh allocation per
// request.
type streamer struct {
	w       *sticky.Writer
	ctx     context.Context
	scratch []byte
	// blob assembles a sparse delta body, which must be sized before
	// the header that precedes it can be written (so it cannot go
	// through w incrementally like scratch does).
	blob []byte
	// rows holds one block of normalised rows between the version that
	// fills it and the row writers that format it; labels does the same
	// for a block of classes.
	rows   []float64
	labels []int32
}

var streamerPool = sync.Pool{New: func() any {
	return &streamer{w: sticky.NewWriter(nil, 1<<16)}
}}

func newStreamer(w io.Writer, ctx context.Context) *streamer {
	s := streamerPool.Get().(*streamer)
	s.w.Reset(w)
	s.ctx = ctx
	return s
}

// release returns the streamer (and its buffers) to the pool. The
// caller must not touch it afterwards. An unusually large delta blob
// (a sync spanning most of the matrix) or row block (a very wide
// embedding) is dropped rather than parked in the pool forever.
func (s *streamer) release() {
	s.w.Detach()
	s.ctx = nil
	if cap(s.blob) > 1<<20 {
		s.blob = nil
	}
	if cap(s.rows) > 1<<17 {
		s.rows = nil
	}
	streamerPool.Put(s)
}

// rowFill writes rows [lo, hi) of a response back to back into dst —
// (*rows.Pages).Rows for a snapshot, one (*rows.Pages).Row per id for a
// batched read.
type rowFill func(lo, hi int, dst []float64)

// block fills the pooled row buffer with rows [lo, hi) of width k and
// returns it.
func (s *streamer) block(lo, hi, k int, fill rowFill) []float64 {
	if cap(s.rows) < (hi-lo)*k {
		s.rows = make([]float64, (hi-lo)*k)
	}
	b := s.rows[:(hi-lo)*k]
	fill(lo, hi, b)
	return b
}

// labelBlock fills the pooled label buffer with the classes of vertices
// [lo, hi) of z and returns it.
func (s *streamer) labelBlock(z *rows.Pages[float64], lo, hi int) []int32 {
	if cap(s.labels) < hi-lo {
		s.labels = make([]int32, hi-lo)
	}
	b := s.labels[:hi-lo]
	z.Labels(lo, hi, b)
	return b
}

// labelsPerBlock is how many labels are read, formatted and checked for
// an abort at a time.
const labelsPerBlock = 8 * abortCheckEvery

// aborted reports whether further output is pointless: the writer
// failed (client disconnected mid-flush) or the request context was
// cancelled (client disconnected while we were still formatting).
func (s *streamer) aborted() bool {
	return s.w.Err() != nil || s.ctx.Err() != nil
}

// failed reports whether the underlying writer itself errored. Unlike
// aborted it ignores the request context, so a fully delivered body
// whose client cancels just after the last flush is not misread as
// cut short.
func (s *streamer) failed() bool { return s.w.Err() != nil }

func (s *streamer) raw(v string)   { s.w.WriteString(v) }
func (s *streamer) rawByte(c byte) { s.w.WriteByte(c) }
func (s *streamer) flush() error   { return s.w.Flush() }

// The numeric writers format into one buffer reused across the whole
// stream (the write-back keeps the grown capacity), so a snapshot's
// n×K floats cost zero allocations, not one each.
//
//gee:noalloc
func (s *streamer) intv(v int64) {
	s.scratch = strconv.AppendInt(s.scratch[:0], v, 10)
	s.w.Write(s.scratch)
}

//gee:noalloc
func (s *streamer) floatv(x float64) {
	s.scratch = strconv.AppendFloat(s.scratch[:0], x, 'g', -1, 64)
	s.w.Write(s.scratch)
}

// labelArray emits z's labels as a JSON array of ints with periodic
// abort checks. Reports whether it ran to completion.
func (s *streamer) labelArray(z *rows.Pages[float64]) bool {
	s.rawByte('[')
	for lo := 0; lo < z.R; lo += labelsPerBlock {
		if s.aborted() {
			return false
		}
		for i, c := range s.labelBlock(z, lo, min(lo+labelsPerBlock, z.R)) {
			if lo+i > 0 {
				s.rawByte(',')
			}
			s.intv(int64(c))
		}
	}
	s.rawByte(']')
	return true
}

// floatRows emits a JSON array of n row arrays of width k, fetched
// abortCheckEvery rows at a time, checking for a departed client
// before each block. Returns the number of rows emitted — n when the
// stream completed, less when it aborted (the truncated output only
// ever reaches a reader that already left).
func (s *streamer) floatRows(n, k int, fill rowFill) int {
	s.rawByte('[')
	for lo := 0; lo < n; lo += abortCheckEvery {
		if s.aborted() {
			return lo
		}
		hi := min(lo+abortCheckEvery, n)
		b := s.block(lo, hi, k, fill)
		for i := range hi - lo {
			if lo+i > 0 {
				s.rawByte(',')
			}
			s.rawByte('[')
			for c, x := range b[i*k : (i+1)*k] {
				if c > 0 {
					s.rawByte(',')
				}
				s.floatv(x)
			}
			s.rawByte(']')
		}
	}
	s.rawByte(']')
	return n
}

// streamSnapshot writes one shard's snapshot section as
// SnapshotResponse JSON: snap is pre-sliced to the owned window (n is
// the section width, y and z carry only owned rows), and the shard id
// plus the window's global row offset make the section self-describing
// without /v1/partition in hand. Returns the number of Z rows emitted; a
// short count means the client went away and the stream was cut. Split
// from the handler so tests can drive it with a failing writer or
// cancelled context.
func streamSnapshot(s *streamer, snap *dyn.Version, shardID, lo int) int {
	fmt.Fprintf(s.w, `{"epoch":%d,"instance":%d,"shard":%d,"lo":%d,"n":%d,"k":%d,"edges":%d,"y":`,
		snap.Epoch, snap.Instance, shardID, lo, snap.Z.R, snap.Z.C, snap.Edges)
	rows := 0
	if s.labelArray(snap.Z) {
		s.raw(`,"z":`)
		rows = s.floatRows(snap.Z.R, snap.Z.C, snap.Z.Rows)
		if rows == snap.Z.R {
			s.rawByte('}')
		}
	}
	s.flush()
	return rows
}
