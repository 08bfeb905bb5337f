package server

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/xrand"
)

var errConnClosed = errors.New("simulated client disconnect")

// brokenPipeWriter accepts `limit` bytes and then fails every write —
// what an http.ResponseWriter does once the client has closed the
// connection mid-stream.
type brokenPipeWriter struct {
	h         http.Header
	limit     int
	total     int
	failed    bool
	afterFail int // writes attempted after the first failure
}

func (f *brokenPipeWriter) Header() http.Header {
	if f.h == nil {
		f.h = http.Header{}
	}
	return f.h
}
func (f *brokenPipeWriter) WriteHeader(int) {}
func (f *brokenPipeWriter) Write(p []byte) (int, error) {
	if f.failed {
		f.afterFail++
		return 0, errConnClosed
	}
	if f.total+len(p) > f.limit {
		f.failed = true
		return 0, errConnClosed
	}
	f.total += len(p)
	return len(p), nil
}

// cancelAfterWriter accepts writes but cancels the request context
// once `limit` bytes have passed — the disconnect signal the server
// sees before any write has had a chance to fail.
type cancelAfterWriter struct {
	limit  int
	total  int
	cancel context.CancelFunc
}

func (c *cancelAfterWriter) Write(p []byte) (int, error) {
	c.total += len(p)
	if c.total > c.limit {
		c.cancel()
	}
	return len(p), nil
}

// bigSnapshot builds a published snapshot large enough that its stream
// spans many bufio flushes.
func bigSnapshot(t *testing.T, n, k int) *dyn.Version {
	t.Helper()
	d, err := dyn.New(n, labels.Full(n, k, 171), dyn.Options{K: k, ManualPublish: true})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(173)
	edges := make([]graph.Edge, 4*n)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: 1}
	}
	if err := d.Apply(dyn.Batch{Insert: edges}); err != nil {
		t.Fatal(err)
	}
	return d.Publish()
}

// TestStreamSnapshotAbortsOnWriteError is the regression test for the
// discarded-write-error bug: once the client's connection is gone, the
// stream must stop within one abort-check window instead of formatting
// (and throwing away) the remaining O(nK) rows.
func TestStreamSnapshotAbortsOnWriteError(t *testing.T) {
	const n, k = 20000, 8
	snap := bigSnapshot(t, n, k)
	fw := &brokenPipeWriter{limit: 60_000}
	rows := streamSnapshot(newStreamer(fw, context.Background()), snap, 0, 0)
	if rows == n {
		t.Fatalf("stream ran to completion (%d rows) over a broken pipe", rows)
	}
	// The 64 KiB buffer fails its first flush around row ~4000; the
	// abort check fires within abortCheckEvery rows of that.
	if rows > 8000 {
		t.Fatalf("streamed %d rows after the pipe broke (abort too late)", rows)
	}
	if fw.afterFail > 1 {
		t.Fatalf("%d writes attempted after the connection failed", fw.afterFail)
	}
}

// TestStreamSnapshotAbortsOnCancel covers the other disconnect signal:
// the request context is cancelled while rows are still being
// formatted (no write has failed yet because the buffer absorbed
// them). The stream must notice between row chunks.
func TestStreamSnapshotAbortsOnCancel(t *testing.T) {
	const n, k = 20000, 8
	snap := bigSnapshot(t, n, k)
	ctx, cancel := context.WithCancel(context.Background())
	cw := &cancelAfterWriter{limit: 100_000, cancel: cancel}
	rows := streamSnapshot(newStreamer(cw, ctx), snap, 0, 0)
	if rows == n {
		t.Fatalf("stream ran to completion (%d rows) past a cancelled request", rows)
	}
	if rows > 10000 {
		t.Fatalf("streamed %d rows after cancellation (abort too late)", rows)
	}
	// An already-dead request produces (next to) nothing.
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	fw := &brokenPipeWriter{limit: 1 << 30}
	if rows := streamSnapshot(newStreamer(fw, cancelled), snap, 0, 0); rows != 0 {
		t.Fatalf("dead request still streamed %d rows", rows)
	}
	if fw.total > 4096 {
		t.Fatalf("dead request still wrote %d bytes", fw.total)
	}
}

// TestStreamDeltaAbortsOnWriteError gives the delta stream the same
// guarantee as the snapshot stream.
func TestStreamDeltaAbortsOnWriteError(t *testing.T) {
	const n, k = 20000, 8
	d, err := dyn.New(n, labels.Full(n, k, 177), dyn.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(179)
	// n/4 edges draw n/2 endpoints with collisions: a wide dirty set
	// that still stays under the full-promotion threshold (n/2 rows).
	edges := make([]graph.Edge, n/4)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: 1}
	}
	if err := d.Apply(dyn.Batch{Insert: edges}); err != nil {
		t.Fatal(err)
	}
	dl := d.Delta(0)
	if dl.Resync || len(dl.Rows) < 4000 {
		t.Fatalf("workload did not produce a wide row delta: resync=%v rows=%d", dl.Resync, len(dl.Rows))
	}
	fw := &brokenPipeWriter{limit: 60_000}
	rows := streamDelta(newStreamer(fw, context.Background()), dl, k)
	if rows == len(dl.Rows) {
		t.Fatal("delta stream ran to completion over a broken pipe")
	}
	if fw.afterFail > 1 {
		t.Fatalf("%d writes attempted after the connection failed", fw.afterFail)
	}
}
