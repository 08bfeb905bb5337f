package server

import (
	"bytes"
	"context"
	"io"
	"math"
	"testing"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/race"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// benchSnapshot is bigSnapshot for benchmarks (no *testing.T).
func benchSnapshot(b *testing.B, n, k int) *dyn.Version {
	b.Helper()
	d, err := dyn.New(n, labels.Full(n, k, 171), dyn.Options{K: k, ManualPublish: true})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(173)
	edges := make([]graph.Edge, 4*n)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: 1}
	}
	if err := d.Apply(dyn.Batch{Insert: edges}); err != nil {
		b.Fatal(err)
	}
	return d.Publish()
}

// TestStreamSnapshotBinaryRoundTrips checks the server-side encoder
// against the wire decoder: streaming a published snapshot as a binary
// frame and decoding it must recover the header and every row value
// modulo the documented float32 quantization.
func TestStreamSnapshotBinaryRoundTrips(t *testing.T) {
	snap := bigSnapshot(t, 500, 6)
	var buf bytes.Buffer
	st := newStreamer(&buf, context.Background())
	rows := streamSnapshotBinary(st, snap)
	if err := st.flush(); err != nil {
		t.Fatal(err)
	}
	st.release()
	if rows != snap.Z.R {
		t.Fatalf("streamed %d rows, want %d", rows, snap.Z.R)
	}
	f, err := wire.ReadFrame(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != wire.KindSnapshot || f.Epoch != snap.Epoch || f.Instance != snap.Instance ||
		f.Edges != snap.Edges || int(f.N) != snap.Z.R || int(f.K) != snap.Z.C {
		t.Fatalf("frame header %+v does not match snapshot (epoch %d, %dx%d)",
			f.Header, snap.Epoch, snap.Z.R, snap.Z.C)
	}
	if f.RowIDs != nil {
		t.Fatalf("snapshot frame carries %d explicit row ids, want implicit identity", len(f.RowIDs))
	}
	if len(f.Y) != snap.Z.R {
		t.Fatalf("frame carries %d labels for %d rows", len(f.Y), snap.Z.R)
	}
	for v := range snap.Z.R {
		if want := snap.Z.Label(v); f.Y[v] != want {
			t.Fatalf("Y[%d] = %d, want %d", v, f.Y[v], want)
		}
	}
	row := make([]float64, snap.Z.C)
	for v := 0; v < snap.Z.R; v++ {
		snap.Z.Row(v, row)
		for j, x := range row {
			got := f.Rows[v*snap.Z.C+j]
			if math.Float32bits(got) != math.Float32bits(float32(x)) {
				t.Fatalf("row %d col %d: frame %v, want float32(%v)", v, j, got, x)
			}
		}
	}
}

// TestStreamSnapshotBinaryAbortsOnWriteError mirrors the JSON abort
// test: once the client connection dies mid-frame the streamer must
// stop, not keep pumping the remaining rows into a dead writer.
func TestStreamSnapshotBinaryAbortsOnWriteError(t *testing.T) {
	snap := bigSnapshot(t, 20000, 8)
	fw := &brokenPipeWriter{limit: 30_000}
	st := newStreamer(fw, context.Background())
	rows := streamSnapshotBinary(st, snap)
	st.flush()
	st.release()
	if rows != 0 {
		t.Fatalf("aborted stream reported %d rows, want 0", rows)
	}
	// binRowsPerChunk rows buffer between error checks; anything far
	// beyond one flush after the failure means the abort was ignored.
	if fw.afterFail > 4 {
		t.Fatalf("%d writes attempted after the connection failed", fw.afterFail)
	}
}

// TestStreamSnapshotBinaryAbortsOnCancel: a request context cancelled
// mid-stream (client went away before a write failed) must abort too.
func TestStreamSnapshotBinaryAbortsOnCancel(t *testing.T) {
	snap := bigSnapshot(t, 20000, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cw := &cancelAfterWriter{limit: 30_000, cancel: cancel}
	rows := streamSnapshotBinary(newStreamer(cw, ctx), snap)
	if rows != 0 {
		t.Fatalf("cancelled stream reported %d rows, want 0", rows)
	}
}

// TestBinaryStreamScratchDoesNotScale is the pooling acceptance check:
// steady-state binary streaming must not allocate per row — the
// streamer, its buffered writer, and the scratch chunk all come from
// the pool. Measured by comparing allocations per stream at two sizes
// an order of magnitude apart: per-row allocations would scale ~10×.
func TestBinaryStreamScratchDoesNotScale(t *testing.T) {
	if race.Enabled {
		// Under the race detector sync.Pool deliberately drops a
		// random ~25% of Puts, so pool misses (and their streamer +
		// buffer reallocations) show up stochastically in
		// AllocsPerRun no matter how the streaming code behaves.
		t.Skip("sync.Pool randomly drops Puts under -race; alloc counts are noise")
	}
	small := bigSnapshot(t, 200, 8)
	large := bigSnapshot(t, 2000, 8)
	run := func(snap *dyn.Version) float64 {
		return testing.AllocsPerRun(20, func() {
			st := newStreamer(io.Discard, context.Background())
			if rows := streamSnapshotBinary(st, snap); rows != snap.Z.R {
				t.Fatalf("streamed %d rows, want %d", rows, snap.Z.R)
			}
			st.flush()
			st.release()
		})
	}
	a1 := run(small)
	a2 := run(large)
	if a2 > a1+1 {
		t.Fatalf("allocations scale with rows: %v allocs at n=200, %v at n=2000", a1, a2)
	}
	if a2 > 4 {
		t.Fatalf("binary stream allocates %v times per request, want ~0", a2)
	}
}

// BenchmarkStreamSnapshotJSON / Binary compare the two encoders over
// the same published snapshot. Run with -benchmem: the binary side
// must report 0 allocs/op in steady state, and it streams an order of
// magnitude faster because no float formatting happens per value.
func BenchmarkStreamSnapshotJSON(b *testing.B) {
	snap := benchSnapshot(b, 5000, 10)
	var sent byteCount
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent = 0
		st := newStreamer(&sent, context.Background())
		if rows := streamSnapshot(st, snap, 0, 0); rows != snap.Z.R {
			b.Fatalf("streamed %d rows", rows)
		}
		st.flush()
		b.SetBytes(int64(sent))
		st.release()
	}
}

func BenchmarkStreamSnapshotBinary(b *testing.B) {
	snap := benchSnapshot(b, 5000, 10)
	var sent byteCount
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent = 0
		st := newStreamer(&sent, context.Background())
		if rows := streamSnapshotBinary(st, snap); rows != snap.Z.R {
			b.Fatalf("streamed %d rows", rows)
		}
		st.flush()
		b.SetBytes(int64(sent))
		st.release()
	}
}

// byteCount is a writer that only counts what it is handed.
type byteCount int64

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}
