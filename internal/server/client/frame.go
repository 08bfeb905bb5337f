package client

import (
	"fmt"

	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Conversions from decoded wire frames to the JSON response structs,
// so a binary-mode client is a drop-in replacement: callers see the
// same types whichever format the server answered with. Rows widen
// float32 → float64 exactly (every float32 is representable), so a
// value surviving binary → float64 → float32 round trips bit-exactly.

// rowsToF64 converts a frame's float32 payload into per-row float64
// slices over one backing array.
func rowsToF64(rows []float32, n, k int) [][]float64 {
	out := make([][]float64, n)
	flat := make([]float64, n*k)
	for i, x := range rows {
		flat[i] = float64(x)
	}
	for i := range out {
		out[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return out
}

// snapshotFrameShape checks that f is a self-consistent snapshot frame:
// every one of its N rows present in identity order, one label each.
func snapshotFrameShape(f *wire.Frame) error {
	if f.Kind != wire.KindSnapshot {
		return fmt.Errorf("client: frame kind %d answering a snapshot request", f.Kind)
	}
	if f.NRows != f.N || f.RowIDs != nil || uint32(len(f.Y)) != f.N {
		return fmt.Errorf("client: snapshot frame shape n=%d rows=%d ids=%d labels=%d",
			f.N, f.NRows, len(f.RowIDs), len(f.Y))
	}
	return nil
}

// frameInto fills one of the row-carrying response structs from a
// frame, validating that the frame kind and shape match what the
// caller asked for.
func frameInto(f *wire.Frame, out any) error {
	switch o := out.(type) {
	case *server.SnapshotResponse:
		if err := snapshotFrameShape(f); err != nil {
			return err
		}
		n, k := int(f.N), int(f.K)
		o.Epoch, o.Instance = f.Epoch, f.Instance
		o.N, o.K, o.Edges = n, k, f.Edges
		o.Y = append([]int32(nil), f.Y...)
		o.Z = rowsToF64(f.Rows, n, k)
		return nil
	case *server.BatchEmbeddingResponse:
		if f.Kind != wire.KindEmbeddings {
			return fmt.Errorf("client: frame kind %d answering an embeddings request", f.Kind)
		}
		// The server frames a batched read only when one snapshot (shard
		// 0's) answered all of it.
		o.Epoch, o.Epochs = f.Epoch, shard.EpochVector{0: f.Epoch}
		o.Rows = rowsToF64(f.Rows, int(f.NRows), int(f.K))
		return nil
	default:
		return fmt.Errorf("client: server sent a binary frame for %T, which has no frame form", out)
	}
}
