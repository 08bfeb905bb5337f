// Package exec is the unified edge-kernel execution layer of the GEE
// reproduction. The paper's central observation is that every GEE variant
// is the same computation — a single pass over the edges applying two
// per-arc contributions into the embedding matrix Z — and that the
// implementations differ only in *how* the concurrent writes are
// resolved. This package makes that split explicit:
//
//   - Kernel[T] carries the per-edge math in data form (which column each
//     half-update lands in, its magnitude, an optional per-vertex scale).
//   - An executor Strategy decides scheduling and write discipline:
//     Serial (one worker, plain adds), Atomic (Ligra's lock-free
//     writeAdd), Racy (the paper's atomics-off ablation), Replicated
//     (per-worker private Z buffers + reduction), and ShardedDest (a
//     contention-free destination-range sharding with plain writes).
//
// The gee package builds kernels for each variant (standard and
// Laplacian) and delegates execution here. The CSR strategies
// share one arc walk (walk.go), so the update loop exists once, not
// once per variant × strategy.
package exec

import (
	"fmt"

	"repro/internal/atomicx"
	"repro/internal/graph"
)

// Float constrains the embedding cell type. The paper's pipeline is
// float64; only this package's tests instantiate float32.
type Float interface {
	~float32 | ~float64
}

// Kernel is one GEE-style edge-map workload in data form. For each
// stored arc (u, v, w) up to two half-updates apply to the row-major
// embedding buffer z (row stride Width):
//
//	src side: z[u·Width + SrcCol[v]] += Coeff[v] · s   (skipped when SrcCol[v] < 0)
//	dst side: z[v·Width + DstCol[u]] += Coeff[u] · s   (skipped when DstCol[u] < 0)
//
// where s = w · Scale[u] · Scale[v] (s = w when Scale is nil). The
// column arrays are indexed by the *labeled* endpoint of each
// half-update — the one whose class determines the column — which is how
// Algorithm 1's two updates Z(u,Y(v)) and Z(v,Y(u)) are both expressed
// by one kernel:
//
//   - standard GEE: SrcCol = DstCol = Y (labels are already the columns,
//     with negative = unlabeled), Coeff[x] = 1/count(Y = Y(x)).
//   - Laplacian GEE: additionally Scale[x] = 1/sqrt(deg(x)), so
//     s = w/sqrt(deg(u)·deg(v)).
type Kernel[T Float] struct {
	// Width is the number of columns of Z (K).
	Width int
	// SrcCol[v] is the column of the update landing in the source row u
	// of an arc (u, v); negative skips the update (unlabeled v).
	SrcCol []int32
	// DstCol[u] is the column of the update landing in the target row v
	// of an arc (u, v); negative skips the update (unlabeled u).
	DstCol []int32
	// Coeff[x] is the contribution magnitude of the half-update keyed by
	// labeled endpoint x (Algorithm 1's W(x, Y(x))).
	Coeff []T
	// Scale is an optional per-vertex multiplicative factor applied to
	// both half-updates of an arc (nil = 1). The Laplacian variant sets
	// Scale[x] = 1/sqrt(deg(x)).
	Scale []T
}

// validate checks the kernel arrays against a vertex count and buffer.
func (k *Kernel[T]) validate(n int, zlen int) error {
	if k.Width <= 0 {
		return fmt.Errorf("exec: kernel width %d", k.Width)
	}
	if len(k.SrcCol) != n || len(k.DstCol) != n || len(k.Coeff) != n {
		return fmt.Errorf("exec: kernel arrays (%d src, %d dst, %d coeff) for %d vertices",
			len(k.SrcCol), len(k.DstCol), len(k.Coeff), n)
	}
	if k.Scale != nil && len(k.Scale) != n {
		return fmt.Errorf("exec: %d scale entries for %d vertices", len(k.Scale), n)
	}
	if zlen != n*k.Width {
		return fmt.Errorf("exec: buffer length %d, want n×Width = %d", zlen, n*k.Width)
	}
	return nil
}

// Writes reports which rows the arc (u, v) writes: row u when its
// source half lands (SrcCol[v] ≥ 0), row v when its destination half
// does (DstCol[u] ≥ 0) — the skip rule every Apply variant below uses.
// Callers that track what a fold touched ask here rather than restating
// it.
//
//gee:noalloc
func (k *Kernel[T]) Writes(u, v graph.NodeID) (src, dst bool) {
	return k.SrcCol[v] >= 0, k.DstCol[u] >= 0
}

// scale returns the per-arc multiplicative factor s for (u, v, w).
//
//gee:noalloc
func (k *Kernel[T]) scale(u, v graph.NodeID, w float32) T {
	s := T(w)
	if k.Scale != nil {
		s *= k.Scale[u] * k.Scale[v]
	}
	return s
}

// Apply performs both half-updates of arc (u, v, w) into z with plain
// adds and returns the number of adds performed. Used by the serial
// executors and by callers that own disjoint slices of z.
//
//gee:noalloc
func (k *Kernel[T]) Apply(z []T, u, v graph.NodeID, w float32) int64 {
	s := k.scale(u, v, w)
	adds := int64(0)
	if c := k.SrcCol[v]; c >= 0 {
		z[int(u)*k.Width+int(c)] += k.Coeff[v] * s
		adds++
	}
	if c := k.DstCol[u]; c >= 0 {
		z[int(v)*k.Width+int(c)] += k.Coeff[u] * s
		adds++
	}
	return adds
}

// ApplySrc performs only the source-side half-update (the write into row
// u), returning the number of adds (0 or 1). The sharded executor uses
// the split halves to keep every write inside the worker's owned row
// range.
//
//gee:noalloc
func (k *Kernel[T]) ApplySrc(z []T, u, v graph.NodeID, w float32) int64 {
	if c := k.SrcCol[v]; c >= 0 {
		z[int(u)*k.Width+int(c)] += k.Coeff[v] * k.scale(u, v, w)
		return 1
	}
	return 0
}

// ApplyDst performs only the destination-side half-update (the write
// into row v), returning the number of adds (0 or 1).
//
//gee:noalloc
func (k *Kernel[T]) ApplyDst(z []T, u, v graph.NodeID, w float32) int64 {
	if c := k.DstCol[u]; c >= 0 {
		z[int(v)*k.Width+int(c)] += k.Coeff[u] * k.scale(u, v, w)
		return 1
	}
	return 0
}

// ApplyAtomic is Apply with both half-updates performed as lock-free
// atomic adds (Ligra's writeAdd). It serves the one arc stream with no
// ownership structure, edge slices (AtomicEdges).
//
//gee:noalloc
func (k *Kernel[T]) ApplyAtomic(z []T, u, v graph.NodeID, w float32) int64 {
	s := k.scale(u, v, w)
	adds := int64(0)
	if c := k.SrcCol[v]; c >= 0 {
		atomicx.Add(&z[int(u)*k.Width+int(c)], k.Coeff[v]*s)
		adds++
	}
	if c := k.DstCol[u]; c >= 0 {
		atomicx.Add(&z[int(v)*k.Width+int(c)], k.Coeff[u]*s)
		adds++
	}
	return adds
}
