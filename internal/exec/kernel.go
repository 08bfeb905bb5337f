// Package exec is the unified edge-kernel execution layer of the GEE
// reproduction. The paper's central observation is that every GEE variant
// is the same computation — a single pass over the edges applying two
// per-arc contributions into the embedding matrix Z — and that the
// implementations differ only in *how* the concurrent writes are
// resolved. This package makes that split explicit:
//
//   - Kernel[T] carries the per-edge math in data form (each vertex's
//     class, which is the column its half-updates land in, one magnitude
//     per class, an optional per-vertex scale).
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
// embedding buffer z (row stride Width), keyed by the class y of the
// other endpoint:
//
//	src side: z[u·Width + y[v]] += cls[y[v]] · s   (skipped when y[v] < 0)
//	dst side: z[v·Width + y[u]] += cls[y[u]] · s   (skipped when y[u] < 0)
//
// where s = w · Scale[u] · Scale[v] (s = w when Scale is nil). Standard
// GEE has cls[c] = 1/count(Y = c), Algorithm 1's W(x, Y(x)) held once
// per class; Laplacian GEE adds Scale[x] = 1/sqrt(deg(x)).
//
// NewKernel builds that class form. A Kernel written field by field in
// the literal per-vertex form (SrcCol, DstCol, Coeff) is converted at
// every entry point in one O(n) pass, and refused unless DstCol equals
// SrcCol and Coeff is one value per class.
type Kernel[T Float] struct {
	// Width is the number of columns of Z (K).
	Width int
	// SrcCol and DstCol are y, the class of each vertex (negative =
	// unlabeled); NewKernel sets both.
	SrcCol, DstCol []int32
	// Coeff[x] is the literal form's Algorithm 1 W(x, Y(x)); nil in the
	// class form.
	Coeff []T
	// Scale is an optional per-vertex multiplicative factor applied to
	// both half-updates of an arc (nil = 1).
	Scale []T

	cls []T      // Width entries: the magnitude of a half-update keyed by class c
	lab []uint16 // Run's two-byte copy of the classes, for the walk
}

// NewKernel returns the class form of a kernel over width columns: y[x]
// is the class of vertex x (negative = unlabelled), classCoeff[c] the
// magnitude of every half-update keyed by a vertex of class c, and scale
// the optional per-vertex factor. The kernel aliases y, so later writes
// to it are seen by later folds.
func NewKernel[T Float](width int, y []int32, classCoeff, scale []T) Kernel[T] {
	return Kernel[T]{Width: width, SrcCol: y, DstCol: y, Scale: scale, cls: classCoeff}
}

// classForm validates the kernel against a vertex count and buffer and
// returns it in class form, folding a literal kernel's Coeff into the
// class table.
func (k Kernel[T]) classForm(n int, zlen int) (Kernel[T], error) {
	switch {
	case k.Width <= 0 || zlen != n*k.Width:
		return k, fmt.Errorf("exec: width %d and buffer length %d for %d vertices", k.Width, zlen, n)
	case len(k.SrcCol) != n || len(k.DstCol) != n || (k.Scale != nil && len(k.Scale) != n):
		return k, fmt.Errorf("exec: kernel arrays (%d src, %d dst, %d scale) for %d vertices",
			len(k.SrcCol), len(k.DstCol), len(k.Scale), n)
	case k.cls == nil && len(k.Coeff) != n:
		return k, fmt.Errorf("exec: %d coefficients for %d vertices", len(k.Coeff), n)
	}
	if k.cls == nil {
		k.cls = make([]T, k.Width)
		set := make([]bool, k.Width)
		for x, c := range k.SrcCol {
			switch {
			case k.DstCol[x] != c || int(c) >= k.Width:
				return k, fmt.Errorf("exec: vertex %d has columns %d and %d of %d", x, c, k.DstCol[x], k.Width)
			case c < 0:
			case !set[c]:
				k.cls[c], set[c] = k.Coeff[x], true
			case k.cls[c] != k.Coeff[x]:
				return k, fmt.Errorf("exec: column %d has coefficients %v and %v", c, k.cls[c], k.Coeff[x])
			}
		}
		k.Coeff = nil
	}
	if len(k.cls) != k.Width {
		return k, fmt.Errorf("exec: %d class coefficients for width %d", len(k.cls), k.Width)
	}
	return k, nil
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
		z[int(u)*k.Width+int(c)] += k.cls[c] * s
		adds++
	}
	if c := k.DstCol[u]; c >= 0 {
		z[int(v)*k.Width+int(c)] += k.cls[c] * s
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
		z[int(u)*k.Width+int(c)] += k.cls[c] * k.scale(u, v, w)
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
		z[int(v)*k.Width+int(c)] += k.cls[c] * k.scale(u, v, w)
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
		atomicx.Add(&z[int(u)*k.Width+int(c)], k.cls[c]*s)
		adds++
	}
	if c := k.DstCol[u]; c >= 0 {
		atomicx.Add(&z[int(v)*k.Width+int(c)], k.cls[c]*s)
		adds++
	}
	return adds
}
