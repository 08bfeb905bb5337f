package exec

import (
	"repro/internal/atomicx"
	"repro/internal/graph"
)

// unlabelled is the walk's label for a vertex with no class.
const unlabelled = 0xFFFF

// walkLabels narrows a class vector to the walk's two-byte labels, once
// per Run: an O(n) pass against the walk's O(m). (One-byte labels
// measured no faster at K = 50, n = 2^20.)
func walkLabels(y []int32) []uint16 {
	lab := make([]uint16, len(y))
	for x, c := range y {
		lab[x] = uint16(c) | uint16(c>>31) // c>>31 is all ones for a negative c, else 0
	}
	return lab
}

// walk is the one row-major CSR arc walk every CSR strategy shares: it
// applies the kernel over the arc lists of vertices [lo, hi) into z and
// returns the number of adds performed. The strategies differ only in
// which rows a worker walks, into which buffer, and in the two flags:
// atomic selects lock-free atomic adds (Ligra's writeAdd — a walked row
// also receives dst halves from other workers' arcs) over plain ones,
// and dst=false applies only the src halves, the writes into the walked
// rows (the sharded executor routes dst halves through its buckets).
//
// An arc's one scattered load is its target's two-byte label; each
// half's magnitude comes from the Width-entry class table. Everything
// keyed by the source u is read once per row, not once per arc: the row
// slice the src halves land in, u's label, its coefficient and its
// scale. An unlabelled source contributes no dst half on any of its
// arcs, and an arc with neither half labelled is skipped before its
// weight is read. Both adds compile in line — no closure or function
// value per arc — and the products are formed in Kernel.Apply's order,
// so a one-worker walk is bit-identical to a plain Apply loop.
//
//gee:noalloc
func walk[T Float](g *graph.CSR, k *Kernel[T], z []T, lo, hi int, dst, atomic bool) int64 {
	width, lab, cls, scale := k.Width, k.lab, k.cls, k.Scale
	var adds int64
	for u := lo; u < hi; u++ {
		alo, ahi := g.Offsets[u], g.Offsets[u+1]
		targets := g.Targets[alo:ahi]
		var weights []float32
		if g.Weights != nil {
			weights = g.Weights[alo:ahi]
		}
		row := z[u*width : (u+1)*width]
		cu, au, su := uint16(unlabelled), T(0), T(1)
		if dst && lab[u] != unlabelled {
			cu = lab[u]
			au = cls[cu]
		}
		if scale != nil {
			su = scale[u]
		}
		for j, v := range targets {
			cv := lab[v]
			if cv == unlabelled && cu == unlabelled {
				continue
			}
			s := T(1)
			if weights != nil {
				s = T(weights[j])
			}
			if scale != nil {
				s *= su * scale[v]
			}
			if cv != unlabelled {
				if atomic {
					atomicx.Add(&row[cv], cls[cv]*s)
				} else {
					row[cv] += cls[cv] * s
				}
				adds++
			}
			if cu != unlabelled {
				if atomic {
					atomicx.Add(&z[int(v)*width+int(cu)], au*s)
				} else {
					z[int(v)*width+int(cu)] += au * s
				}
				adds++
			}
		}
	}
	return adds
}
