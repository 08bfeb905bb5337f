package exec

import (
	"repro/internal/atomicx"
	"repro/internal/graph"
)

// walk is the one row-major CSR arc walk every CSR strategy shares: it
// applies the kernel over the arc lists of vertices [lo, hi) into z and
// returns the number of adds performed. The strategies differ only in
// which rows a worker walks, into which buffer, and in the two flags:
// atomic selects lock-free atomic adds (Ligra's writeAdd — a walked row
// also receives dst halves from other workers' arcs) over plain ones,
// and dst=false applies only the src halves, the writes into the walked
// rows (the sharded executor routes dst halves through its buckets).
//
// Everything keyed by the source u is read once per row, not once per
// arc: the row slice the src halves land in, DstCol[u], Coeff[u],
// Scale[u]. An unlabelled source contributes no dst half on any of its
// arcs, and an arc with neither half labelled is skipped before its
// weight is read. Both adds compile in line — no closure or function
// value per arc — and the products are formed in Kernel.Apply's order,
// so a one-worker walk is bit-identical to a plain Apply loop.
//
//gee:noalloc
func walk[T Float](g *graph.CSR, k *Kernel[T], z []T, lo, hi int, dst, atomic bool) int64 {
	width, srcCol, coeff, scale := k.Width, k.SrcCol, k.Coeff, k.Scale
	var adds int64
	for u := lo; u < hi; u++ {
		alo, ahi := g.Offsets[u], g.Offsets[u+1]
		targets := g.Targets[alo:ahi]
		var weights []float32
		if g.Weights != nil {
			weights = g.Weights[alo:ahi]
		}
		row := z[u*width : (u+1)*width]
		cu, au, su := int32(-1), coeff[u], T(1)
		if dst {
			cu = k.DstCol[u]
		}
		if scale != nil {
			su = scale[u]
		}
		for j, v := range targets {
			cv := srcCol[v]
			if cv < 0 && cu < 0 {
				continue
			}
			s := T(1)
			if weights != nil {
				s = T(weights[j])
			}
			if scale != nil {
				s *= su * scale[v]
			}
			if cv >= 0 {
				if atomic {
					atomicx.Add(&row[cv], coeff[v]*s)
				} else {
					row[cv] += coeff[v] * s
				}
				adds++
			}
			if cu >= 0 {
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
