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
// scale. The products are formed in Kernel.Apply's order, so a
// one-worker walk is bit-identical to a plain Apply loop.
//
// walk has two forms, chosen per call from the input alone. With unit
// weights and no scale (g.Weights and k.Scale nil: the standard variant
// on an unweighted graph) every arc's factor is 1 and c·1 == c exactly,
// so the unit form adds cls[c] itself and each cell receives the
// general form's values in the same order, bit for bit. Its two loops,
// one per write discipline (walkUnitAtomic, walkUnitPlain), test no
// weight, scale or flag per arc, and split each row on its source's
// label: an unlabelled source's arcs load and test one label and apply
// src halves only. The general form reads the weight and the scale per
// arc, and skips an arc with neither half labelled before its weight is
// read. Either way both adds compile in line — no closure or function
// value per arc.
//
//gee:noalloc
func walk[T Float](g *graph.CSR, k *Kernel[T], z []T, lo, hi int, dst, atomic bool) int64 {
	if g.Weights == nil && k.Scale == nil {
		if atomic {
			return walkUnitAtomic(g, k, z, lo, hi)
		}
		return walkUnitPlain(g, k, z, lo, hi, dst)
	}
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

// walkUnitAtomic is walk's unit form with atomic adds on both halves
// (Atomic, which always applies dst halves).
//
//gee:noalloc
func walkUnitAtomic[T Float](g *graph.CSR, k *Kernel[T], z []T, lo, hi int) int64 {
	width, lab, cls := k.Width, k.lab, k.cls
	var adds int64
	for u := lo; u < hi; u++ {
		targets := g.Targets[g.Offsets[u]:g.Offsets[u+1]]
		row := z[u*width : (u+1)*width]
		cu := lab[u]
		if cu == unlabelled {
			for _, v := range targets {
				if cv := lab[v]; cv != unlabelled {
					atomicx.Add(&row[cv], cls[cv])
					adds++
				}
			}
			continue
		}
		au := cls[cu]
		adds += int64(len(targets))
		for _, v := range targets {
			if cv := lab[v]; cv != unlabelled {
				atomicx.Add(&row[cv], cls[cv])
				adds++
			}
			atomicx.Add(&z[int(v)*width+int(cu)], au)
		}
	}
	return adds
}

// walkUnitPlain is walk's unit form with plain adds (Serial, Racy,
// Replicated, and ShardedDest's src-only pass with dst=false).
//
//gee:noalloc
func walkUnitPlain[T Float](g *graph.CSR, k *Kernel[T], z []T, lo, hi int, dst bool) int64 {
	width, lab, cls := k.Width, k.lab, k.cls
	var adds int64
	for u := lo; u < hi; u++ {
		targets := g.Targets[g.Offsets[u]:g.Offsets[u+1]]
		row := z[u*width : (u+1)*width]
		cu := uint16(unlabelled)
		if dst {
			cu = lab[u]
		}
		if cu == unlabelled {
			for _, v := range targets {
				if cv := lab[v]; cv != unlabelled {
					row[cv] += cls[cv]
					adds++
				}
			}
			continue
		}
		au := cls[cu]
		adds += int64(len(targets))
		for _, v := range targets {
			if cv := lab[v]; cv != unlabelled {
				row[cv] += cls[cv]
				adds++
			}
			z[int(v)*width+int(cu)] += au
		}
	}
	return adds
}
