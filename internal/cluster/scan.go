package cluster

import (
	"math"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// The one distance kernel under both neighbor reads. The exact scan
// (TopK) and the IVF list walk rank rows that sit back to back in
// memory — the matrix itself, or an index's list-major copy of its
// distinct rows — so the kernel streams a contiguous block instead of
// fetching candidates by id, and a query pays for a fork/join only when
// it scans enough rows to amortise one.

// scanGrain is the number of rows a scan must cover per extra worker:
// forking under ~64k rows (tens of microseconds of scanning) costs more
// in wake-ups than it saves.
const scanGrain = 1 << 16

// scanWorkers returns how many workers a scan of rows rows uses: one
// per started scanGrain, capped by the caller's worker count.
func scanWorkers(workers, rows int) int {
	return min(parallel.Workers(workers), rows/scanGrain+1)
}

// query is one nearest-neighbor question: the vector, the metric with
// the vector's norm under it, how many survivors to keep and which row
// id to skip.
type query struct {
	vec     []float64
	m       Metric
	norm    float64 // |vec| under Cosine, unused under L2
	k       int
	exclude int
}

func newQuery(vec []float64, k int, m Metric, exclude int) query {
	return query{vec: vec, m: m, norm: queryNorm(vec, m), k: k, exclude: exclude}
}

// heap returns an empty k-bounded heap with room for every survivor a
// scan of rows rows can produce (pushNeighbor never grows it).
func (q *query) heap(rows int) []Neighbor {
	return make([]Neighbor, 0, min(q.k, rows))
}

// scan offers the n rows stored back to back in rows (n × len(q.vec))
// to the k-bounded heap h and returns it. Row i stands for the one id
// base+i when gs is nil (the block is a window of the matrix itself),
// and for the ascending ids ids[gs[i]:gs[i+1]] otherwise (an IVF list,
// which stores each distinct row once).
// Distances are rowDist's, bit for bit: each row is summed alone, in
// column order. Four rows are walked per iteration only so that their
// independent add chains overlap (one row's is len(vec) dependent adds);
// no row is split across accumulators.
//
//gee:noalloc
func (q *query) scan(h []Neighbor, rows []float64, n int, gs, ids []int32, base int) []Neighbor {
	vec := q.vec
	dim := len(vec)
	rows = rows[:n*dim]
	// bound is the distance a row must not exceed to be worth offering:
	// the heap root's once k rows are kept, +Inf until then.
	bound := q.bound(h)
	i := 0
	if q.m == Cosine {
		for ; i+4 <= n; i += 4 {
			a, rest := rows[:dim], rows[dim:]
			b, rest := rest[:dim], rest[dim:]
			c, rest := rest[:dim], rest[dim:]
			d := rest[:dim]
			rows = rest[dim:]
			var dotA, normA, dotB, normB, dotC, normC, dotD, normD float64
			for j, x := range vec {
				dotA += a[j] * x
				normA += a[j] * a[j]
				dotB += b[j] * x
				normB += b[j] * b[j]
				dotC += c[j] * x
				normC += c[j] * c[j]
				dotD += d[j] * x
				normD += d[j] * d[j]
			}
			if dist := cosineDist(dotA, normA, q.norm); !(dist > bound) {
				h, bound = q.offer(h, gs, ids, base, i, dist)
			}
			if dist := cosineDist(dotB, normB, q.norm); !(dist > bound) {
				h, bound = q.offer(h, gs, ids, base, i+1, dist)
			}
			if dist := cosineDist(dotC, normC, q.norm); !(dist > bound) {
				h, bound = q.offer(h, gs, ids, base, i+2, dist)
			}
			if dist := cosineDist(dotD, normD, q.norm); !(dist > bound) {
				h, bound = q.offer(h, gs, ids, base, i+3, dist)
			}
		}
	} else {
		for ; i+4 <= n; i += 4 {
			a, rest := rows[:dim], rows[dim:]
			b, rest := rest[:dim], rest[dim:]
			c, rest := rest[:dim], rest[dim:]
			d := rest[:dim]
			rows = rest[dim:]
			var da, db, dc, dd float64
			for j, x := range vec {
				ea := a[j] - x
				da += ea * ea
				eb := b[j] - x
				db += eb * eb
				ec := c[j] - x
				dc += ec * ec
				ed := d[j] - x
				dd += ed * ed
			}
			if !(da > bound) {
				h, bound = q.offer(h, gs, ids, base, i, da)
			}
			if !(db > bound) {
				h, bound = q.offer(h, gs, ids, base, i+1, db)
			}
			if !(dc > bound) {
				h, bound = q.offer(h, gs, ids, base, i+2, dc)
			}
			if !(dd > bound) {
				h, bound = q.offer(h, gs, ids, base, i+3, dd)
			}
		}
	}
	for ; i < n; i++ {
		if dist := rowDist(rows[:dim], vec, q.m, q.norm); !(dist > bound) {
			h, bound = q.offer(h, gs, ids, base, i, dist)
		}
		rows = rows[dim:]
	}
	return h
}

// nearestRow returns the row of block nearest to vec under squared L2,
// with that squared distance; ties go to the lower row. It is the k = 1
// scan, which k-means and the IVF list assignment run once per point
// against the centroid block.
func nearestRow(vec []float64, block *mat.Dense) (int, float64) {
	q := query{vec: vec, k: 1, exclude: -1}
	var one [1]Neighbor
	nb := q.scan(one[:0], block.Data, block.R, nil, nil, 0)[0]
	return nb.V, nb.Dist
}

// offer pushes the ids block row i stands for (scan's gs and ids) at
// distance d, all but the excluded one, and returns the heap with its
// new bound. The scan calls it only for rows that pass the bound, so
// the common row costs one comparison. A group's ids share d and
// ascend, so the first one the heap refuses loses the tie to its root,
// and so does every later one: the group stops there.
//
//gee:noalloc
func (q *query) offer(h []Neighbor, gs, ids []int32, base, i int, d float64) ([]Neighbor, float64) {
	if gs == nil {
		if v := base + i; v != q.exclude {
			h = pushNeighbor(h, q.k, Neighbor{V: v, Dist: d})
		}
		return h, q.bound(h)
	}
	for _, id := range ids[gs[i]:gs[i+1]] {
		v := int(id)
		if v == q.exclude {
			continue
		}
		nb := Neighbor{V: v, Dist: d}
		if len(h) == q.k && !worse(h[0], nb) {
			break
		}
		h = pushNeighbor(h, q.k, nb)
	}
	return h, q.bound(h)
}

//gee:noalloc
func (q *query) bound(h []Neighbor) float64 {
	if len(h) < q.k {
		return math.Inf(1)
	}
	return h[0].Dist
}

// queryNorm precomputes the query's norm for Cosine (a zero query is
// indifferent to everything — all distances 1 — which cosineDist
// handles by construction); L2 needs nothing.
func queryNorm(query []float64, m Metric) float64 {
	if m != Cosine {
		return 0
	}
	return math.Sqrt(sqNorm(query))
}

// rowDist is the per-candidate distance every neighbor read ranks by:
// *squared* L2 (the sqrt is deferred to finalizeNeighbors — one per
// survivor beats one per row) or the cosine distance 1 − cos.
//
//gee:noalloc
func rowDist(row, query []float64, m Metric, qNorm float64) float64 {
	if m == Cosine {
		var dot, norm float64
		for c, x := range row {
			dot += x * query[c]
			norm += x * x
		}
		return cosineDist(dot, norm, qNorm)
	}
	var d float64
	for c, x := range row {
		diff := x - query[c]
		d += diff * diff
	}
	return d
}

// cosineDist finishes a cosine distance from a row's dot product with
// the query and its squared norm; a zero row or query is at distance 1.
//
//gee:noalloc
func cosineDist(dot, norm, qNorm float64) float64 {
	if denom := math.Sqrt(norm) * qNorm; denom > 0 {
		return 1 - dot/denom
	}
	return 1
}

// pushNeighbor keeps h a k-bounded worst-at-root heap of the nearest
// candidates seen so far (partial selection — nothing is ever sorted
// until the k survivors are merged). h must have been made with room
// for every survivor it can hold (query.heap): a push never allocates.
//
//gee:noalloc
func pushNeighbor(h []Neighbor, k int, nb Neighbor) []Neighbor {
	if len(h) < k {
		h = h[:len(h)+1]
		h[len(h)-1] = nb
		siftUp(h, len(h)-1)
	} else if worse(h[0], nb) {
		h[0] = nb
		siftDown(h, 0)
	}
	return h
}

// worse reports whether a ranks strictly after b: farther, or equally
// far with a higher id. It is both the heap order (root = worst kept)
// and, through compareNeighbors, the output order.
//
//gee:noalloc
func worse(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.V > b.V
}

// compareNeighbors is the output order for slices.SortFunc: nearest
// first, ties by ascending id.
func compareNeighbors(a, b Neighbor) int {
	switch {
	case worse(b, a):
		return -1
	case worse(a, b):
		return 1
	}
	return 0
}

// siftUp/siftDown maintain a worst-at-root heap of Neighbors — inlined
// rather than container/heap so the hot per-row replacement does not
// box a value per candidate.
//
//gee:noalloc
func siftUp(h []Neighbor, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

//gee:noalloc
func siftDown(h []Neighbor, i int) {
	n := len(h)
	for {
		worst := i
		if l := 2*i + 1; l < n && worse(h[l], h[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && worse(h[r], h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
