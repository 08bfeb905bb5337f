package cluster

import (
	"math"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// Inverted-file (IVF) nearest-neighbor index over an embedding
// snapshot, exact by branch and bound.
//
// GEE rows repeat. A row sums w/n_k over the vertex's labelled
// neighbours, so with unit weights and sparse labels it depends only on
// how many labelled neighbours the vertex has in each class: base100k
// has ~8,000 distinct rows among 100,000, 6,115 of them all zero.
// BuildIVF stores each distinct row once, with the ascending ids of
// every row equal to it bit for bit, clusters the distinct rows into
// k-means lists, lays the lists out back to back (list-major, so a list
// is one contiguous block for the scan kernel) and records each list's
// covering radius around its centroid.
//
// Search visits the lists in ascending lower bound on the distance of
// any member and stops once that bound ranks after the k-th best
// neighbor found so far: Fukunaga & Narendra's branch and bound ("A branch and
// bound algorithm for computing k-nearest neighbors", IEEE Trans.
// Computers, 1975) over the index's lists. The answer is TopK's, id for
// id and distance bit for bit, for finite rows and queries:
//   - identical bits give identical distances under both metrics, so
//     one distance stands for the whole group;
//   - a group's ids are offered in ascending order, the order TopK's
//     tie rule wants;
//   - every radius and bound carries boundSlack, so rounding can never
//     prune a list holding a row that ties the k-th best.
//
// Both bounds come from the triangle inequality. Under L2 a member x of
// a list with centroid c and radius r_c has ‖x − q‖ ≥ ‖q − c‖ − r_c.
// Under Cosine, 1 − cos(x, q) = ‖x̂ − q̂‖²/2 for nonzero x and q, and the
// chordal distance ‖x̂ − q̂‖ is a metric on unit directions, so with ĉ
// the centroid's direction and ρ_c the largest ‖x̂ − ĉ‖ in the list,
// 1 − cos ≥ max(0, ‖q̂ − ĉ‖ − ρ_c)²/2. A zero row has no direction:
// cosineDist puts it at exactly 1, so a list holding one caps its bound
// there.

// boundSlack widens the bounds against rounding. A computed squared L2
// distance is within ~dim·2⁻⁵³ of the true one relatively, a computed
// cosine distance within ~dim·2⁻⁵³ absolutely; 1e-9 stays far above
// both and far below any gap worth pruning on.
const boundSlack = 1e-9

// IVFOptions configures BuildIVF. Only the zero value can be written
// outside this package: the walk is exact whatever the clustering, so
// nothing a caller could tune changes an answer. The fields exist for
// this package's tests, which shape the lists to reach the walk's
// corner cases.
type IVFOptions struct {
	// lists is the number of inverted lists (k-means centroids);
	// <= 0 selects ~sqrt(distinct rows).
	lists int
	// trainRows bounds the k-means training sample: above it the
	// centroids are fit on a random sample of the distinct rows and
	// only the final list assignment sees every one (one pass). <= 0
	// selects 16384.
	trainRows int
	// maxIter bounds the k-means iterations. A better clustering only
	// prunes more, so this stays small. <= 0 selects 8.
	maxIter int
	// seed drives the k-means seeding and training sample.
	seed uint64
}

// IVF is a built index. It owns the rows it indexes — BuildIVF copies
// them, list by list — so it holds no reference to the matrix it was
// built from. Immutable after BuildIVF and safe for concurrent Search
// calls.
type IVF struct {
	n, dim int
	// rows holds the distinct rows back to back, list-major: list c is
	// block rows [off[c], off[c+1]), and block row j stands for the
	// rows ids[gs[j]:gs[j+1]] of the indexed matrix, ascending.
	rows []float64
	gs   []int32
	ids  []int32
	off  []int
	cent *mat.Dense // nlist × dim centroids
	// The per-list bounds, slack included. unit holds the centroids'
	// directions (nlist × dim; a row stays zero when its centroid has
	// none, which makes every cosine bound of that list vacuous); rad
	// is the L2 covering radius r_c, chord the cosine one ρ_c; cosCap
	// is the most a cosine bound of the list may claim: 1 when it holds
	// the zero row, -Inf when it holds a row too small or large to
	// normalise reliably, +Inf otherwise.
	unit               []float64
	rad, chord, cosCap []float64
}

// Visit is what one Search read: the inverted lists it scanned and the
// distinct rows in them.
type Visit struct {
	Lists, Rows int
}

// BuildIVF groups the rows of X by their bits, clusters the distinct
// rows into inverted lists and copies them into the index; X is not
// read after BuildIVF returns. Deterministic for a given seed and
// independent of the worker count.
func BuildIVF(workers int, X *mat.Dense, opts IVFOptions) *IVF {
	n, dim := X.R, X.C
	if n == 0 {
		return &IVF{dim: dim}
	}
	grp, rep := distinctRows(X)
	d := len(rep)
	nlist := opts.lists
	if nlist <= 0 {
		nlist = int(math.Sqrt(float64(d)))
	}
	nlist = min(max(nlist, 1), d)
	maxIter := opts.maxIter
	if maxIter <= 0 {
		maxIter = 8
	}
	trainRows := opts.trainRows
	if trainRows <= 0 {
		trainRows = 16384
	}
	// Fit centroids on a bounded sample of the distinct rows: k-means is
	// O(iter·rows·nlist·K) and the walk only needs cells, not per-row
	// convergence.
	var train *mat.Dense
	if d > trainRows {
		r := xrand.NewStream(opts.seed, 7)
		train = mat.NewDense(trainRows, dim)
		for i := 0; i < trainRows; i++ {
			copy(train.Row(i), X.Row(int(rep[r.Intn(d)])))
		}
	} else {
		train = mat.NewDense(d, dim)
		for g, v := range rep {
			copy(train.Row(g), X.Row(int(v)))
		}
	}
	cent := KMeans(workers, train, nlist, opts.seed, maxIter).Centroids
	nlist = cent.R // KMeans clamps k to its row count
	unit := make([]float64, nlist*dim)
	for c := 0; c < nlist; c++ {
		row := cent.Row(c)
		if norm2 := sqNorm(row); directional(norm2) {
			inv := 1 / math.Sqrt(norm2)
			for j, x := range row {
				unit[c*dim+j] = x * inv
			}
		}
	}

	// Assign every distinct row to its nearest centroid (one parallel
	// pass), measuring its distance to the list's centre under both
	// metrics.
	assign := make([]int32, d)
	l2 := make([]float64, d)
	chord := make([]float64, d)
	parallel.ForStatic(parallel.Workers(workers), d, func(_, lo, hi int) {
		for g := lo; g < hi; g++ {
			row := X.Row(int(rep[g]))
			c, d2 := nearestRow(row, cent)
			assign[g] = int32(c)
			l2[g] = math.Sqrt(d2)
			chord[g] = chordTo(row, unit[c*dim:(c+1)*dim])
		}
	})

	// Lay the lists out back to back: a counting sort of the distinct
	// rows by list, in group order, then each row's ids in id order so
	// every group ascends.
	ix := &IVF{
		n: n, dim: dim, cent: cent, unit: unit,
		rows: make([]float64, d*dim), gs: make([]int32, d+1), ids: make([]int32, n),
		off: make([]int, nlist+1), rad: make([]float64, nlist),
		chord: make([]float64, nlist), cosCap: make([]float64, nlist),
	}
	for _, c := range assign {
		ix.off[c+1]++
	}
	for c := 0; c < nlist; c++ {
		ix.off[c+1] += ix.off[c]
		ix.cosCap[c] = math.Inf(1)
	}
	next := append([]int(nil), ix.off[:nlist]...)
	pos := make([]int32, d)
	for g, c := range assign {
		j := next[c]
		next[c]++
		pos[g] = int32(j)
		copy(ix.rows[j*dim:(j+1)*dim], X.Row(int(rep[g])))
		ix.rad[c] = max(ix.rad[c], l2[g])
		switch ch := chord[g]; ch {
		case chordZero:
			ix.cosCap[c] = min(ix.cosCap[c], 1)
		case chordNone:
			ix.cosCap[c] = math.Inf(-1)
		default:
			ix.chord[c] = max(ix.chord[c], ch)
		}
	}
	for c := 0; c < nlist; c++ {
		ix.rad[c] *= 1 + boundSlack
		ix.chord[c] += boundSlack
	}
	for _, g := range grp {
		ix.gs[pos[g]+1]++
	}
	for j := 0; j < d; j++ {
		ix.gs[j+1] += ix.gs[j]
	}
	fill := append([]int32(nil), ix.gs[:d]...)
	for v, g := range grp {
		j := pos[g]
		ix.ids[fill[j]] = int32(v)
		fill[j]++
	}
	return ix
}

// distinctRows groups the rows of X by their bits: grp[v] is row v's
// group and rep[g] the lowest id in group g, groups numbered in order
// of that id. Rows with equal bits have equal distances to any query
// under both metrics, so grouping by bits is exact (a -0.0 and a +0.0
// row stay apart, which costs nothing but a duplicate). An
// open-addressing table of group numbers keyed by a hash of the bits
// keeps this one pass with no per-row allocation.
func distinctRows(X *mat.Dense) (grp, rep []int32) {
	n := X.R
	bits := 1
	for 1<<bits < 2*n {
		bits++
	}
	tab := make([]int32, 1<<bits) // group+1; 0 is an empty slot
	mask := len(tab) - 1
	grp = make([]int32, n)
	for v := 0; v < n; v++ {
		row := X.Row(v)
		for i := int(rowHash(row) >> (64 - bits)); ; i = (i + 1) & mask {
			g := tab[i] - 1
			if g < 0 {
				g = int32(len(rep))
				rep = append(rep, int32(v))
				tab[i] = g + 1
			} else if !sameBits(row, X.Row(int(rep[g]))) {
				continue
			}
			grp[v] = g
			break
		}
	}
	return grp, rep
}

// rowHash mixes a row's bits; distinctRows indexes by its top bits.
func rowHash(row []float64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range row {
		h = (h ^ math.Float64bits(x)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h * 0x94d049bb133111eb
}

func sameBits(a, b []float64) bool {
	for j, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

func sqNorm(row []float64) float64 {
	var s float64
	for _, x := range row {
		s += x * x
	}
	return s
}

// directional reports whether a vector with squared norm norm2 has a
// direction the cosine bound can rely on: nonzero, and far enough from
// underflow and overflow that normalising it and every cosineDist
// denominator it enters are accurate to a few ulps.
func directional(norm2 float64) bool { return norm2 >= 1e-200 && norm2 <= 1e200 }

// The chordTo results that are not distances.
const (
	chordZero = -1 // the all-zero row: cosineDist puts it at exactly 1
	chordNone = -2 // nonzero, but without a reliable direction
)

// chordTo returns ‖x̂ − u‖, the chordal distance from row's direction
// to the unit vector u, or chordZero / chordNone.
func chordTo(row, u []float64) float64 {
	norm2 := sqNorm(row)
	switch {
	case norm2 == 0:
		return chordZero
	case !directional(norm2):
		return chordNone
	}
	return unitDist(row, 1/math.Sqrt(norm2), u)
}

// unitDist returns ‖x·inv − u‖.
func unitDist(x []float64, inv float64, u []float64) float64 {
	var s float64
	for j, v := range x {
		e := v*inv - u[j]
		s += e * e
	}
	return math.Sqrt(s)
}

// Lists returns the number of inverted lists (0 over an empty matrix).
func (ix *IVF) Lists() int { return max(len(ix.off)-1, 0) }

// Rows returns the number of indexed rows.
func (ix *IVF) Rows() int { return ix.n }

// Search returns the k indexed rows nearest to query under the metric,
// ascending by distance (ties by ascending row id), excluding row
// `exclude` (negative keeps every row): TopK's answer, id for id and
// bit for bit, for finite rows and queries, at any row count. The walk
// runs on the calling goroutine: the leading worker count and the
// trailing variadic argument are ignored, and stay only so existing
// callers compile.
func (ix *IVF) Search(_ int, query []float64, k int, m Metric, exclude int, _ ...int) ([]Neighbor, Visit) {
	if len(query) != ix.dim {
		panic("cluster: query width mismatch")
	}
	if k <= 0 || ix.n == 0 {
		return nil, Visit{}
	}
	if m != Cosine {
		m = L2
	}
	q := newQuery(query, k, m, exclude)
	h := q.heap(ix.n)
	var vis Visit
	// The bounds live on this goroutine's stack up to 128 lists
	// (~16k distinct rows): a query allocates only what it returns.
	var buf [128]listBound
	for ls := ix.bounds(&q, buf[:0]); len(ls) > 0; {
		var l listBound
		l, ls = popList(ls)
		if len(h) == k && worse(Neighbor{V: int(l.id), Dist: l.lb}, h[0]) {
			break // so is every list after it: the walk is done
		}
		a, b := ix.off[l.c], ix.off[l.c+1]
		h = q.scan(h, ix.rows[a*ix.dim:b*ix.dim], b-a, ix.gs[a:b+1], ix.ids, 0)
		vis.Lists++
		vis.Rows += b - a
	}
	return finalizeNeighbors([][]Neighbor{h}, k, m), vis
}

// listBound bounds what list c can offer the query: no row it holds
// ranks before (lb, id), lb being a lower bound on their distances (in
// the scan's units: squared under L2) and id the list's lowest id. The
// id settles ties at the bound itself, which only an exact bound meets:
// a query with a zero norm is at distance exactly 1 from every row
// under Cosine, and then the walk stops as soon as it holds k ids below
// every unvisited list's lowest.
type listBound struct {
	lb    float64
	id, c int32
}

// before reports whether a ranks strictly before b in the output order.
func (a listBound) before(b listBound) bool {
	if a.lb != b.lb {
		return a.lb < b.lb
	}
	return a.id < b.id
}

// bounds appends the nonempty lists with their bounds to out and
// returns it as a min-heap in the output order: the walk usually stops
// after a few lists, so it pops them instead of sorting all.
func (ix *IVF) bounds(q *query, out []listBound) []listBound {
	dim := ix.dim
	for c := 0; c < ix.cent.R; c++ {
		a := ix.off[c]
		if a == ix.off[c+1] {
			continue
		}
		var lb float64
		switch {
		case q.m == L2:
			e := max(math.Sqrt(sqDist(q.vec, ix.cent.Row(c)))*(1-boundSlack)-ix.rad[c], 0)
			// The absolute term covers squares that underflow. A squared
			// distance is never negative, so 0 is always a bound, and an
			// exact one at that: a query whose own row has k duplicates
			// holds k ties at 0, and the ids prune every list its
			// covering balls put at 0.
			lb = max(e*e-1e-300, 0)
		case q.norm == 0:
			lb = 1 // cosineDist's value for every row
		case directional(q.norm * q.norm):
			e := max(unitDist(q.vec, 1/q.norm, ix.unit[c*dim:(c+1)*dim])-ix.chord[c], 0)
			lb = min(e*e/2-boundSlack, ix.cosCap[c])
		default:
			// Too small or large to normalise reliably: no bound.
			lb = math.Inf(-1)
		}
		out = append(out, listBound{lb: lb, id: ix.ids[ix.gs[a]], c: int32(c)})
	}
	for i := len(out)/2 - 1; i >= 0; i-- {
		siftDownList(out, i)
	}
	return out
}

// popList removes and returns the root of the list heap ls.
func popList(ls []listBound) (listBound, []listBound) {
	top := ls[0]
	last := len(ls) - 1
	ls[0] = ls[last]
	ls = ls[:last]
	siftDownList(ls, 0)
	return top, ls
}

// siftDownList restores the best-at-root order of ls below i.
func siftDownList(ls []listBound, i int) {
	for {
		best := i
		if l := 2*i + 1; l < len(ls) && ls[l].before(ls[best]) {
			best = l
		}
		if r := 2*i + 2; r < len(ls) && ls[r].before(ls[best]) {
			best = r
		}
		if best == i {
			return
		}
		ls[i], ls[best] = ls[best], ls[i]
		i = best
	}
}
