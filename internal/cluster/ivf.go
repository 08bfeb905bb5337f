package cluster

import (
	"math"
	"sort"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// Inverted-file (IVF) approximate nearest-neighbor index over an
// immutable embedding snapshot. k-means centroids partition the rows
// into nlist inverted lists; a query ranks the centroids under its
// metric, probes the nprobe nearest lists with the same k-bounded
// partial-selection heaps the exact TopK scan uses, and merges the
// survivors. Cost per query drops from O(nK) to roughly
// O(nlist·K + nprobe·(n/nlist)·K) at the price of recall: a true
// neighbor living in an unprobed list is missed. The serving layer
// measures that trade-off (recall@k vs p50) and the defaults below
// target recall@10 ≥ 0.9 on clustered embedding data.

// DefaultIVFExactRows is the row count under which an IVF index
// degenerates to the exact scan: the centroid pass plus probe overhead
// only pays for itself once the matrix is large enough that scanning
// it all is the dominant cost.
const DefaultIVFExactRows = 1024

// IVFOptions configures BuildIVF. The zero value selects defaults
// suited to serving embedding snapshots.
type IVFOptions struct {
	// Lists is the number of inverted lists (k-means centroids);
	// <= 0 selects ~sqrt(n).
	Lists int
	// NProbe is the default number of lists a Search probes when the
	// caller passes nprobe <= 0; <= 0 selects max(4, Lists/8).
	NProbe int
	// ExactRows is the row count under which Build skips clustering
	// and Search delegates to the exact TopK scan. 0 selects
	// DefaultIVFExactRows; negative forces an index at any size.
	ExactRows int
	// TrainRows bounds the k-means training sample: above it the
	// centroids are fit on a random row sample and only the final
	// list assignment sees every row (one pass). <= 0 selects 16384.
	TrainRows int
	// MaxIter bounds the k-means iterations. An IVF partition does not
	// need a converged clustering — it needs cells of roughly uniform
	// occupancy — so this stays small. <= 0 selects 8.
	MaxIter int
	// Seed drives the k-means seeding and training sample.
	Seed uint64
}

// IVF is a built index. It is immutable after BuildIVF and safe for
// concurrent Search calls; it retains a reference to the indexed
// matrix (rows are read at query time, never copied).
type IVF struct {
	x      *mat.Dense
	cent   *mat.Dense // nlist × dim centroids (nil in exact mode)
	lists  [][]int32  // row ids per centroid
	nprobe int        // default probe count
	exact  bool       // small-n fallback: Search is a plain TopK
}

// BuildIVF clusters the rows of X into inverted lists. Deterministic
// for a given seed and independent of the worker count. X must not be
// mutated afterwards (the index reads it at query time) — the serving
// layer indexes the contiguous form of a published version
// (dyn.Version.Snapshot), which is immutable by contract.
func BuildIVF(workers int, X *mat.Dense, opts IVFOptions) *IVF {
	n := X.R
	exactRows := opts.ExactRows
	if exactRows == 0 {
		exactRows = DefaultIVFExactRows
	}
	if exactRows > 0 && n < exactRows {
		return &IVF{x: X, exact: true}
	}
	nlist := opts.Lists
	if nlist <= 0 {
		nlist = int(math.Sqrt(float64(n)))
	}
	if nlist < 1 {
		nlist = 1
	}
	if nlist > n {
		nlist = n
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 8
	}
	trainRows := opts.TrainRows
	if trainRows <= 0 {
		trainRows = 16384
	}
	// Fit centroids on a bounded sample: k-means is O(iter·rows·nlist·K)
	// and the partition only needs cell shapes, not per-row convergence.
	train := X
	if n > trainRows {
		r := xrand.NewStream(opts.Seed, 7)
		train = mat.NewDense(trainRows, X.C)
		for i := 0; i < trainRows; i++ {
			copy(train.Row(i), X.Row(r.Intn(n)))
		}
	}
	cent := KMeans(workers, train, nlist, opts.Seed, maxIter).Centroids
	nlist = cent.R // KMeans clamps k to its row count

	// Assign every row to its nearest centroid (one parallel pass) and
	// bucket the ids. Deterministic: the merge walks workers in order.
	assign := make([]int32, n)
	parallel.ForStatic(parallel.Workers(workers), n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			row := X.Row(v)
			best, bd := int32(0), math.Inf(1)
			for c := 0; c < nlist; c++ {
				if d := sqDist(row, cent.Row(c)); d < bd {
					best, bd = int32(c), d
				}
			}
			assign[v] = best
		}
	})
	counts := make([]int32, nlist)
	for _, c := range assign {
		counts[c]++
	}
	flat := make([]int32, n) // one backing array, not nlist small ones
	lists := make([][]int32, nlist)
	off := int32(0)
	for c, cnt := range counts {
		lists[c] = flat[off : off : off+cnt]
		off += cnt
	}
	for v, c := range assign {
		lists[c] = append(lists[c], int32(v))
	}
	nprobe := opts.NProbe
	if nprobe <= 0 {
		nprobe = nlist / 8
		if nprobe < 4 {
			nprobe = 4
		}
	}
	if nprobe > nlist {
		nprobe = nlist
	}
	return &IVF{x: X, cent: cent, lists: lists, nprobe: nprobe}
}

// Exact reports whether the index degenerated to the exact scan (the
// matrix was below ExactRows).
func (ix *IVF) Exact() bool { return ix.exact }

// Lists returns the number of inverted lists (0 in exact mode).
func (ix *IVF) Lists() int { return len(ix.lists) }

// NProbe returns the default probe count a Search with nprobe <= 0
// uses (0 in exact mode).
func (ix *IVF) NProbe() int { return ix.nprobe }

// Rows returns the number of indexed rows.
func (ix *IVF) Rows() int { return ix.x.R }

// Search returns the k indexed rows nearest to query under the metric,
// ascending by distance (ties by ascending row id), excluding row
// `exclude` (negative keeps every row) — the same contract as TopK,
// approximately: only the nprobe lists whose centroids rank nearest to
// the query are scanned. nprobe <= 0 selects the index default;
// nprobe >= Lists() (and an exact-mode index) is a genuinely exact
// answer via TopK.
func (ix *IVF) Search(workers int, query []float64, k int, m Metric, exclude, nprobe int) []Neighbor {
	if m != Cosine {
		m = L2
	}
	if nprobe <= 0 {
		nprobe = ix.nprobe
	}
	if ix.exact || nprobe >= len(ix.lists) {
		return TopK(workers, ix.x, query, k, m, exclude)
	}
	if len(query) != ix.x.C {
		panic("cluster: query width mismatch")
	}
	if k <= 0 || ix.x.R == 0 {
		return nil
	}
	qNorm := queryNorm(query, m)
	// Rank the centroids under the query's metric; nlist ~ sqrt(n), so
	// a serial pass and sort are noise next to the list scans.
	order := make([]Neighbor, len(ix.lists))
	for c := range ix.lists {
		order[c] = Neighbor{V: c, Dist: rowDist(ix.cent.Row(c), query, m, qNorm)}
	}
	sort.Slice(order, func(i, j int) bool { return worse(order[j], order[i]) })

	// Scan the chosen lists with per-worker k-bounded heaps, exactly
	// like the TopK full scan but over ~nprobe/nlist of the rows.
	w := parallel.Workers(workers)
	if w > nprobe {
		w = nprobe
	}
	locals := make([][]Neighbor, w)
	parallel.ForStatic(w, nprobe, func(worker, lo, hi int) {
		h := make([]Neighbor, 0, k)
		for li := lo; li < hi; li++ {
			for _, v32 := range ix.lists[order[li].V] {
				v := int(v32)
				if v == exclude {
					continue
				}
				h = pushNeighbor(h, k, Neighbor{V: v, Dist: rowDist(ix.x.Row(v), query, m, qNorm)})
			}
		}
		locals[worker] = h
	})
	var all []Neighbor
	for _, h := range locals {
		all = append(all, h...)
	}
	return finalizeNeighbors(all, k, m)
}
