// Package cluster provides the machinery that reads an embedding:
// parallel k-means (the clustering step of the GEE paper's unsupervised
// pipeline), label-agreement metrics (ARI, NMI, accuracy) used to
// validate that the embeddings this library produces recover structure,
// and the two exact nearest-neighbor reads the serving tier answers
// /v1/neighbors with: TopK, a scan of every row, and IVF, an index over
// the distinct rows whose walk returns TopK's answer at any row count
// and has no tuning knobs.
package cluster

import (
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// KMeansResult holds the output of Lloyd's algorithm.
type KMeansResult struct {
	Assign    []int32    // cluster of each row
	Centroids *mat.Dense // k x dim
	Inertia   float64    // sum of squared distances to assigned centroid
	Iters     int
}

// KMeans clusters the rows of X into k clusters with k-means++ seeding
// and parallel Lloyd iterations. Deterministic for a given seed and
// independent of the worker count.
func KMeans(workers int, X *mat.Dense, k int, seed uint64, maxIter int) *KMeansResult {
	n, dim := X.R, X.C
	if k <= 0 || n == 0 {
		return &KMeansResult{Assign: make([]int32, n), Centroids: mat.NewDense(0, dim)}
	}
	if k > n {
		k = n
	}
	cent := seedPlusPlus(X, k, seed)
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	counts := make([]int64, k)
	res := &KMeansResult{Assign: assign, Centroids: cent}
	for iter := 0; iter < maxIter; iter++ {
		res.Iters = iter + 1
		type part struct {
			changed int64
			inertia float64
		}
		p := parallel.Reduce(workers, n, part{}, func(lo, hi int) part {
			var pp part
			for i := lo; i < hi; i++ {
				best, bd := nearestRow(X.Row(i), cent)
				if assign[i] != int32(best) {
					pp.changed++
					assign[i] = int32(best)
				}
				pp.inertia += bd
			}
			return pp
		}, func(a, b part) part {
			a.changed += b.changed
			a.inertia += b.inertia
			return a
		})
		res.Inertia = p.inertia
		// recompute centroids: per-worker partial sums, deterministic merge
		w := parallel.Workers(workers)
		partSums := make([][]float64, w)
		partCounts := make([][]int64, w)
		parallel.ForStatic(w, n, func(g, lo, hi int) {
			sums := make([]float64, k*dim)
			cnts := make([]int64, k)
			for i := lo; i < hi; i++ {
				c := int(assign[i])
				cnts[c]++
				row := X.Row(i)
				base := c * dim
				for j, v := range row {
					sums[base+j] += v
				}
			}
			partSums[g] = sums
			partCounts[g] = cnts
		})
		for c := range counts {
			counts[c] = 0
		}
		cent.Zero()
		for g := 0; g < w; g++ {
			if partSums[g] == nil {
				continue
			}
			for c := 0; c < k; c++ {
				counts[c] += partCounts[g][c]
				base := c * dim
				row := cent.Row(c)
				for j := 0; j < dim; j++ {
					row[j] += partSums[g][base+j]
				}
			}
		}
		reseed := xrand.NewStream(seed, uint64(iter)+1000)
		for c := 0; c < k; c++ {
			row := cent.Row(c)
			if counts[c] == 0 {
				// empty cluster: reseed at a random data row
				copy(row, X.Row(reseed.Intn(n)))
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range row {
				row[j] *= inv
			}
		}
		if p.changed == 0 {
			break
		}
	}
	return res
}

// seedPlusPlus picks k initial centroids with the k-means++ D^2 rule.
func seedPlusPlus(X *mat.Dense, k int, seed uint64) *mat.Dense {
	r := xrand.New(seed)
	n, dim := X.R, X.C
	cent := mat.NewDense(k, dim)
	first := r.Intn(n)
	copy(cent.Row(0), X.Row(first))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = sqDist(X.Row(i), cent.Row(0))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = r.Intn(n)
		} else {
			x := r.Float64() * total
			for i, d := range d2 {
				x -= d
				if x <= 0 {
					pick = i
					break
				}
			}
		}
		copy(cent.Row(c), X.Row(pick))
		for i := range d2 {
			if d := sqDist(X.Row(i), cent.Row(c)); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return cent
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}
