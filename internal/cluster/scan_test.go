package cluster

import (
	"math"
	"sort"
	"testing"

	"repro/internal/mat"
	"repro/internal/xrand"
)

// The reference the streamed scans are pinned to: the neighbor reads as
// they stood while the index borrowed the matrix. Every candidate row
// is fetched by id out of X and measured alone by refRowDist; the
// centroids are ranked by a full sort; the survivors are a full sort's
// first k instead of a heap's.

func refRowDist(row, query []float64, m Metric, qNorm float64) float64 {
	if m == Cosine {
		var dot, norm float64
		for c, x := range row {
			dot += x * query[c]
			norm += x * x
		}
		if denom := math.Sqrt(norm) * qNorm; denom > 0 {
			return 1 - dot/denom
		}
		return 1
	}
	var d float64
	for c, x := range row {
		diff := x - query[c]
		d += diff * diff
	}
	return d
}

func refQueryNorm(query []float64, m Metric) float64 {
	if m != Cosine {
		return 0
	}
	var s float64
	for _, v := range query {
		s += v * v
	}
	return math.Sqrt(s)
}

func refSort(all []Neighbor) {
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].V < all[j].V
	})
}

// refScan ranks the rows cand of X (nil: every row).
func refScan(X *mat.Dense, cand []int32, query []float64, k int, m Metric, exclude int) []Neighbor {
	if cand == nil {
		cand = make([]int32, X.R)
		for v := range cand {
			cand[v] = int32(v)
		}
	}
	qNorm := refQueryNorm(query, m)
	var all []Neighbor
	for _, v := range cand {
		if int(v) != exclude {
			all = append(all, Neighbor{V: int(v), Dist: refRowDist(X.Row(int(v)), query, m, qNorm)})
		}
	}
	refSort(all)
	if len(all) > k {
		all = all[:k]
	}
	if m == L2 {
		for i := range all {
			all[i].Dist = math.Sqrt(all[i].Dist)
		}
	}
	return all
}

// refLists recomputes the partition from X and the index's centroids:
// every row in the list of its nearest centroid, first minimum wins.
func refLists(X *mat.Dense, cent *mat.Dense) [][]int32 {
	lists := make([][]int32, cent.R)
	for v := 0; v < X.R; v++ {
		best, bd := 0, math.Inf(1)
		for c := 0; c < cent.R; c++ {
			if d := sqDist(X.Row(v), cent.Row(c)); d < bd {
				best, bd = c, d
			}
		}
		lists[best] = append(lists[best], int32(v))
	}
	return lists
}

// refSearch probes the nprobe lists whose centroids rank nearest.
func refSearch(X *mat.Dense, cent *mat.Dense, lists [][]int32, query []float64, k int, m Metric, exclude, nprobe int) []Neighbor {
	qNorm := refQueryNorm(query, m)
	order := make([]Neighbor, cent.R)
	for c := range order {
		order[c] = Neighbor{V: c, Dist: refRowDist(cent.Row(c), query, m, qNorm)}
	}
	refSort(order)
	cand := []int32{}
	for _, o := range order[:nprobe] {
		cand = append(cand, lists[o.V]...)
	}
	return refScan(X, cand, query, k, m, exclude)
}

func sameNeighbors(t *testing.T, what string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].V != want[i].V || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: result %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// tiedBlobs is clustered data with the cases a scan must not fumble:
// rows 3, 700 and 1400 identical (ties break by ascending id), rows 5
// and 800 all zero (no direction under Cosine).
func tiedBlobs(dim int) *mat.Dense {
	X, _ := blobs(6, 250, dim, 2, uint64(dim))
	copy(X.Row(700), X.Row(3))
	copy(X.Row(1400), X.Row(3))
	clear(X.Row(5))
	clear(X.Row(800))
	return X
}

// TestScansMatchGatherReference pins IVF.Search and TopK to the
// reference above, id for id and distance bit for bit.
func TestScansMatchGatherReference(t *testing.T) {
	for _, dim := range []int{1, 7, 10, 50} {
		X := tiedBlobs(dim)
		n := X.R
		ix := BuildIVF(2, X, IVFOptions{ExactRows: -1, Lists: 24, Seed: uint64(dim)})
		lists := refLists(X, ix.cent)
		for c, l := range lists {
			got := ix.ids[ix.off[c]:ix.off[c+1]]
			if len(got) != len(l) {
				t.Fatalf("dim %d: list %d holds %d rows, reference %d", dim, c, len(got), len(l))
			}
			for i := range l {
				if got[i] != l[i] {
					t.Fatalf("dim %d: list %d row %d is %d, reference %d", dim, c, i, got[i], l[i])
				}
			}
		}
		r := xrand.New(uint64(dim) + 1)
		for _, v := range []int{3, 5, 700, r.Intn(n), r.Intn(n)} {
			query := X.Row(v)
			for _, m := range []Metric{L2, Cosine} {
				for _, exclude := range []int{-1, v} {
					// n+3 is more than a default probe can return.
					for _, k := range []int{1, 10, n + 3} {
						for _, workers := range []int{1, 3} {
							for _, nprobe := range []int{0, ix.Lists()} {
								np := nprobe
								if np == 0 {
									np = ix.NProbe()
								}
								sameNeighbors(t, "IVF.Search",
									ix.Search(workers, query, k, m, exclude, nprobe),
									refSearch(X, ix.cent, lists, query, k, m, exclude, np))
							}
							sameNeighbors(t, "TopK",
								TopK(workers, X, query, k, m, exclude),
								refScan(X, nil, query, k, m, exclude))
						}
					}
				}
			}
		}
	}
}

// TestIVFOwnsItsRows: the index copies what it indexes, so the matrix
// it was built from is free to change (or go) afterwards.
func TestIVFOwnsItsRows(t *testing.T) {
	for _, opts := range []IVFOptions{
		{ExactRows: -1, Lists: 24}, // indexed
		{ExactRows: 1 << 20},       // exact mode
	} {
		X := tiedBlobs(7)
		ix := BuildIVF(2, X, opts)
		if ix.Exact() != (opts.ExactRows > 0) {
			t.Fatalf("opts %+v built exact=%v", opts, ix.Exact())
		}
		type ask struct {
			v      int
			m      Metric
			nprobe int
		}
		var asks []ask
		var before [][]Neighbor
		for _, v := range []int{3, 5, 42, 999} {
			for _, m := range []Metric{L2, Cosine} {
				for _, nprobe := range []int{0, ix.Lists()} {
					asks = append(asks, ask{v, m, nprobe})
					before = append(before, ix.Search(2, X.Row(v), 10, m, v, nprobe))
				}
			}
		}
		queries := X.Clone()
		for i := range X.Data {
			X.Data[i] = math.NaN()
		}
		for i, a := range asks {
			sameNeighbors(t, "after overwrite", ix.Search(2, queries.Row(a.v), 10, a.m, a.v, a.nprobe), before[i])
		}
	}
}

// TestIVFDeterministic: same inputs, same index, same answers — the
// serving layer relies on rebuilds being reproducible for a given
// snapshot — whatever the worker count, on both sides of the fork
// grain: a default probe scans a fraction of scanGrain rows and runs on
// the calling goroutine, a full probe and TopK scan more and fork.
func TestIVFDeterministic(t *testing.T) {
	n, dim := scanGrain+4096, 4
	r := xrand.New(11)
	X := mat.NewDense(n, dim)
	for i := range X.Data {
		X.Data[i] = r.Float64()
	}
	opts := IVFOptions{Lists: 32, MaxIter: 2, Seed: 4}
	a := BuildIVF(1, X, opts)
	b := BuildIVF(3, X, opts)
	if a.Lists() != b.Lists() || a.NProbe() != b.NProbe() {
		t.Fatalf("shape drifted: %d/%d vs %d/%d lists/nprobe", a.Lists(), a.NProbe(), b.Lists(), b.NProbe())
	}
	if scanWorkers(4, n*a.NProbe()/a.Lists()) != 1 || scanWorkers(4, n) < 2 {
		t.Fatalf("n=%d does not straddle the grain %d", n, scanGrain)
	}
	for q := 0; q < 8; q++ {
		v := r.Intn(n)
		for _, nprobe := range []int{0, a.Lists()} {
			want := a.Search(1, X.Row(v), 10, L2, v, nprobe)
			for _, workers := range []int{1, 2, 4} {
				sameNeighbors(t, "rebuilt index", b.Search(workers, X.Row(v), 10, L2, v, nprobe), want)
			}
		}
		want := a.Search(1, X.Row(v), 10, L2, v, a.Lists())
		for _, workers := range []int{1, 2, 4} {
			sameNeighbors(t, "TopK", TopK(workers, X, X.Row(v), 10, L2, v), want)
		}
	}
}
