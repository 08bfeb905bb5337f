package cluster

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/mat"
	"repro/internal/xrand"
)

// The reference the streamed scans are pinned to: the neighbor read as
// it stood while the index borrowed the matrix. Every row is fetched by
// id out of X and measured alone by refRowDist, and the survivors are a
// full sort's first k instead of a heap's.

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

// refScan ranks every row of X.
func refScan(X *mat.Dense, query []float64, k int, m Metric, exclude int) []Neighbor {
	qNorm := refQueryNorm(query, m)
	var all []Neighbor
	for v := 0; v < X.R; v++ {
		if v != exclude {
			all = append(all, Neighbor{V: v, Dist: refRowDist(X.Row(v), query, m, qNorm)})
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

// refLayout recomputes the index layout from X and the index's
// centroids: the rows grouped by their bits, each group's ids
// ascending, each group in the list of its nearest centroid (first
// minimum wins), a list's groups in order of their lowest id.
func refLayout(X *mat.Dense, cent *mat.Dense) [][][]int32 {
	var groups [][]int32
	seen := map[string]int{}
	for v := 0; v < X.R; v++ {
		key := fmt.Sprint(bitsOf(X.Row(v)))
		g, ok := seen[key]
		if !ok {
			g = len(groups)
			seen[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], int32(v))
	}
	lists := make([][][]int32, cent.R)
	for _, grp := range groups {
		best, bd := 0, math.Inf(1)
		for c := 0; c < cent.R; c++ {
			if d := sqDist(X.Row(int(grp[0])), cent.Row(c)); d < bd {
				best, bd = c, d
			}
		}
		lists[best] = append(lists[best], grp)
	}
	return lists
}

func bitsOf(row []float64) []uint64 {
	b := make([]uint64, len(row))
	for j, x := range row {
		b[j] = math.Float64bits(x)
	}
	return b
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

// search is ix.Search without the visit counts.
func search(ix *IVF, workers int, query []float64, k int, m Metric, exclude int) []Neighbor {
	nbrs, _ := ix.Search(workers, query, k, m, exclude)
	return nbrs
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

// TestScansMatchGatherReference pins the index layout to refLayout, and
// IVF.Search and TopK to the gather reference, id for id and distance
// bit for bit.
func TestScansMatchGatherReference(t *testing.T) {
	for _, dim := range []int{1, 7, 10, 50} {
		X := tiedBlobs(dim)
		n := X.R
		ix := BuildIVF(2, X, IVFOptions{lists: 24, seed: uint64(dim)})
		lists := refLayout(X, ix.cent)
		covered := 0
		for c, l := range lists {
			a, b := ix.off[c], ix.off[c+1]
			if b-a != len(l) {
				t.Fatalf("dim %d: list %d stores %d distinct rows, reference %d", dim, c, b-a, len(l))
			}
			for i, want := range l {
				j := a + i
				got := ix.ids[ix.gs[j]:ix.gs[j+1]]
				if !slices.Equal(got, want) {
					t.Fatalf("dim %d: list %d row %d stands for ids %v, reference %v", dim, c, i, got, want)
				}
				if !slices.Equal(bitsOf(ix.rows[j*dim:(j+1)*dim]), bitsOf(X.Row(int(want[0])))) {
					t.Fatalf("dim %d: list %d row %d is not row %d", dim, c, i, want[0])
				}
				covered += len(got)
			}
		}
		if covered != n || len(ix.ids) != n {
			t.Fatalf("dim %d: groups hold %d of %d ids (%d stored)", dim, covered, n, len(ix.ids))
		}
		if g := ix.gs[ix.off[len(lists)]]; int(g) != n {
			t.Fatalf("dim %d: the last group ends at %d, want %d", dim, g, n)
		}
		r := xrand.New(uint64(dim) + 1)
		for _, v := range []int{3, 5, 700, r.Intn(n), r.Intn(n)} {
			query := X.Row(v)
			for _, m := range []Metric{L2, Cosine} {
				for _, exclude := range []int{-1, v} {
					for _, k := range []int{1, 10, n + 3} {
						for _, workers := range []int{1, 3} {
							want := refScan(X, query, k, m, exclude)
							sameNeighbors(t, "IVF.Search", search(ix, workers, query, k, m, exclude), want)
							sameNeighbors(t, "TopK", TopK(workers, X, query, k, m, exclude), want)
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
	X := tiedBlobs(7)
	ix := BuildIVF(2, X, IVFOptions{lists: 24})
	type ask struct {
		v int
		m Metric
	}
	var asks []ask
	var before [][]Neighbor
	for _, v := range []int{3, 5, 42, 999} {
		for _, m := range []Metric{L2, Cosine} {
			asks = append(asks, ask{v, m})
			before = append(before, search(ix, 2, X.Row(v), 10, m, v))
		}
	}
	queries := X.Clone()
	for i := range X.Data {
		X.Data[i] = math.NaN()
	}
	for i, a := range asks {
		sameNeighbors(t, "after overwrite", search(ix, 2, queries.Row(a.v), 10, a.m, a.v), before[i])
	}
}

// TestIVFDeterministic: same inputs, same index, same answers — the
// serving layer relies on rebuilds being reproducible for a given
// snapshot — whatever the worker count the index was built and is
// searched with, on a matrix large enough (past scanGrain) that TopK
// forks while the walk stays on the calling goroutine.
func TestIVFDeterministic(t *testing.T) {
	n, dim := scanGrain+4096, 4
	r := xrand.New(11)
	X := mat.NewDense(n, dim)
	for i := range X.Data {
		X.Data[i] = r.Float64()
	}
	opts := IVFOptions{lists: 32, maxIter: 2, seed: 4}
	a := BuildIVF(1, X, opts)
	b := BuildIVF(3, X, opts)
	if a.Lists() != b.Lists() || !slices.Equal(a.off, b.off) || !slices.Equal(a.gs, b.gs) ||
		!slices.Equal(a.ids, b.ids) || !slices.Equal(bitsOf(a.rows), bitsOf(b.rows)) {
		t.Fatalf("layout drifted between 1 and 3 build workers")
	}
	if scanWorkers(4, n) < 2 {
		t.Fatalf("n=%d does not pass the grain %d", n, scanGrain)
	}
	for q := 0; q < 8; q++ {
		v := r.Intn(n)
		for _, m := range []Metric{L2, Cosine} {
			want := search(a, 1, X.Row(v), 10, m, v)
			for _, workers := range []int{1, 2, 4} {
				sameNeighbors(t, "rebuilt index", search(b, workers, X.Row(v), 10, m, v), want)
				sameNeighbors(t, "TopK", TopK(workers, X, X.Row(v), 10, m, v), want)
			}
		}
	}
}
