package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/xrand"
)

// The exactness property: an indexed Search answers TopK's top-k, id
// for id and distance bit for bit, on matrices built to hold what a
// branch and bound over distinct rows could fumble — many duplicated
// and all-zero rows (groups whose ids must come out ascending and stop
// at the first refused id), rows one ulp apart (distinct groups at
// almost the same distance), exact distance ties between distinct rows
// (dyadic coordinates under L2, power-of-two rescalings under Cosine,
// which a pruned list must never lose), k past the row count, and an
// excluded id inside and outside a duplicate group.

// trickyRows draws an n × dim matrix from a small pool of dyadic rows:
// a third of the rows are all zero, most of the rest are copies, and a
// few are rescaled by a power of two, nudged by one ulp in one
// coordinate, or fresh Gaussian rows.
func trickyRows(n, dim int, seed uint64) *mat.Dense {
	r := xrand.New(seed)
	pool := make([][]float64, 12)
	for i := range pool {
		pool[i] = make([]float64, dim)
		for j := range pool[i] {
			pool[i][j] = float64(r.Intn(9)-4) / 4
		}
	}
	X := mat.NewDense(n, dim)
	for v := 0; v < n; v++ {
		row := X.Row(v)
		switch p := r.Intn(20); {
		case p < 7: // all zero
		case p < 15:
			copy(row, pool[r.Intn(len(pool))])
		case p < 17:
			for j, x := range pool[r.Intn(len(pool))] {
				row[j] = x * 2
			}
		case p < 19:
			copy(row, pool[r.Intn(len(pool))])
			j := r.Intn(dim)
			row[j] = math.Nextafter(row[j], math.Inf(1))
		default:
			for j := range row {
				row[j] = r.NormFloat64()
			}
		}
	}
	return X
}

// checkMatchesTopK runs the property's queries against one index: every
// row in rows as the query, under both metrics, excluding nothing, the
// query row itself and another member of its duplicate group, for each
// k.
func checkMatchesTopK(t *testing.T, what string, X *mat.Dense, ix *IVF, rows []int, ks []int) {
	t.Helper()
	grp, _ := distinctRows(X)
	for _, v := range rows {
		excludes := []int{-1, v}
		for u := range grp {
			if u != v && grp[u] == grp[v] {
				excludes = append(excludes, u)
				break
			}
		}
		for _, m := range []Metric{L2, Cosine} {
			for _, exclude := range excludes {
				for _, k := range ks {
					for _, workers := range []int{1, 2, 4} {
						got, _ := ix.Search(workers, X.Row(v), k, m, exclude)
						want := TopK(workers, X, X.Row(v), k, m, exclude)
						if len(got) != len(want) {
							t.Fatalf("%s v=%d m=%d exclude=%d k=%d: %d results, TopK %d",
								what, v, m, exclude, k, len(got), len(want))
						}
						for i := range want {
							if got[i].V != want[i].V || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
								t.Fatalf("%s v=%d m=%d exclude=%d k=%d: result %d = %+v, TopK %+v",
									what, v, m, exclude, k, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

func TestIVFMatchesTopK(t *testing.T) {
	for _, dim := range []int{1, 7, 10} {
		for _, seed := range []uint64{1, 2} {
			const n = 1500
			X := trickyRows(n, dim, seed*100+uint64(dim))
			r := xrand.New(seed)
			rows := []int{0, 1, 2}
			for len(rows) < 12 {
				rows = append(rows, r.Intn(n))
			}
			for _, opts := range []IVFOptions{
				{seed: seed},                          // ~sqrt(distinct) lists
				{lists: 1, seed: seed},                // one list holds everything
				{lists: 40, trainRows: 8, seed: seed}, // sampled k-means, many small lists
			} {
				ix := BuildIVF(2, X, opts)
				checkMatchesTopK(t, "tricky", X, ix, rows, []int{1, 10, 40, n + 3})
			}
		}
	}
}

// TestIVFSmallMatchesTopK: there is no row count below which the index
// hands a query to the exact scan; a default index over one row, two,
// seven or 1023 (uniform rows in six dimensions) walks its lists and
// answers TopK's top-k, id for id and bit for bit; one over no rows
// answers nothing.
func TestIVFSmallMatchesTopK(t *testing.T) {
	const dim = 6
	for _, n := range []int{1, 2, 7, 1023} {
		r := xrand.New(77)
		X := mat.NewDense(n, dim)
		for i := range X.Data {
			X.Data[i] = r.Float64()*2 - 1
		}
		ix := BuildIVF(0, X, IVFOptions{})
		if ix.Lists() < 1 || ix.Rows() != n {
			t.Fatalf("n=%d: %d lists over %d rows", n, ix.Lists(), ix.Rows())
		}
		rows := []int{0, n / 2, n - 1, 3 % n}
		checkMatchesTopK(t, fmt.Sprintf("n=%d", n), X, ix, rows, []int{1, 7, n + 1})
	}
	empty := BuildIVF(0, mat.NewDense(0, dim), IVFOptions{})
	if got, _ := empty.Search(0, make([]float64, dim), 3, L2, -1); got != nil || empty.Lists() != 0 {
		t.Fatalf("empty index: %d lists, answered %v", empty.Lists(), got)
	}
}

// FuzzIVFMatchesTopK is the same check over a matrix decoded from the
// fuzz bytes: the first byte picks the width (1–10), the second the
// list count (0 = default) and the third k; every further byte is one
// coordinate, a dyadic value in [-8, 8) from its top six bits, moved
// one ulp up when its low two bits are 3.
func FuzzIVFMatchesTopK(f *testing.F) {
	f.Add([]byte{2, 0, 3, 0, 0, 4, 4, 4, 4, 0, 0, 8, 4, 7, 4, 0, 0})
	f.Add([]byte{1, 3, 10, 0, 1, 2, 3, 0, 0, 0, 7, 128, 255, 0, 4})
	f.Add([]byte{7, 2, 1, 200, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200, 12, 0, 0, 0, 0, 0, 0, 0, 99, 12, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		dim := 1 + int(data[0])%10
		lists := int(data[1]) % 16
		k := 1 + int(data[2])%24
		body := data[3:]
		n := len(body) / dim
		if n == 0 || n > 4096 {
			return
		}
		X := mat.NewDense(n, dim)
		for i := range X.Data {
			b := body[i]
			x := float64(int8(b)>>2) / 4
			if b&3 == 3 {
				x = math.Nextafter(x, math.Inf(1))
			}
			X.Data[i] = x
		}
		ix := BuildIVF(1, X, IVFOptions{lists: lists})
		rows := make([]int, 0, 8)
		for v := 0; v < n && len(rows) < 8; v += 1 + n/8 {
			rows = append(rows, v)
		}
		checkMatchesTopK(t, "fuzz", X, ix, rows, []int{k, n + 1})
	})
}

// TestIVFBoundEdges pins the two places a bound meets a distance
// exactly, each on a matrix small enough to fix which list holds what.
func TestIVFBoundEdges(t *testing.T) {
	// L2 rounding: q = (0,0); x = (1,1) sits alone in its list, so its
	// bound is fl(√2)² = 2+2⁻⁵¹ while its distance is exactly 2, the
	// distance of y = (1,-1), whose list (with z) has the lower bound and
	// is walked first. Without the slack the walk would prune x and
	// answer y, though x has the lower id.
	X := mat.NewDense(4, 2)
	copy(X.Data, []float64{0, 0, 1, 1, 1, -1, 2, -0.5})
	ix := BuildIVF(1, X, IVFOptions{lists: 3, seed: 1})
	alone := false
	for c := 0; c < ix.Lists(); c++ {
		a, b := ix.off[c], ix.off[c+1]
		if b-a == 1 && ix.ids[ix.gs[a]] == 1 {
			alone = true
		}
	}
	if !alone {
		t.Fatalf("row 1 does not have a list of its own: off %v ids %v", ix.off, ix.ids)
	}
	checkMatchesTopK(t, "l2 tie at the bound", X, ix, []int{0, 1, 2, 3}, []int{1, 2, 4})

	// The cosine cap: row 0 is zero and lists with the tiny +x rows near
	// the origin, whose directions put that list at ~2 from a -x query;
	// the zero row is at exactly 1, tied with every +y row, and wins the
	// tie by id. Without the cap the walk would prune its list.
	X = mat.NewDense(201, 2)
	for v := 1; v <= 100; v++ {
		X.Row(v)[0] = 0.01 * float64(v%5+1)
	}
	for v := 101; v <= 150; v++ {
		X.Row(v)[0] = -10 - 0.1*float64(v-100)
	}
	for v := 151; v <= 200; v++ {
		X.Row(v)[1] = 10 + 0.1*float64(v-150)
	}
	ix = BuildIVF(1, X, IVFOptions{lists: 3, seed: 1})
	for c := 0; c < ix.Lists(); c++ {
		a, b := ix.off[c], ix.off[c+1]
		if ids := ix.ids[ix.gs[a]:ix.gs[b]]; len(ids) > 0 && ids[0] == 0 && len(ids) != 101 {
			t.Fatalf("the zero row's list holds %d ids, want it and the 100 tiny rows", len(ids))
		}
	}
	checkMatchesTopK(t, "cosine zero-row cap", X, ix, []int{101, 120}, []int{50, 51, 60})
}
