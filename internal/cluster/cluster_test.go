package cluster

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/xrand"
)

// blobs generates k well-separated Gaussian blobs of `per` points each.
func blobs(k, per, dim int, sep float64, seed uint64) (*mat.Dense, []int32) {
	r := xrand.New(seed)
	X := mat.NewDense(k*per, dim)
	truth := make([]int32, k*per)
	for c := 0; c < k; c++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = float64(c) * sep * float64(j%2*2-1)
		}
		center[c%dim] += sep * float64(c+1)
		for i := 0; i < per; i++ {
			row := X.Row(c*per + i)
			for j := range row {
				row[j] = center[j] + r.NormFloat64()*0.3
			}
			truth[c*per+i] = int32(c)
		}
	}
	return X, truth
}

func TestKMeansRecoverBlobs(t *testing.T) {
	X, truth := blobs(4, 100, 5, 8, 1)
	res := KMeans(8, X, 4, 7, 100)
	if ari := ARI(res.Assign, truth); ari < 0.99 {
		t.Fatalf("ARI=%v on separated blobs", ari)
	}
	if res.Inertia <= 0 {
		t.Fatalf("inertia=%v", res.Inertia)
	}
}

func TestKMeansDeterministicAcrossWorkers(t *testing.T) {
	X, _ := blobs(3, 80, 4, 6, 3)
	a := KMeans(1, X, 3, 11, 50)
	b := KMeans(16, X, 3, 11, 50)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment differs at %d across worker counts", i)
		}
	}
	if math.Abs(a.Inertia-b.Inertia) > 1e-9*math.Max(1, a.Inertia) {
		t.Fatalf("inertia differs: %v vs %v", a.Inertia, b.Inertia)
	}
}

func TestKMeansKGreaterThanN(t *testing.T) {
	X := mat.FromRows([][]float64{{0, 0}, {10, 10}})
	res := KMeans(2, X, 5, 1, 10)
	if res.Centroids.R != 2 {
		t.Fatalf("k must clamp to n, got %d centroids", res.Centroids.R)
	}
	if res.Assign[0] == res.Assign[1] {
		t.Fatal("two distant points in one cluster with k>=n")
	}
}

func TestKMeansDegenerate(t *testing.T) {
	res := KMeans(2, mat.NewDense(0, 3), 2, 1, 10)
	if len(res.Assign) != 0 {
		t.Fatal("nonempty assign for empty input")
	}
	res = KMeans(2, mat.FromRows([][]float64{{1, 2}}), 0, 1, 10)
	if len(res.Assign) != 1 {
		t.Fatal("k=0 should still produce an assignment vector")
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	X := mat.NewDense(50, 3) // all zeros
	res := KMeans(4, X, 3, 5, 20)
	if res.Inertia != 0 {
		t.Fatalf("inertia=%v for identical points", res.Inertia)
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	X, _ := blobs(5, 60, 4, 5, 9)
	i1 := KMeans(4, X, 1, 3, 100).Inertia
	i5 := KMeans(4, X, 5, 3, 100).Inertia
	if i5 >= i1 {
		t.Fatalf("inertia k=5 (%v) not below k=1 (%v)", i5, i1)
	}
}

func TestARIPerfectAndPermuted(t *testing.T) {
	a := []int32{0, 0, 1, 1, 2, 2}
	if got := ARI(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI(self)=%v", got)
	}
	perm := []int32{2, 2, 0, 0, 1, 1} // same partition, renumbered
	if got := ARI(a, perm); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI(permuted)=%v", got)
	}
}

func TestARIIndependentNearZero(t *testing.T) {
	r := xrand.New(13)
	n := 10_000
	a := make([]int32, n)
	b := make([]int32, n)
	for i := range a {
		a[i] = int32(r.Intn(5))
		b[i] = int32(r.Intn(5))
	}
	if got := ARI(a, b); math.Abs(got) > 0.01 {
		t.Fatalf("ARI(independent)=%v", got)
	}
}

func TestARISkipsUnknown(t *testing.T) {
	a := []int32{0, 0, 1, 1, -1}
	b := []int32{1, 1, 0, 0, 0}
	if got := ARI(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI with unknowns=%v", got)
	}
}

func TestARIMismatchedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ARI([]int32{0}, []int32{0, 1})
}

func TestNMIBounds(t *testing.T) {
	a := []int32{0, 0, 1, 1}
	if got := NMI(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("NMI(self)=%v", got)
	}
	b := []int32{1, 1, 0, 0}
	if got := NMI(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("NMI(relabel)=%v", got)
	}
	r := xrand.New(17)
	n := 20_000
	x := make([]int32, n)
	y := make([]int32, n)
	for i := range x {
		x[i] = int32(r.Intn(4))
		y[i] = int32(r.Intn(4))
	}
	if got := NMI(x, y); got > 0.01 {
		t.Fatalf("NMI(independent)=%v", got)
	}
}

func TestAccuracy(t *testing.T) {
	pred := []int32{0, 1, 1, -1}
	truth := []int32{0, 1, 0, 1}
	if got := Accuracy(pred, truth); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("accuracy=%v", got)
	}
	if Accuracy([]int32{-1}, []int32{0}) != 0 {
		t.Fatal("all-unknown accuracy must be 0")
	}
}

func TestContingency(t *testing.T) {
	table, na, nb := Contingency([]int32{0, 0, 1}, []int32{1, 1, 0})
	if na != 2 || nb != 2 {
		t.Fatalf("na=%d nb=%d", na, nb)
	}
	if table[0][1] != 2 || table[1][0] != 1 || table[0][0] != 0 {
		t.Fatalf("table=%v", table)
	}
}
