package gee

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/xrand"
)

// bruteForce computes Z directly from the definition, independent of any
// implementation structure in this package: for each edge row, look up
// class counts recomputed from scratch and accumulate into a [][]float64.
func bruteForce(el *graph.EdgeList, y []int32, k int) *mat.Dense {
	counts := make([]float64, k)
	for _, c := range y {
		if c >= 0 {
			counts[c]++
		}
	}
	z := mat.NewDense(el.N, k)
	for _, e := range el.Edges {
		if yv := y[e.V]; yv >= 0 {
			z.Add(int(e.U), int(yv), float64(e.W)/counts[yv])
		}
		if yu := y[e.U]; yu >= 0 {
			z.Add(int(e.V), int(yu), float64(e.W)/counts[yu])
		}
	}
	return z
}

// TestPropertyAllImplsMatchBruteForce drives every implementation with
// randomly generated tiny graphs and labelings and compares against the
// definition-level oracle.
func TestPropertyAllImplsMatchBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(30)
		k := 1 + r.Intn(5)
		m := r.Intn(120)
		el := &graph.EdgeList{N: n}
		for i := 0; i < m; i++ {
			el.Edges = append(el.Edges, graph.Edge{
				U: graph.NodeID(r.Intn(n)),
				V: graph.NodeID(r.Intn(n)),
				W: float32(r.Intn(5) + 1),
			})
		}
		y := make([]int32, n)
		anyLabeled := false
		for i := range y {
			if r.Float64() < 0.3 {
				y[i] = -1
			} else {
				y[i] = int32(r.Intn(k))
				anyLabeled = true
			}
		}
		if !anyLabeled {
			y[0] = 0
		}
		want := bruteForce(el, y, k)
		for _, impl := range []Impl{Reference, Optimized, LigraSerial, LigraParallel} {
			res, err := Embed(impl, el, y, Options{K: k, Workers: 4})
			if err != nil {
				t.Logf("seed %d impl %v: %v", seed, impl, err)
				return false
			}
			if !want.EqualTol(res.Z, 1e-9) {
				t.Logf("seed %d impl %v: max diff %v", seed, impl, want.MaxAbsDiff(res.Z))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPermutationEquivariance: relabeling vertices by a
// permutation must permute embedding rows identically (GEE has no
// positional dependence).
func TestPropertyPermutationEquivariance(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 3 + r.Intn(20)
		k := 1 + r.Intn(4)
		el := &graph.EdgeList{N: n}
		for i := 0; i < 50; i++ {
			el.Edges = append(el.Edges, graph.Edge{
				U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: 1,
			})
		}
		y := make([]int32, n)
		for i := range y {
			y[i] = int32(r.Intn(k))
		}
		perm := graph.RandomPermutation(n, seed^0xbeef)
		pel := graph.Permute(el, perm)
		py := make([]int32, n)
		for v, p := range perm {
			py[p] = y[v]
		}
		a, err := Embed(Optimized, el, y, Options{K: k})
		if err != nil {
			return false
		}
		b, err := Embed(Optimized, pel, py, Options{K: k})
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			rowA := a.Z.Row(v)
			rowB := b.Z.Row(int(perm[v]))
			for c := range rowA {
				if rowA[c] != rowB[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWeightLinearity: scaling all edge weights by a constant
// scales Z by the same constant (contributions are linear in w).
func TestPropertyWeightLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 3 + r.Intn(15)
		el := &graph.EdgeList{N: n}
		for i := 0; i < 40; i++ {
			el.Edges = append(el.Edges, graph.Edge{
				U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: float32(r.Intn(4) + 1),
			})
		}
		y := make([]int32, n)
		for i := range y {
			y[i] = int32(r.Intn(3))
		}
		scaled := el.Clone()
		for i := range scaled.Edges {
			scaled.Edges[i].W *= 4 // power of two: exact in float
		}
		a, err := Embed(Optimized, el, y, Options{K: 3})
		if err != nil {
			return false
		}
		b, err := Embed(Optimized, scaled, y, Options{K: 3})
		if err != nil {
			return false
		}
		for i := range a.Z.Data {
			if a.Z.Data[i]*4 != b.Z.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
