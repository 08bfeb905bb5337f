package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// triangle returns the directed 3-cycle 0->1->2->0.
func triangle() *EdgeList {
	return &EdgeList{N: 3, Edges: []Edge{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}}}
}

func randomEdgeList(n, m int, seed uint64, weighted bool) *EdgeList {
	r := xrand.New(seed)
	el := &EdgeList{N: n, Edges: make([]Edge, m)}
	for i := range el.Edges {
		w := float32(1)
		if weighted {
			w = float32(r.Intn(10) + 1)
		}
		el.Edges[i] = Edge{U: NodeID(r.Intn(n)), V: NodeID(r.Intn(n)), W: w}
	}
	return el
}

func TestEdgeListValidate(t *testing.T) {
	el := triangle()
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
	el.Edges = append(el.Edges, Edge{U: 5, V: 0, W: 1})
	if err := el.Validate(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	bad := &EdgeList{N: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative N accepted")
	}
}

func TestEdgeListClone(t *testing.T) {
	el := triangle()
	c := el.Clone()
	c.Edges[0].U = 2
	if el.Edges[0].U != 0 {
		t.Fatal("clone shares storage")
	}
}

func TestBuildCSRTriangle(t *testing.T) {
	g := BuildCSR(4, triangle())
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 || g.N != 3 {
		t.Fatalf("n=%d m=%d", g.N, g.NumEdges())
	}
	for u := NodeID(0); u < 3; u++ {
		if g.Degree(u) != 1 {
			t.Fatalf("degree(%d)=%d", u, g.Degree(u))
		}
		want := NodeID((u + 1) % 3)
		if g.Neighbors(u)[0] != want {
			t.Fatalf("neighbor(%d)=%d want %d", u, g.Neighbors(u)[0], want)
		}
	}
}

func TestBuildCSRPreservesMultiset(t *testing.T) {
	for _, workers := range []int{1, 8} {
		el := randomEdgeList(50, 5000, 7, true)
		g := BuildCSR(workers, el)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		back := g.ToEdgeList()
		if len(back.Edges) != len(el.Edges) {
			t.Fatalf("edge count %d want %d", len(back.Edges), len(el.Edges))
		}
		key := func(e Edge) [3]uint64 {
			return [3]uint64{uint64(e.U), uint64(e.V), uint64(e.W * 100)}
		}
		count := map[[3]uint64]int{}
		for _, e := range el.Edges {
			count[key(e)]++
		}
		for _, e := range back.Edges {
			count[key(e)]--
		}
		for k, c := range count {
			if c != 0 {
				t.Fatalf("edge multiset mismatch at %v: %d", k, c)
			}
		}
	}
}

// TestBuildCSRMatchesOneWorker pins BuildCSR's arc order: each row
// keeps edge-list order, so a build at any worker count (0 is
// GOMAXPROCS, which go test -cpu varies) equals the one-worker build
// arc for arc and weight for weight.
func TestBuildCSRMatchesOneWorker(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		el := randomEdgeList(4096, 50_000, 3, weighted)
		g1 := BuildCSR(1, el)
		next := slices.Clone(g1.Offsets)
		for i, e := range el.Edges {
			if a := next[e.U]; g1.Targets[a] != e.V || g1.Weight(a) != e.W {
				t.Fatalf("weighted=%v: edge %d is not at arc %d of row %d", weighted, i, a, e.U)
			}
			next[e.U]++
		}
		for _, workers := range []int{0, 2, 3, 8} {
			csrEqual(t, BuildCSR(workers, el), g1)
		}
	}
}

func TestBuildCSREmptyAndIsolated(t *testing.T) {
	g := BuildCSR(4, &EdgeList{N: 5})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Fatal("expected no edges")
	}
	for u := NodeID(0); u < 5; u++ {
		if g.Degree(u) != 0 {
			t.Fatal("expected isolated vertices")
		}
	}
	empty := BuildCSR(4, &EdgeList{N: 0})
	if err := empty.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCSRWeights(t *testing.T) {
	el := &EdgeList{N: 2, Edges: []Edge{{0, 1, 2.5}}}
	g := BuildCSR(1, el)
	if g.Weight(0) != 2.5 {
		t.Fatalf("weight=%v", g.Weight(0))
	}
	unweighted := BuildCSR(1, triangle())
	if unweighted.Weight(0) != 1 {
		t.Fatal("unweighted graphs must report unit weights")
	}
	if unweighted.Weights != nil {
		t.Fatal("an all-ones edge list must build without Weights")
	}
}

func TestCSRValidateCatchesCorruption(t *testing.T) {
	g := BuildCSR(1, triangle())
	g.Targets[0] = 99
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	g = BuildCSR(1, triangle())
	g.Offsets[1] = 5
	if err := g.Validate(); err == nil {
		t.Fatal("broken offsets accepted")
	}
	g = BuildCSR(1, triangle())
	g.Offsets = g.Offsets[:2]
	if err := g.Validate(); err == nil {
		t.Fatal("short offsets accepted")
	}
}

func TestSymmetrize(t *testing.T) {
	el := &EdgeList{N: 3, Edges: []Edge{{0, 1, 2}, {2, 2, 1}}}
	s := Symmetrize(el)
	if len(s.Edges) != 3 { // (0,1),(1,0),(2,2)
		t.Fatalf("got %d edges", len(s.Edges))
	}
	found := false
	for _, e := range s.Edges {
		if e.U == 1 && e.V == 0 && e.W == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("reverse arc missing or weight lost")
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	el := randomEdgeList(20, 100, 11, false)
	perm := RandomPermutation(20, 5)
	inv := make([]NodeID, 20)
	for i, p := range perm {
		inv[p] = NodeID(i)
	}
	back := Permute(Permute(el, perm), inv)
	for i := range el.Edges {
		if back.Edges[i] != el.Edges[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestRandomPermutationIsPermutation(t *testing.T) {
	p := RandomPermutation(100, 9)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatal("duplicate in permutation")
		}
		seen[v] = true
	}
}

func TestComputeStats(t *testing.T) {
	el := &EdgeList{N: 4, Edges: []Edge{{0, 1, 1}, {0, 2, 1}, {0, 0, 1}, {1, 2, 1}}}
	g := BuildCSR(2, el)
	s := ComputeStats(2, g)
	if s.N != 4 || s.M != 4 {
		t.Fatalf("n=%d m=%d", s.N, s.M)
	}
	if s.MaxDegree != 3 || s.MinDegree != 0 {
		t.Fatalf("min=%d max=%d", s.MinDegree, s.MaxDegree)
	}
	if s.Isolated != 2 { // vertices 2 and 3 have no out-edges
		t.Fatalf("isolated=%d", s.Isolated)
	}
	if s.SelfLoops != 1 {
		t.Fatalf("selfloops=%d", s.SelfLoops)
	}
	if s.WeightTotal != 4 {
		t.Fatalf("weight total=%v", s.WeightTotal)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(2, BuildCSR(1, &EdgeList{N: 0}))
	if s.N != 0 || s.M != 0 || s.MinDegree != 0 {
		t.Fatalf("%+v", s)
	}
}

func TestDegreePercentiles(t *testing.T) {
	// Star graph: center has degree n-1, leaves 0.
	n := 1000
	el := &EdgeList{N: n}
	for v := 1; v < n; v++ {
		el.Edges = append(el.Edges, Edge{U: 0, V: NodeID(v), W: 1})
	}
	g := BuildCSR(4, el)
	s := ComputeStats(4, g)
	if s.DegreeP50 != 0 {
		t.Fatalf("p50=%d want 0", s.DegreeP50)
	}
	if s.DegreeP99 != 0 {
		t.Fatalf("p99=%d want 0 (only 1 of 1000 vertices has degree)", s.DegreeP99)
	}
	if s.MaxDegree != int64(n-1) {
		t.Fatalf("max=%d", s.MaxDegree)
	}
}

func TestToEdgeListProperty(t *testing.T) {
	f := func(seed uint64) bool {
		el := randomEdgeList(17, 300, seed, false)
		g := BuildCSR(4, el)
		back := g.ToEdgeList()
		if back.N != el.N || len(back.Edges) != len(el.Edges) {
			return false
		}
		// every CSR arc starts at the vertex whose range contains it
		for u := 0; u < g.N; u++ {
			for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
				if back.Edges[i].U != NodeID(u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
