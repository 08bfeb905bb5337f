package graph

import "testing"

func TestDegreeOrderHubsFirst(t *testing.T) {
	// star: center must map to position 0
	el := Symmetrize(&EdgeList{N: 5, Edges: []Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 0, V: 3, W: 1}, {U: 0, V: 4, W: 1},
	}})
	g := BuildCSR(2, el)
	perm := DegreeOrder(2, g)
	if perm[0] != 0 {
		t.Fatalf("center mapped to %d", perm[0])
	}
	seen := make([]bool, 5)
	for _, p := range perm {
		if seen[p] {
			t.Fatal("not a permutation")
		}
		seen[p] = true
	}
}

func TestBFSOrderContiguity(t *testing.T) {
	// path graph from the highest-degree (interior) vertex: BFS order
	// must be a permutation and neighbors must get nearby new ids
	el := Symmetrize(&EdgeList{N: 6, Edges: []Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1},
	}})
	g := BuildCSR(2, el)
	perm := BFSOrder(g)
	seen := make([]bool, 6)
	for _, p := range perm {
		if seen[p] {
			t.Fatal("not a permutation")
		}
		seen[p] = true
	}
	// every edge must connect vertices within BFS-level distance in the
	// new ordering (path graph: distance <= 4 trivially; check adjacency
	// gaps are mostly small)
	total := 0
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			d := int(perm[u]) - int(perm[v])
			if d < 0 {
				d = -d
			}
			total += d
		}
	}
	if total > 30 { // path graph BFS order keeps gaps tiny
		t.Fatalf("total adjacency gap %d too large for a path", total)
	}
}

func TestBFSOrderDisconnected(t *testing.T) {
	el := &EdgeList{N: 4, Edges: []Edge{{U: 0, V: 1, W: 1}}}
	g := BuildCSR(1, Symmetrize(el))
	perm := BFSOrder(g)
	seen := make([]bool, 4)
	for _, p := range perm {
		if seen[p] {
			t.Fatal("not a permutation")
		}
		seen[p] = true
	}
}

func TestApplyOrderPreservesStructure(t *testing.T) {
	el := randomEdgeList(30, 200, 71, false)
	g := BuildCSR(2, el)
	perm := DegreeOrder(2, g)
	rg := ApplyOrder(2, g, perm)
	if rg.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed")
	}
	// degree multiset preserved
	var a, b []int64
	for v := 0; v < g.N; v++ {
		a = append(a, g.Degree(NodeID(v)))
		b = append(b, rg.Degree(NodeID(v)))
	}
	parallel := func(s []int64) {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
	}
	parallel(a)
	parallel(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("degree multiset changed")
		}
	}
}
