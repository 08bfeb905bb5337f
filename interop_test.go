package repro

import "testing"

func TestFacadeReorderInvariance(t *testing.T) {
	// GEE is permutation-equivariant, so a reordered graph with
	// reordered labels yields a row-permuted embedding.
	el := NewErdosRenyi(2, 120, 900, 58)
	g := BuildGraph(2, el)
	y := SampleLabels(g.N, 4, 0.5, 59)
	perm := DegreeOrder(2, g)
	rg := ApplyOrder(2, g, perm)
	ry := make([]int32, len(y))
	for old, p := range perm {
		ry[p] = y[old]
	}
	a, err := EmbedGraph(LigraParallel, g, y, Options{K: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EmbedGraph(LigraParallel, rg, ry, Options{K: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		ra := a.Z.Row(v)
		rb := b.Z.Row(int(perm[v]))
		for c := range ra {
			diff := ra[c] - rb[c]
			if diff < -1e-9 || diff > 1e-9 {
				t.Fatalf("row %d differs after reorder", v)
			}
		}
	}
	// BFSOrder also yields a valid permutation
	bperm := BFSOrder(g)
	seen := make([]bool, g.N)
	for _, p := range bperm {
		if seen[p] {
			t.Fatal("BFSOrder not a permutation")
		}
		seen[p] = true
	}
}
