package exec

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/race"
)

// walkCase is one kernel shape over one graph for the walk table.
type walkCase struct {
	name             string
	g                *graph.CSR
	y                []int32 // class per vertex, negative = unlabelled
	classes          int
	scaled, directed bool
}

// walkCases covers the structural corners of the shared arc walk. The
// hand-built graph has, by construction: an unlabelled source (3) with
// labelled and unlabelled targets, an unlabelled target (3, 7) of
// labelled sources, a labelled and an unlabelled self-loop, duplicate
// arcs, and zero-degree vertices (5 has no arcs at all, 6 only incoming
// ones). The R-MAT graph adds hot rows that several workers hit at once.
func walkCases(t *testing.T) []walkCase {
	t.Helper()
	edges := []graph.Edge{
		{U: 0, V: 1, W: 2}, {U: 0, V: 1, W: 2}, {U: 0, V: 1, W: 0.5}, // duplicates
		{U: 0, V: 3, W: 3},                     // labelled → unlabelled
		{U: 1, V: 1, W: 1.5},                   // labelled self-loop
		{U: 2, V: 0, W: 1}, {U: 2, V: 6, W: 4}, // into a vertex with no out-arcs
		{U: 3, V: 0, W: 2}, {U: 3, V: 7, W: 1}, // unlabelled source
		{U: 3, V: 3, W: 5}, // unlabelled self-loop
		{U: 4, V: 2, W: 0.25}, {U: 7, V: 4, W: 1}, {U: 8, V: 0, W: 7}, {U: 8, V: 8, W: 1},
	}
	tinyY := []int32{0, 1, 0, -1, 2, 1, 2, -1, 0}
	tiny := func(weighted bool) *graph.CSR {
		el := &graph.EdgeList{N: len(tinyY), Edges: append([]graph.Edge(nil), edges...)}
		if !weighted {
			for i := range el.Edges {
				el.Edges[i].W = 1
			}
		}
		return graph.BuildCSR(1, el)
	}
	rmat := gen.RMAT(2, 10, 12_000, gen.Graph500Params, 31)
	for i := range rmat.Edges {
		rmat.Edges[i].W = float32(i%5) + 0.5
	}
	rmatG := graph.BuildCSR(2, rmat)
	rmatY := make([]int32, rmatG.N)
	for i := range rmatY {
		rmatY[i] = int32(i % 6)
		if i%10 != 0 { // 90% unlabelled, the embed_skewed regime
			rmatY[i] = -1
		}
	}
	return []walkCase{
		{name: "tiny/weighted", g: tiny(true), y: tinyY, classes: 3},
		{name: "tiny/unit-weight", g: tiny(false), y: tinyY, classes: 3},
		{name: "tiny/scaled", g: tiny(true), y: tinyY, classes: 3, scaled: true},
		{name: "tiny/directed", g: tiny(true), y: tinyY, classes: 3, directed: true},
		{name: "tiny/scaled-directed-unit", g: tiny(false), y: tinyY, classes: 3, scaled: true, directed: true},
		{name: "rmat/sparse-labels", g: rmatG, y: rmatY, classes: 6},
		{name: "rmat/scaled-directed", g: rmatG, y: rmatY, classes: 6, scaled: true, directed: true},
	}
}

// walkKernel builds the case's kernel at cell type T: Coeff = 1/count(class),
// Scale = 1/sqrt(1 + v mod 5) (the Laplacian shape), DstCol shifted by
// the class count over a doubled width (the directed shape).
func walkKernel[T Float](c walkCase) Kernel[T] {
	n := len(c.y)
	counts := make([]int, c.classes)
	for _, cls := range c.y {
		if cls >= 0 {
			counts[cls]++
		}
	}
	k := Kernel[T]{Width: c.classes, SrcCol: c.y, DstCol: c.y, Coeff: make([]T, n)}
	for v, cls := range c.y {
		if cls >= 0 {
			k.Coeff[v] = T(1 / float64(counts[cls]))
		}
	}
	if c.scaled {
		k.Scale = make([]T, n)
		for v := range k.Scale {
			k.Scale[v] = T(1 / math.Sqrt(float64(v%5+1)))
		}
	}
	if c.directed {
		k.Width = 2 * c.classes
		k.DstCol = make([]int32, n)
		for v, cls := range c.y {
			k.DstCol[v] = -1
			if cls >= 0 {
				k.DstCol[v] = cls + int32(c.classes)
			}
		}
	}
	return k
}

// runWalkCase checks every strategy × worker count of one case at cell
// type T against a plain Kernel.Apply loop: bit-identical wherever one
// worker does the adds in arc order, within tol where workers reorder
// them, and with Stats counting exactly the labelled half-updates.
func runWalkCase[T Float](t *testing.T, c walkCase, tol float64) {
	k := walkKernel[T](c)
	want := make([]T, c.g.N*k.Width)
	var halves int64
	for u := 0; u < c.g.N; u++ {
		for i := c.g.Offsets[u]; i < c.g.Offsets[u+1]; i++ {
			halves += k.Apply(want, graph.NodeID(u), c.g.Targets[i], c.g.Weight(i))
		}
	}
	var labelled int64
	for u := 0; u < c.g.N; u++ {
		for _, v := range c.g.Neighbors(graph.NodeID(u)) {
			if k.SrcCol[v] >= 0 {
				labelled++
			}
			if k.DstCol[u] >= 0 {
				labelled++
			}
		}
	}
	if halves != labelled || labelled == 0 {
		t.Fatalf("reference loop made %d adds for %d labelled half-updates", halves, labelled)
	}
	for _, s := range Strategies {
		for _, workers := range []int{1, 2, 7} {
			z := make([]T, len(want))
			st, err := Run(s, c.g, k, z, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%v/w%d: %v", s, workers, err)
			}
			if got := st.AtomicAdds + st.PlainAdds; got != labelled {
				t.Errorf("%v/w%d: %d atomic + %d plain adds, want %d labelled half-updates",
					s, workers, st.AtomicAdds, st.PlainAdds, labelled)
			}
			if wantAtomic := usesAtomicAdds(s, workers); (st.AtomicAdds > 0) != wantAtomic {
				t.Errorf("%v/w%d: %d atomic adds, usesAtomicAdds = %v", s, workers, st.AtomicAdds, wantAtomic)
			}
			if s == Racy && workers > 1 && !race.Enabled {
				continue // racy by design: only the counts are defined
			}
			var worst float64
			for i := range z {
				worst = math.Max(worst, math.Abs(float64(z[i])-float64(want[i])))
			}
			limit := tol
			if workers == 1 || s == Serial {
				limit = 0
			}
			if worst > limit {
				t.Errorf("%v/w%d: max |Δ| = %g vs the plain Apply loop, limit %g", s, workers, worst, limit)
			}
		}
	}
}

// TestWalkMatchesPlainApplyLoop is the acceptance table for the shared
// arc walk: every case × cell type × strategy × worker count.
func TestWalkMatchesPlainApplyLoop(t *testing.T) {
	for _, c := range walkCases(t) {
		t.Run(c.name+"/float64", func(t *testing.T) { runWalkCase[float64](t, c, 1e-12) })
		// float32 sums carry ~1e-7 relative rounding, so reordered adds
		// agree to 1e-5 on these magnitudes, not to 1e-12.
		t.Run(c.name+"/float32", func(t *testing.T) { runWalkCase[float32](t, c, 1e-5) })
	}
}

// TestRunAllocatesPerWorkerNotPerArc pins the walk's allocation
// profile: Run(Serial) and Run(Atomic) allocate a handful of objects
// per worker (goroutines, the chunk closure, the escaped kernel) and
// nothing that grows with n or m.
func TestRunAllocatesPerWorkerNotPerArc(t *testing.T) {
	const workers = 4
	for _, s := range []Strategy{Serial, Atomic} {
		var allocs []float64
		for _, scale := range []int{8, 12} {
			g := powerLawGraph(t, scale, int64(8<<scale), 37)
			k := testKernel(g.N, 8, false, false)
			z := make([]float64, g.N*k.Width)
			allocs = append(allocs, testing.AllocsPerRun(5, func() {
				if _, err := Run(s, g, k, z, Options{Workers: workers}); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if allocs[0] != allocs[1] || allocs[1] > 4*workers {
			t.Errorf("%v: %v allocations per run at n=2^8 and n=2^12, want equal and at most %d",
				s, allocs, 4*workers)
		}
	}
}
