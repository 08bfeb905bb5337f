package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/race"
	"repro/internal/xrand"
)

// walkCase is one kernel shape over one graph for the walk table.
type walkCase struct {
	name    string
	g       *graph.CSR
	y       []int32 // class per vertex, negative = unlabelled
	classes int
	scaled  bool
	// tol32 is the float32 bound for reordered sums, 1e-5 when zero; the
	// k* cases label two thirds of the vertices, so their cells are
	// longer sums that round further apart.
	tol32 float64
}

// walkCases covers the structural corners of the shared arc walk, in
// both of its forms: the unit-weight cases (no weights, no scale) run
// the unit form's two loops, the rest the general loop. The hand-built
// graph has, by construction: an unlabelled source (3) with labelled
// and unlabelled targets, an unlabelled target (3, 7) of labelled
// sources, a labelled and an unlabelled self-loop, duplicate arcs, and
// zero-degree vertices (5 has no arcs at all, 6 only incoming ones).
// The R-MAT graph, weighted and with unit weights, adds hot rows that
// several workers hit at once, and its k* cases sit on both sides of
// the 255 classes a one-byte label would hold; tiny/widest labels
// vertices up to the last column the two-byte labels hold (MaxWidth).
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
	rmatUnit := graph.BuildCSR(2, rmat)
	if tiny(false).Weights != nil || rmatUnit.Weights != nil {
		t.Fatal("a unit-weight case's CSR stores weights, so the walk's unit form would not run")
	}
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
	cases := []walkCase{
		{name: "tiny/weighted", g: tiny(true), y: tinyY, classes: 3},
		{name: "tiny/unit-weight", g: tiny(false), y: tinyY, classes: 3},
		{name: "tiny/scaled", g: tiny(true), y: tinyY, classes: 3, scaled: true},
		{name: "tiny/unlabelled", g: tiny(true), y: slices.Repeat([]int32{-1}, len(tinyY)), classes: 3},
		{name: "tiny/widest", g: tiny(true), y: []int32{0, MaxWidth - 1, 7, -1, MaxWidth - 2, MaxWidth - 1, 0, -1, 255}, classes: MaxWidth},
		{name: "rmat/sparse-labels", g: rmatG, y: rmatY, classes: 6},
		{name: "rmat/sparse-labels/unit-weight", g: rmatUnit, y: rmatY, classes: 6},
	}
	for _, classes := range []int{1, 254, 255, 256} {
		y := make([]int32, rmatG.N)
		for i := range y {
			y[i] = int32(i % classes)
			if i%3 == 1 {
				y[i] = -1
			}
		}
		name := fmt.Sprintf("rmat/k%d", classes)
		cases = append(cases,
			walkCase{name: name + "/weighted", g: rmatG, y: y, classes: classes, tol32: 1e-4},
			walkCase{name: name + "/scaled", g: rmatG, y: y, classes: classes, scaled: true, tol32: 1e-4},
			walkCase{name: name + "/unit-weight", g: rmatUnit, y: y, classes: classes, tol32: 1e-4})
	}
	return cases
}

// walkKernel builds the case's kernel at cell type T: class coefficients
// 1/count(class) and, when scaled, Scale = 1/sqrt(1 + v mod 5) (the
// Laplacian shape).
func walkKernel[T Float](c walkCase) Kernel[T] {
	counts := make([]int, c.classes)
	for _, cls := range c.y {
		if cls >= 0 {
			counts[cls]++
		}
	}
	cls := make([]T, c.classes)
	for i, n := range counts {
		if n > 0 {
			cls[i] = T(1 / float64(n))
		}
	}
	var scale []T
	if c.scaled {
		scale = make([]T, len(c.y))
		for v := range scale {
			scale[v] = T(1 / math.Sqrt(float64(v%5+1)))
		}
	}
	return NewKernel(c.classes, c.y, cls, scale)
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
	// Only the all-unlabelled case may make no adds at all.
	hasLabels := slices.ContainsFunc(c.y, func(x int32) bool { return x >= 0 })
	if halves != labelled || (labelled > 0) != hasLabels {
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
			if wantAtomic := usesAtomicAdds(s, workers) && labelled > 0; (st.AtomicAdds > 0) != wantAtomic {
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
		tol32 := c.tol32
		if tol32 == 0 {
			tol32 = 1e-5
		}
		t.Run(c.name+"/float32", func(t *testing.T) { runWalkCase[float32](t, c, tol32) })
	}
}

// TestRunAllocatesPerWorkerNotPerArc pins the walk's allocation
// profile: Run(Serial) and Run(Atomic) allocate a handful of objects
// per worker (goroutines, the chunk closure, the escaped kernel) plus
// the walk's one label array, and no object count that grows with n or
// m.
func TestRunAllocatesPerWorkerNotPerArc(t *testing.T) {
	const workers = 4
	for _, s := range []Strategy{Serial, Atomic} {
		var allocs []float64
		for _, scale := range []int{8, 12} {
			g := powerLawGraph(t, scale, int64(8<<scale), 37)
			k := testKernel(g.N, 8, false)
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

// BenchmarkWalk is the walk's layer ruler: Run over a permuted scale-16
// R-MAT with 16 arcs a vertex, K = 50 and 10% of the vertices labelled —
// embed_skewed's shape at 1/16 of its vertices — reported as stored arcs
// walked per second for the Serial and Atomic strategies, in both of the
// walk's forms: unit weights (the unit form, as embed_skewed runs it)
// and the same graph with weights in {0.5, …, 4.5} (the general loop).
func BenchmarkWalk(b *testing.B) {
	const scale, classes = 16, 50
	el := gen.RMAT(0, scale, 16<<scale, gen.Graph500Params, 53)
	el = graph.Permute(el, graph.RandomPermutation(el.N, 59))
	unit := graph.BuildCSR(0, el)
	for i := range el.Edges {
		el.Edges[i].W = float32(i%5) + 0.5
	}
	weighted := graph.BuildCSR(0, el)
	r := xrand.New(61)
	y := make([]int32, el.N)
	counts := make([]int, classes)
	for v := range y {
		y[v] = -1
		if r.Intn(10) == 0 {
			y[v] = int32(r.Intn(classes))
			counts[y[v]]++
		}
	}
	cls := make([]float64, classes)
	for c, n := range counts {
		cls[c] = 1 / float64(max(n, 1))
	}
	k := NewKernel(classes, y, cls, nil)
	z := make([]float64, el.N*classes)
	for _, form := range []struct {
		name string
		g    *graph.CSR
	}{{"unit", unit}, {"weighted", weighted}} {
		for _, s := range []Strategy{Serial, Atomic} {
			b.Run(form.name+"/"+s.String(), func(b *testing.B) {
				for b.Loop() {
					if _, err := Run(s, form.g, k, z, Options{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(form.g.NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
			})
		}
	}
}
