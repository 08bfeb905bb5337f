package exec

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// testKernel builds a GEE-shaped kernel over n vertices: k classes
// cycled over the vertices with every 7th vertex unlabeled, class
// coefficients 1/count(class), and optionally a per-vertex scale (the
// Laplacian shape).
func testKernel(n, k int, scaled bool) Kernel[float64] {
	y := make([]int32, n)
	counts := make([]int64, k)
	for i := range y {
		if i%7 == 3 {
			y[i] = -1
			continue
		}
		y[i] = int32(i % k)
		counts[y[i]]++
	}
	cls := make([]float64, k)
	for c, m := range counts {
		if m > 0 {
			cls[c] = 1 / float64(m)
		}
	}
	var scale []float64
	if scaled {
		scale = make([]float64, n)
		for i := range scale {
			scale[i] = 1 / math.Sqrt(float64(i%5+1))
		}
	}
	return NewKernel(k, y, cls, scale)
}

func maxAbsDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}

// powerLawGraph builds a skewed RMAT stand-in: the workload where hot
// destination rows serialize atomic adds and sharding matters.
func powerLawGraph(t testing.TB, scale int, m int64, seed uint64) *graph.CSR {
	t.Helper()
	el := gen.RMAT(4, scale, m, gen.Graph500Params, seed)
	return graph.BuildCSR(4, el)
}

func TestStrategiesMatchSerialOracle(t *testing.T) {
	g := powerLawGraph(t, 11, 40_000, 1)
	shapes := []struct {
		name   string
		scaled bool
	}{
		{"plain", false},
		{"scaled", true},
	}
	for _, shape := range shapes {
		k := testKernel(g.N, 8, shape.scaled)
		oracle := make([]float64, g.N*k.Width)
		if _, err := Run(Serial, g, k, oracle, Options{}); err != nil {
			t.Fatalf("%s serial: %v", shape.name, err)
		}
		for _, s := range []Strategy{Atomic, Replicated, ShardedDest} {
			z := make([]float64, len(oracle))
			st, err := Run(s, g, k, z, Options{Workers: 8})
			if err != nil {
				t.Fatalf("%s %v: %v", shape.name, s, err)
			}
			if d := maxAbsDiff(oracle, z); d > 1e-9 {
				t.Errorf("%s %v: max |Δ| = %g vs serial oracle", shape.name, s, d)
			}
			if st.AtomicAdds+st.PlainAdds == 0 {
				t.Errorf("%s %v: no adds recorded", shape.name, s)
			}
		}
	}
}

func TestWeightedArcsMatchSerialOracle(t *testing.T) {
	el := gen.RMAT(4, 10, 20_000, gen.Graph500Params, 5)
	for i := range el.Edges {
		el.Edges[i].W = float32(i%9 + 1)
	}
	g := graph.BuildCSR(4, el)
	k := testKernel(g.N, 6, true)
	oracle := make([]float64, g.N*k.Width)
	if _, err := Run(Serial, g, k, oracle, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{Atomic, Replicated, ShardedDest} {
		z := make([]float64, len(oracle))
		if _, err := Run(s, g, k, z, Options{Workers: 8}); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if d := maxAbsDiff(oracle, z); d > 1e-9 {
			t.Errorf("%v: max |Δ| = %g on weighted arcs", s, d)
		}
	}
}

// TestShardedMatchesAtomicWithZeroAtomicAdds is the acceptance check for
// the sharded backend: output equal to the Atomic (LigraParallel)
// discipline within 1e-9 while the Stats counting hook records zero
// atomic operations, and the same number of logical adds.
func TestShardedMatchesAtomicWithZeroAtomicAdds(t *testing.T) {
	g := powerLawGraph(t, 12, 100_000, 7)
	k := testKernel(g.N, 16, false)
	az := make([]float64, g.N*k.Width)
	sz := make([]float64, g.N*k.Width)
	ast, err := Run(Atomic, g, k, az, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sst, err := Run(ShardedDest, g, k, sz, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(az, sz); d > 1e-9 {
		t.Fatalf("sharded deviates from atomic by %g", d)
	}
	if sst.AtomicAdds != 0 {
		t.Fatalf("sharded performed %d atomic adds, want 0", sst.AtomicAdds)
	}
	if ast.PlainAdds != 0 {
		t.Fatalf("atomic performed %d plain adds, want 0", ast.PlainAdds)
	}
	if sst.PlainAdds != ast.AtomicAdds {
		t.Fatalf("add counts disagree: sharded %d plain vs atomic %d atomic (lost or duplicated updates)",
			sst.PlainAdds, ast.AtomicAdds)
	}
	if sst.Shards < 2 {
		t.Fatalf("expected a real shard split, got %d", sst.Shards)
	}
}

// TestShardedRaceFree exercises ShardedDest under the race detector on a
// skewed power-law graph with more workers than cores, across repeated
// runs: the contention-free ownership claim is that no two workers ever
// touch the same Z cell. `go test -race ./internal/exec` is the real
// assertion here.
func TestShardedRaceFree(t *testing.T) {
	g := powerLawGraph(t, 12, 150_000, 11)
	k := testKernel(g.N, 4, false)
	for trial := 0; trial < 3; trial++ {
		z := make([]float64, g.N*k.Width)
		st, err := Run(ShardedDest, g, k, z, Options{Workers: 16})
		if err != nil {
			t.Fatal(err)
		}
		if st.AtomicAdds != 0 {
			t.Fatalf("trial %d: %d atomic adds", trial, st.AtomicAdds)
		}
	}
}

func TestShardedDeterministic(t *testing.T) {
	// Disjoint ownership means a fixed per-cell accumulation order:
	// repeated runs must agree bit-for-bit (unlike Atomic, whose
	// interleaving reorders the sums).
	g := powerLawGraph(t, 10, 30_000, 13)
	k := testKernel(g.N, 8, true)
	a := make([]float64, g.N*k.Width)
	b := make([]float64, g.N*k.Width)
	if _, err := Run(ShardedDest, g, k, a, Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ShardedDest, g, k, b, Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d: %v vs %v across identical runs", i, a[i], b[i])
		}
	}
}

func TestShardedBucketsCoverEveryArc(t *testing.T) {
	g := powerLawGraph(t, 10, 25_000, 17)
	for _, parts := range []int{2, 3, 8} {
		plan := buildDestPlan(g, parts, 4)
		if got := int64(len(plan.arcs)); got != g.NumEdges() {
			t.Fatalf("parts=%d: %d bucketed arcs for %d stored", parts, got, g.NumEdges())
		}
		if plan.start[len(plan.start)-1] != g.NumEdges() {
			t.Fatalf("parts=%d: bucket starts %v", parts, plan.start)
		}
		for p := 0; p < parts; p++ {
			for _, e := range plan.arcs[plan.start[p]:plan.start[p+1]] {
				if q := parallel.RangeOf(plan.bounds, int(e.V)); q != p {
					t.Fatalf("parts=%d: arc to %d bucketed into shard %d, owner %d", parts, e.V, p, q)
				}
			}
		}
	}
}

// TestShardedPlanCachedAcrossRuns is the acceptance check for the
// ROADMAP plan-cache item: the first ShardedDest run on a CSR buckets
// the arcs, every subsequent run at the same worker count reports zero
// plan builds — including runs with a different kernel, since the plan
// depends only on graph structure.
func TestShardedPlanCachedAcrossRuns(t *testing.T) {
	g := powerLawGraph(t, 11, 50_000, 31)
	k := testKernel(g.N, 8, false)
	z := make([]float64, g.N*k.Width)
	first, err := Run(ShardedDest, g, k, z, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanBuilds != 1 || first.PlanReuses != 0 {
		t.Fatalf("first run: builds=%d reuses=%d, want 1/0", first.PlanBuilds, first.PlanReuses)
	}
	for trial := 0; trial < 3; trial++ {
		z2 := make([]float64, len(z))
		again, err := Run(ShardedDest, g, k, z2, Options{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if again.PlanBuilds != 0 || again.PlanReuses != 1 {
			t.Fatalf("repeat run %d: builds=%d reuses=%d, want 0/1", trial, again.PlanBuilds, again.PlanReuses)
		}
		if d := maxAbsDiff(z, z2); d != 0 {
			t.Fatalf("repeat run %d deviates by %g under a cached plan", trial, d)
		}
	}
	// A different kernel shape reuses the same structural plan.
	lk := testKernel(g.N, 8, true)
	lz := make([]float64, g.N*lk.Width)
	st, err := Run(ShardedDest, g, lk, lz, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanBuilds != 0 {
		t.Fatalf("scaled (Laplacian) kernel rebuilt the structural plan (builds=%d)", st.PlanBuilds)
	}
	// A different worker count is a different shard layout: rebuild.
	z3 := make([]float64, len(z))
	st, err = Run(ShardedDest, g, k, z3, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanBuilds != 1 {
		t.Fatalf("worker-count change did not rebuild (builds=%d)", st.PlanBuilds)
	}
}

func TestShardedEdgesMatchesSerial(t *testing.T) {
	el := gen.RMAT(4, 11, 60_000, gen.Graph500Params, 37)
	for i := range el.Edges {
		el.Edges[i].W = float32(i%7 + 1)
	}
	for _, shape := range []struct {
		name   string
		scaled bool
	}{{"plain", false}, {"scaled", true}} {
		k := testKernel(el.N, 8, shape.scaled)
		want := make([]float64, el.N*k.Width)
		if _, err := SerialEdges(k, el.Edges, el.N, want); err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{2, 7, 16} {
			plan, err := NewEdgePlan(el.N, parts)
			if err != nil {
				t.Fatal(err)
			}
			z := make([]float64, len(want))
			st, err := ShardedEdges(k, el.Edges, z, plan, 8)
			if err != nil {
				t.Fatalf("%s parts=%d: %v", shape.name, parts, err)
			}
			if d := maxAbsDiff(want, z); d > 1e-9 {
				t.Errorf("%s parts=%d: deviates from serial by %g", shape.name, parts, d)
			}
			if st.AtomicAdds != 0 {
				t.Errorf("%s parts=%d: %d atomic adds, want 0", shape.name, parts, st.AtomicAdds)
			}
			if st.Shards != parts {
				t.Errorf("%s parts=%d: reported %d shards", shape.name, parts, st.Shards)
			}
		}
	}
}

// TestShardedEdgesScratchReuse folds several batches through one plan —
// the dynamic-ingest pattern — and checks the accumulated result and
// the scratch reuse both hold.
func TestShardedEdgesScratchReuse(t *testing.T) {
	el := gen.RMAT(4, 10, 30_000, gen.Graph500Params, 41)
	k := testKernel(el.N, 6, false)
	want := make([]float64, el.N*k.Width)
	if _, err := SerialEdges(k, el.Edges, el.N, want); err != nil {
		t.Fatal(err)
	}
	plan, err := NewEdgePlan(el.N, 8)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, len(want))
	edges := el.Edges
	for len(edges) > 0 {
		sz := 1 + len(edges)/3
		if sz > len(edges) {
			sz = len(edges)
		}
		if _, err := ShardedEdges(k, edges[:sz], z, plan, 8); err != nil {
			t.Fatal(err)
		}
		edges = edges[sz:]
	}
	if d := maxAbsDiff(want, z); d > 1e-9 {
		t.Fatalf("batched sharded folds deviate by %g", d)
	}
}

func TestShardedEdgesRaceFree(t *testing.T) {
	el := gen.RMAT(4, 11, 80_000, gen.Graph500Params, 43)
	k := testKernel(el.N, 4, false)
	plan, err := NewEdgePlan(el.N, 16)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, el.N*k.Width)
	for trial := 0; trial < 3; trial++ {
		if _, err := ShardedEdges(k, el.Edges, z, plan, 16); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEdgePlanValidation(t *testing.T) {
	if _, err := NewEdgePlan(0, 4); err == nil {
		t.Fatal("empty vertex range accepted")
	}
	plan, err := NewEdgePlan(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shards() != 3 {
		t.Fatalf("plan over 3 vertices has %d shards", plan.Shards())
	}
	if plan.n != 3 {
		t.Fatalf("plan covers n=%d", plan.n)
	}
	bad := testKernel(3, 2, false)
	bad.cls = bad.cls[:1]
	if _, err := ShardedEdges(bad, nil, make([]float64, 6), plan, 2); err == nil {
		t.Fatal("bad kernel accepted")
	}
}

func TestRacyUpgradesOrRuns(t *testing.T) {
	// Racy must execute without error regardless of the race detector
	// (under -race it silently upgrades to Atomic).
	g := powerLawGraph(t, 9, 10_000, 19)
	k := testKernel(g.N, 4, false)
	z := make([]float64, g.N*k.Width)
	if _, err := Run(Racy, g, k, z, Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat32Instantiation(t *testing.T) {
	g := powerLawGraph(t, 10, 20_000, 23)
	k64 := testKernel(g.N, 8, true)
	narrow := func(x []float64) []float32 {
		out := make([]float32, len(x))
		for i, v := range x {
			out[i] = float32(v)
		}
		return out
	}
	k32 := NewKernel(k64.Width, k64.SrcCol, narrow(k64.cls), narrow(k64.Scale))
	oracle := make([]float64, g.N*k64.Width)
	if _, err := Run(Serial, g, k64, oracle, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{Serial, Atomic, ShardedDest} {
		z := make([]float32, g.N*k32.Width)
		if _, err := Run(s, g, k32, z, Options{Workers: 8}); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		var d float64
		for i := range z {
			if x := math.Abs(float64(z[i]) - oracle[i]); x > d {
				d = x
			}
		}
		if d > 1e-3 {
			t.Errorf("%v: float32 deviates from float64 oracle by %g", s, d)
		}
	}
}

func TestEdgeSliceExecutionMatchesCSR(t *testing.T) {
	el := gen.RMAT(4, 10, 15_000, gen.Graph500Params, 29)
	g := graph.BuildCSR(4, el)
	k := testKernel(g.N, 8, false)
	want := make([]float64, g.N*k.Width)
	if _, err := Run(Serial, g, k, want, Options{}); err != nil {
		t.Fatal(err)
	}
	serial := make([]float64, len(want))
	if _, err := SerialEdges(k, el.Edges, el.N, serial); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(want, serial); d > 1e-9 {
		t.Fatalf("SerialEdges deviates by %g", d)
	}
	atomicZ := make([]float64, len(want))
	st, err := AtomicEdges(k, el.Edges, el.N, atomicZ, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(want, atomicZ); d > 1e-9 {
		t.Fatalf("AtomicEdges deviates by %g", d)
	}
	if st.AtomicAdds == 0 {
		t.Fatal("AtomicEdges recorded no atomic adds")
	}
}

func TestRunValidation(t *testing.T) {
	g := graph.BuildCSR(1, &graph.EdgeList{N: 3, Edges: []graph.Edge{{U: 0, V: 1, W: 1}}})
	good := testKernel(3, 2, false)
	z := make([]float64, 3*good.Width)
	if _, err := Run(Strategy(99), g, good, z, Options{}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	bad := good
	bad.cls = bad.cls[:1]
	if _, err := Run(Serial, g, bad, z, Options{}); err == nil {
		t.Fatal("short class table accepted")
	}
	if _, err := Run(Serial, g, good, z[:2], Options{}); err == nil {
		t.Fatal("short buffer accepted")
	}
	zero := good
	zero.Width = 0
	if _, err := Run(Serial, g, zero, nil, Options{}); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := SerialEdges(bad, nil, 3, z); err == nil {
		t.Fatal("SerialEdges accepted bad kernel")
	}
	if _, err := AtomicEdges(bad, nil, 3, z, 2); err == nil {
		t.Fatal("AtomicEdges accepted bad kernel")
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.BuildCSR(1, &graph.EdgeList{N: 0})
	k := NewKernel[float64](2, nil, make([]float64, 2), nil)
	if _, err := Run(ShardedDest, empty, k, nil, Options{Workers: 8}); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	// Fewer vertices than workers: shard count clamps to n.
	tiny := graph.BuildCSR(1, &graph.EdgeList{N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: 1}}})
	tk := testKernel(2, 1, false)
	z := make([]float64, 2*tk.Width)
	st, err := Run(ShardedDest, tiny, tk, z, Options{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards > 2 {
		t.Fatalf("%d shards for 2 vertices", st.Shards)
	}
}

func TestStrategyString(t *testing.T) {
	for _, s := range Strategies {
		if s.String() == "" || s.String()[0] == 'S' {
			t.Fatalf("strategy %d has no name", int(s))
		}
	}
	if Strategy(42).String() == "" {
		t.Fatal("unknown strategy must stringify")
	}
}

// TestRunRefusesNonClassKernel holds the literal kernel form to the
// class form: every entry point refuses, leaving z untouched, a kernel
// whose DstCol differs from SrcCol or whose Coeff varies within a class,
// and folds a literal kernel that is a class kernel bit for bit as its
// class form.
func TestRunRefusesNonClassKernel(t *testing.T) {
	el := gen.RMAT(1, 8, 2_000, gen.Graph500Params, 71)
	g := graph.BuildCSR(1, el)
	class := testKernel(g.N, 4, true)
	literal := func() Kernel[float64] {
		coeff := make([]float64, g.N)
		for x, c := range class.SrcCol {
			if c >= 0 {
				coeff[x] = class.cls[c]
			}
		}
		return Kernel[float64]{Width: class.Width, SrcCol: class.SrcCol, DstCol: slices.Clone(class.SrcCol), Coeff: coeff, Scale: class.Scale}
	}
	directed := literal()
	directed.DstCol[5] = (directed.DstCol[5] + 1) % 4
	varying := literal()
	varying.Coeff[5] *= 2
	plan, err := NewEdgePlan(g.N, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Each entry point at a setting whose sums have one order, so a
	// literal kernel's result must equal its class form's exactly.
	for _, entry := range []struct {
		name string
		fold func(Kernel[float64], []float64) error
	}{
		{"Run", func(k Kernel[float64], z []float64) error {
			_, err := Run(ShardedDest, g, k, z, Options{Workers: 2})
			return err
		}},
		{"SerialEdges", func(k Kernel[float64], z []float64) error {
			_, err := SerialEdges(k, el.Edges, g.N, z)
			return err
		}},
		{"AtomicEdges", func(k Kernel[float64], z []float64) error {
			_, err := AtomicEdges(k, el.Edges, g.N, z, 1)
			return err
		}},
		{"ShardedEdges", func(k Kernel[float64], z []float64) error {
			_, err := ShardedEdges(k, el.Edges, z, plan, 2)
			return err
		}},
	} {
		want := make([]float64, g.N*class.Width)
		if err := entry.fold(class, want); err != nil {
			t.Fatalf("%s: class kernel: %v", entry.name, err)
		}
		got := make([]float64, len(want))
		if err := entry.fold(literal(), got); err != nil {
			t.Fatalf("%s refused a literal class kernel: %v", entry.name, err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: the literal kernel's Z differs from its class form's", entry.name)
		}
		for name, bad := range map[string]Kernel[float64]{"directed": directed, "varying coefficient": varying} {
			z := slices.Repeat([]float64{7}, len(want))
			if err := entry.fold(bad, z); err == nil {
				t.Errorf("%s accepted a %s kernel", entry.name, name)
			}
			if slices.ContainsFunc(z, func(x float64) bool { return x != 7 }) {
				t.Errorf("%s wrote z for a refused %s kernel", entry.name, name)
			}
		}
	}
}
