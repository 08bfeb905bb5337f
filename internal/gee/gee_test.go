package gee

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/mat"
	"repro/internal/race"
)

// handExample is a 4-vertex weighted graph with hand-computed embedding.
//
//	edges: (0,1,w=1) (1,2,w=2) (2,3,w=1) (3,0,w=1)
//	labels: Y = [0, 1, 0, 1]      counts: class0 = 2, class1 = 2
//	coeff:  [0.5, 0.5, 0.5, 0.5]
//
// Per edge (u,v,w): Z[u][Y[v]] += coeff[v]*w; Z[v][Y[u]] += coeff[u]*w.
//
//	(0,1,1): Z[0][1] += .5    Z[1][0] += .5
//	(1,2,2): Z[1][0] += 1     Z[2][1] += 1
//	(2,3,1): Z[2][1] += .5    Z[3][0] += .5
//	(3,0,1): Z[3][0] += .5    Z[0][1] += .5
//
// Z = [[0, 1], [1.5, 0], [0, 1.5], [1, 0]]
func handExample() (*graph.EdgeList, []int32, *mat.Dense) {
	el := &graph.EdgeList{N: 4, Edges: []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 1}, {U: 3, V: 0, W: 1},
	}}
	y := []int32{0, 1, 0, 1}
	want := mat.FromRows([][]float64{{0, 1}, {1.5, 0}, {0, 1.5}, {1, 0}})
	return el, y, want
}

func TestAllImplsMatchHandComputedValues(t *testing.T) {
	el, y, want := handExample()
	for _, impl := range Impls {
		res, err := Embed(impl, el, y, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%v: %v", impl, err)
		}
		if res.K != 2 {
			t.Fatalf("%v: K=%d", impl, res.K)
		}
		if d := want.MaxAbsDiff(res.Z); d != 0 {
			t.Fatalf("%v: max diff %v from hand-computed Z\ngot %v", impl, d, res.Z.Data)
		}
	}
}

func TestUnknownLabelsContributeNothing(t *testing.T) {
	// Vertex 1 unlabeled: edges touching it only contribute in one
	// direction.
	el := &graph.EdgeList{N: 3, Edges: []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}}
	y := []int32{0, labels.Unknown, 0}
	// counts: class0 = 2, coeff = 0.5 for vertices 0 and 2.
	// (0,1): Y[1] unknown -> no Z[0] update; Z[1][0] += 0.5
	// (1,2): Z[1][0] += 0.5; Y[1] unknown -> no Z[2] update
	want := mat.FromRows([][]float64{{0}, {1}, {0}})
	for _, impl := range Impls {
		res, err := Embed(impl, el, y, Options{K: 1, Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", impl, err)
		}
		if d := want.MaxAbsDiff(res.Z); d != 0 {
			t.Fatalf("%v: Z=%v", impl, res.Z.Data)
		}
	}
}

func TestSelfLoopDoubleContribution(t *testing.T) {
	// A self loop applies both updates to the same vertex, per
	// Algorithm 1 applied literally.
	el := &graph.EdgeList{N: 1, Edges: []graph.Edge{{U: 0, V: 0, W: 1}}}
	y := []int32{0}
	res, err := Embed(Reference, el, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Z.At(0, 0) != 2 { // coeff = 1/1, two updates
		t.Fatalf("Z=%v want 2", res.Z.At(0, 0))
	}
}

func TestKInference(t *testing.T) {
	el, y, _ := handExample()
	res, err := Embed(Optimized, el, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("inferred K=%d want 2", res.K)
	}
	// explicit wider K pads with zero columns
	res, err = Embed(Optimized, el, y, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 5 || res.Z.C != 5 {
		t.Fatalf("K=%d C=%d", res.K, res.Z.C)
	}
	for v := 0; v < 4; v++ {
		for c := 2; c < 5; c++ {
			if res.Z.At(v, c) != 0 {
				t.Fatal("padding columns must be zero")
			}
		}
	}
}

func TestErrorCases(t *testing.T) {
	el, y, _ := handExample()
	if _, err := Embed(Reference, el, y[:2], Options{}); err == nil {
		t.Fatal("label length mismatch accepted")
	}
	if _, err := Embed(Reference, el, []int32{0, 1, 0, 7}, Options{K: 2}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := Embed(Reference, el, []int32{-1, -1, -1, -1}, Options{}); err == nil {
		t.Fatal("all-unknown without K accepted")
	}
	if _, err := Embed(Impl(99), el, y, Options{}); err == nil {
		t.Fatal("bogus impl accepted")
	}
	if _, err := EmbedCSR(Impl(99), graph.BuildCSR(1, el), y, Options{}); err == nil {
		t.Fatal("bogus impl accepted via CSR")
	}
}

// TestKCeiling: K stops at exec.MaxWidth, the most classes the CSR
// walk's two-byte labels hold. At the ceiling every Impl embeds the hand
// example with its second class moved to the last column; one above it
// is refused, whether K is set or inferred.
func TestKCeiling(t *testing.T) {
	el, _, _ := handExample()
	last := int32(exec.MaxWidth - 1)
	y := []int32{0, last, 0, last}
	for _, im := range Impls {
		r, err := EmbedCSR(im, graph.BuildCSR(1, el), y, Options{Workers: 2})
		if err != nil {
			t.Fatalf("%v at K = %d: %v", im, exec.MaxWidth, err)
		}
		if r.K != exec.MaxWidth || r.Z.At(0, int(last)) != 1 || r.Z.At(1, 0) != 1.5 || r.Z.At(2, int(last)) != 1.5 {
			t.Errorf("%v at K = %d: K = %d, Z(0,%d) = %v, Z(1,0) = %v, Z(2,%d) = %v, want 1, 1.5, 1.5",
				im, exec.MaxWidth, r.K, last, r.Z.At(0, int(last)), r.Z.At(1, 0), last, r.Z.At(2, int(last)))
		}
	}
	if _, err := Embed(LigraSerial, el, y, Options{K: exec.MaxWidth + 1}); err == nil {
		t.Errorf("K = %d accepted", exec.MaxWidth+1)
	}
	if _, err := Embed(Reference, el, []int32{0, last + 1, 0, 1}, Options{}); err == nil {
		t.Errorf("inferred K = %d accepted", exec.MaxWidth+1)
	}
}

// TestEmbedCSRAllocatesZAndLabels is a ratchet on what one
// EmbedCSR(LigraParallel) allocates, averaged over many embeds: Z
// (n·K·8 bytes), the walk's two-byte labels (2n) and a constant — the
// K-entry class table, per-worker class counts, the result and the
// goroutines. A per-vertex coefficient array would add 8n.
func TestEmbedCSRAllocatesZAndLabels(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts need a build without the race detector")
	}
	const n, k, embeds = 1 << 14, 8, 50
	const maxBytes = n*k*8 + 2*n + 2048
	g := graph.BuildCSR(2, gen.RMAT(2, 14, 8*n, gen.Graph500Params, 91))
	y := make([]int32, n)
	for i := range y {
		y[i] = int32(i % k)
		if i%10 != 0 {
			y[i] = -1
		}
	}
	opts := Options{K: k, Workers: 2}
	embed := func() {
		if _, err := EmbedCSR(LigraParallel, g, y, opts); err != nil {
			t.Fatal(err)
		}
	}
	embed()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range embeds {
		embed()
	}
	runtime.ReadMemStats(&m1)
	bytes := (m1.TotalAlloc - m0.TotalAlloc) / embeds
	t.Logf("EmbedCSR(LigraParallel), n = %d, K = %d: %d bytes, n·K·8 + 2n + %d", n, k, bytes, int64(bytes)-n*k*8-2*n)
	if bytes > maxBytes {
		t.Errorf("EmbedCSR allocated %d bytes, want ≤ %d (n·K·8 + 2n + %d)", bytes, maxBytes, maxBytes-n*k*8-2*n)
	}
}

// TestEmbedRefusesInvalidEdgeList: an edge naming a vertex outside
// [0, N), or carrying a non-finite weight, is an error under every Impl
// rather than a panic on a worker goroutine.
func TestEmbedRefusesInvalidEdgeList(t *testing.T) {
	y := []int32{0, 1, 0, 1}
	for name, bad := range map[string]graph.Edge{
		"V out of range": {U: 0, V: 4, W: 1},
		"NaN weight":     {U: 0, V: 1, W: float32(math.NaN())},
	} {
		el := &graph.EdgeList{N: 4, Edges: []graph.Edge{{U: 1, V: 2, W: 1}, bad}}
		for _, impl := range Impls {
			if _, err := Embed(impl, el, y, Options{Workers: 4}); err == nil {
				t.Errorf("%s: %v accepted the edge list", name, impl)
			}
		}
	}
}

// TestNonUnitWeightsReachEveryImpl: an edge's weight is its W whichever
// Impl runs, the ones that build a CSR included. Every Impl but the
// racy one embeds a list with W in {1, 2, 3} equal to Reference, with
// the Laplacian off and on.
func TestNonUnitWeightsReachEveryImpl(t *testing.T) {
	el := gen.ErdosRenyi(4, 800, 6400, 41)
	for i := range el.Edges {
		el.Edges[i].W = float32(i%3 + 1)
	}
	y := labels.SampleSemiSupervised(el.N, 8, 0.3, 43)
	for _, laplacian := range []bool{false, true} {
		reports, err := Verify(el, y, Options{K: 8, Workers: 4, Laplacian: laplacian}, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			if r.Impl != LigraParallelUnsafe && !r.WithinTol {
				t.Errorf("laplacian=%v %v: max |ΔZ| = %v", laplacian, r.Impl, r.MaxAbsDiff)
			}
		}
	}
}

// paperConfig embeds an RMAT graph under the paper's label protocol and
// cross-checks every implementation against the Reference oracle.
func TestCrossImplementationEquivalenceRMAT(t *testing.T) {
	el := gen.RMAT(8, 12, 60_000, gen.Graph500Params, 1)
	y := labels.SampleSemiSupervised(el.N, 50, 0.1, 2)
	reports, err := Verify(el, y, Options{K: 50, Workers: 8}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Impl == LigraParallelUnsafe {
			continue // racy by design; checked separately
		}
		if !r.WithinTol {
			t.Errorf("%v deviates from reference: max abs diff %v", r.Impl, r.MaxAbsDiff)
		}
	}
}

func TestCrossImplementationEquivalenceWeighted(t *testing.T) {
	el := gen.ErdosRenyi(8, 500, 20_000, 3)
	for i := range el.Edges {
		el.Edges[i].W = float32(i%7 + 1)
	}
	y := labels.SampleSemiSupervised(el.N, 10, 0.3, 4)
	reports, err := Verify(el, y, Options{K: 10, Workers: 8}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Impl == LigraParallelUnsafe {
			continue
		}
		if !r.WithinTol {
			t.Errorf("%v: max abs diff %v", r.Impl, r.MaxAbsDiff)
		}
	}
}

// TestParallelAtomicExactWithDyadicCoeffs uses class counts that are
// powers of two so every contribution is an exact dyadic rational: the
// atomic parallel sum must then equal the serial sum bit-for-bit, which
// is the strongest possible no-lost-updates check (a single lost update
// shifts a cell by a whole quantum).
func TestParallelAtomicExactWithDyadicCoeffs(t *testing.T) {
	n := 1024
	el := gen.ErdosRenyi(8, n, 100_000, 7)
	y := make([]int32, n)
	for i := range y {
		y[i] = int32(i % 4) // counts = 256 per class: coeff = 2^-8 exact
	}
	ref, err := Embed(Reference, el, y, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Embed(LigraParallel, el, y, Options{K: 4, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if d := ref.Z.MaxAbsDiff(par.Z); d != 0 {
		t.Fatalf("atomic parallel differs from serial by %v with exact arithmetic", d)
	}
}

// TestRaceLostUpdatesDemonstrated is E5 (Figure 1): on a high-contention
// graph, the atomics-off version can lose updates while the atomic
// version never does. Races are probabilistic, so absence of a
// demonstration is a skip, not a failure; presence of a deviation in the
// *atomic* version is always a failure.
func TestRaceLostUpdatesDemonstrated(t *testing.T) {
	// All leaves labeled the same class: every edge's second update
	// lands in the single cell Z[0][0].
	n := 1 << 15
	el := gen.Star(n)
	y := make([]int32, n)
	ref, err := Embed(Reference, el, y, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	sawRace := false
	for trial := 0; trial < 5; trial++ {
		par, err := Embed(LigraParallel, el, y, Options{K: 1, Workers: 16})
		if err != nil {
			t.Fatal(err)
		}
		if d := ref.Z.MaxAbsDiff(par.Z); d != 0 {
			t.Fatalf("trial %d: atomic version lost updates (diff %v)", trial, d)
		}
		unsafeRes, err := Embed(LigraParallelUnsafe, el, y, Options{K: 1, Workers: 16})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Z.MaxAbsDiff(unsafeRes.Z) != 0 {
			sawRace = true
		}
	}
	if !sawRace {
		t.Skip("races did not materialize in 5 trials (timing-dependent)")
	}
}

func TestLaplacianHandComputed(t *testing.T) {
	// Path 0-1-2, unit weights, Y=[0,0,1], K=2.
	// incident degrees: d = [1, 2, 1]
	// coeff: class0 count 2 -> 0.5; class1 count 1 -> 1.
	// edge (0,1): scale 1/sqrt(2)
	//   Z[0][0] += 0.5/sqrt2 ; Z[1][0] += 0.5/sqrt2
	// edge (1,2): scale 1/sqrt(2)
	//   Z[1][1] += 1/sqrt2  ; Z[2][0] += 0.5/sqrt2
	el := gen.Path(3)
	y := []int32{0, 0, 1}
	s := 1 / math.Sqrt(2)
	want := mat.FromRows([][]float64{{0.5 * s, 0}, {0.5 * s, s}, {0.5 * s, 0}})
	for _, impl := range Impls {
		res, err := Embed(impl, el, y, Options{K: 2, Workers: 4, Laplacian: true})
		if err != nil {
			t.Fatalf("%v: %v", impl, err)
		}
		if !want.EqualTol(res.Z, 1e-12) {
			t.Fatalf("%v: Z=%v want %v", impl, res.Z.Data, want.Data)
		}
	}
}

func TestLaplacianCrossImplEquivalence(t *testing.T) {
	el := gen.RMAT(8, 10, 20_000, gen.Graph500Params, 9)
	for i := range el.Edges {
		el.Edges[i].W = float32(i%3 + 1)
	}
	y := labels.SampleSemiSupervised(el.N, 8, 0.25, 11)
	reports, err := Verify(el, y, Options{K: 8, Workers: 8, Laplacian: true}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Impl == LigraParallelUnsafe {
			continue
		}
		if !r.WithinTol {
			t.Errorf("%v laplacian: diff %v", r.Impl, r.MaxAbsDiff)
		}
	}
}

func TestLaplacianZeroDegreeGuard(t *testing.T) {
	// A zero-degree vertex must zero out any edge factor it enters
	// (1/sqrt(d(u)·d(v)) is factored as Scale[u]·Scale[v] in the kernel).
	s := invSqrtDegrees(1, []float64{0, 1, 4})
	if s[0] != 0 {
		t.Fatalf("scale=%v for zero-degree vertex", s[0])
	}
	if s[1] != 1 || s[2] != 0.5 {
		t.Fatalf("scales=%v want [0 1 0.5]", s)
	}
	if invSqrtDegrees(2, nil) != nil {
		t.Fatal("nil degrees must stay nil")
	}
}

func TestEmbedCSRMatchesEmbed(t *testing.T) {
	el := gen.ErdosRenyi(4, 300, 5000, 13)
	y := labels.SampleSemiSupervised(el.N, 5, 0.5, 14)
	g := graph.BuildCSR(4, el)
	a, err := Embed(LigraParallel, el, y, Options{K: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EmbedCSR(LigraParallel, g, y, Options{K: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Z.EqualTol(b.Z, 1e-9) {
		t.Fatal("CSR path differs from edge-list path")
	}
	// Reference via CSR round-trips through ToEdgeList
	c, err := EmbedCSR(Reference, g, y, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Z.EqualTol(c.Z, 1e-9) {
		t.Fatal("reference via CSR differs")
	}
}

func TestOptimizedEmbedCSRMatches(t *testing.T) {
	el := gen.RMAT(4, 9, 6000, gen.Graph500Params, 19)
	y := labels.SampleSemiSupervised(el.N, 7, 0.3, 20)
	g := graph.BuildCSR(4, el)
	want, err := EmbedCSR(Reference, g, y, Options{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EmbedCSR(Optimized, g, y, Options{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Z.EqualTol(got.Z, 1e-9) {
		t.Fatal("EmbedCSR(Optimized) differs from reference")
	}
	gotLap, err := EmbedCSR(Optimized, g, y, Options{K: 7, Laplacian: true})
	if err != nil {
		t.Fatal(err)
	}
	wantLap, err := EmbedCSR(Reference, g, y, Options{K: 7, Laplacian: true})
	if err != nil {
		t.Fatal(err)
	}
	if !wantLap.Z.EqualTol(gotLap.Z, 1e-9) {
		t.Fatal("EmbedCSR(Optimized) laplacian differs from reference")
	}
}

// TestLigraSerialIndependentOfBuildWorkers pins the serial embed as a
// function of the edge list: BuildCSR keeps edge-list order at any
// worker count, so LigraSerial sums each cell in one order and its Z is
// bit-identical over CSRs built with 1 and 4 workers.
func TestLigraSerialIndependentOfBuildWorkers(t *testing.T) {
	el := gen.RMAT(4, 12, 100_000, gen.Graph500Params, 23)
	for i := range el.Edges {
		el.Edges[i].W = float32(i%7+1) / 3
	}
	y := labels.SampleSemiSupervised(el.N, 50, 0.3, 24)
	for _, lap := range []bool{false, true} {
		opts := Options{K: 50, Laplacian: lap}
		want, err := EmbedCSR(LigraSerial, graph.BuildCSR(1, el), y, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EmbedCSR(LigraSerial, graph.BuildCSR(4, el), y, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range want.Z.Data {
			if math.Float64bits(got.Z.Data[i]) != math.Float64bits(x) {
				t.Fatalf("laplacian=%v: Z[%d] = %v over a 4-worker CSR, %v over a 1-worker one", lap, i, got.Z.Data[i], x)
			}
		}
	}
}

func TestProjection(t *testing.T) {
	y := []int32{0, 0, 1, -1, 1, 1}
	w := referenceProjection(6, y, 2)
	if w.At(0, 0) != 0.5 || w.At(1, 0) != 0.5 {
		t.Fatal("class 0 coeff wrong")
	}
	if math.Abs(w.At(2, 1)-1.0/3) > 1e-15 {
		t.Fatal("class 1 coeff wrong")
	}
	for c := 0; c < 2; c++ {
		if w.At(3, c) != 0 {
			t.Fatal("unknown vertex must have zero row")
		}
	}
	counts := classCounts(4, y, 2)
	if counts[0] != 2 || counts[1] != 3 {
		t.Fatalf("counts=%v", counts)
	}
	// The kernel's class coefficients are W's nonzeros: an arc from the
	// unlabelled vertex 3 to v lands W(v, ·) in row 3 and nothing else.
	kern := buildKernel(4, y, 2, nil)
	for v := 0; v < 6; v++ {
		z := make([]float64, 6*2)
		kern.Apply(z, 3, graph.NodeID(v), 1)
		for c := 0; c < 2; c++ {
			if z[3*2+c] != w.At(v, c) {
				t.Fatalf("arc 3→%d lands %v in column %d, want W = %v", v, z[3*2+c], c, w.At(v, c))
			}
		}
	}
}

func TestIncidentDegreesCSREquivalent(t *testing.T) {
	el := gen.ErdosRenyi(4, 200, 3000, 23)
	for i := range el.Edges {
		el.Edges[i].W = float32(i%5 + 1)
	}
	want := incidentDegreesEdgeList(el)
	g := graph.BuildCSR(4, el)
	for _, workers := range []int{1, 8} {
		got := incidentDegreesCSR(workers, g)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("workers=%d: deg[%d]=%v want %v", workers, v, got[v], want[v])
			}
		}
	}
}

func TestColumnSumInvariant(t *testing.T) {
	// Each edge (u,v) adds coeff[v]*w to column Y[v] and coeff[u]*w to
	// column Y[u]. Summed over all of Z, column c receives
	// sum over edge endpoints x with Y[x]=c of coeff[x]*w(e) — with unit
	// weights that is (1/count_c) * (#incidences of class-c vertices).
	el := gen.ErdosRenyi(4, 600, 10_000, 29)
	y := labels.Full(el.N, 5, 31)
	res, err := Embed(LigraParallel, el, y, Options{K: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	counts := classCounts(1, y, 5)
	incid := make([]int64, 5)
	for _, e := range el.Edges {
		incid[y[e.U]]++
		incid[y[e.V]]++
	}
	for c := 0; c < 5; c++ {
		var got float64
		for v := 0; v < el.N; v++ {
			got += res.Z.At(v, c)
		}
		want := float64(incid[c]) / float64(counts[c])
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("column %d sum %v want %v", c, got, want)
		}
	}
}

func TestImplString(t *testing.T) {
	names := map[Impl]string{
		Reference:           "GEE-Reference",
		Optimized:           "Optimized-Serial",
		LigraSerial:         "GEE-Ligra-Serial",
		LigraParallel:       "GEE-Ligra-Parallel",
		LigraParallelUnsafe: "GEE-Ligra-Unsafe",
		Replicated:          "GEE-Replicated",
		ShardedParallel:     "GEE-Sharded",
	}
	for impl, want := range names {
		if impl.String() != want {
			t.Fatalf("%d: %q", int(impl), impl.String())
		}
	}
	// Every registered implementation must have a real name — bench CSV
	// column headers are derived from String().
	for _, impl := range Impls {
		if _, named := names[impl]; !named {
			t.Fatalf("Impls entry %d missing from the String() coverage table", int(impl))
		}
	}
	if Impl(42).String() == "" {
		t.Fatal("unknown impl must still stringify")
	}
}

func TestEmptyGraph(t *testing.T) {
	el := &graph.EdgeList{N: 0}
	res, err := Embed(Optimized, el, nil, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Z.R != 0 || res.Z.C != 3 {
		t.Fatalf("shape %dx%d", res.Z.R, res.Z.C)
	}
}

func TestEdgelessGraph(t *testing.T) {
	el := &graph.EdgeList{N: 10}
	y := labels.Full(10, 3, 1)
	for _, impl := range Impls {
		res, err := Embed(impl, el, y, Options{K: 3, Workers: 4})
		if err != nil {
			t.Fatalf("%v: %v", impl, err)
		}
		if res.Z.MaxAbsDiff(mat.NewDense(res.Z.R, res.Z.C)) != 0 {
			t.Fatalf("%v: nonzero embedding with no edges", impl)
		}
	}
}

// TestEmbedNeverSeesStaleMemory pins the single clear: csrEmbedTimed
// relies on the allocation of Z being its only zeroing, so an embed
// whose Z lands on memory a dropped result just vacated must still
// start from zeros. The first result is scribbled over and released,
// the heap collected so the allocator can hand the same span back, and
// the second embed on the same CSR compared with Reference. A pooled or
// caller-supplied buffer introduced later has to keep this passing.
func TestEmbedNeverSeesStaleMemory(t *testing.T) {
	el := gen.RMAT(4, 13, 60_000, gen.Graph500Params, 41)
	y := labels.SampleSemiSupervised(el.N, 16, 0.1, 43)
	opts := Options{K: 16, Workers: 4}
	want, err := Embed(Reference, el, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.BuildCSR(4, el)
	for _, impl := range []Impl{LigraSerial, LigraParallel, Replicated, ShardedParallel} {
		for round := 0; round < 3; round++ {
			res, err := EmbedCSR(impl, g, y, opts)
			if err != nil {
				t.Fatalf("%v: %v", impl, err)
			}
			if d := want.Z.MaxAbsDiff(res.Z); d > 1e-9 {
				t.Fatalf("%v round %d: max diff %g from Reference after a scribbled result was released", impl, round, d)
			}
			for i := range res.Z.Data {
				res.Z.Data[i] = 1e6 + float64(i)
			}
			res = nil
			runtime.GC()
		}
	}
}
