package gen

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestErdosRenyiShape(t *testing.T) {
	el := ErdosRenyi(4, 1000, 5000, 1)
	if el.N != 1000 || len(el.Edges) != 5000 {
		t.Fatalf("n=%d m=%d", el.N, len(el.Edges))
	}
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiWorkerInvariance(t *testing.T) {
	a := ErdosRenyi(1, 500, 20_000, 42)
	b := ErdosRenyi(16, 500, 20_000, 42)
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs between worker counts", i)
		}
	}
}

func TestErdosRenyiSeedSensitivity(t *testing.T) {
	a := ErdosRenyi(4, 500, 10_000, 1)
	b := ErdosRenyi(4, 500, 10_000, 2)
	same := 0
	for i := range a.Edges {
		if a.Edges[i] == b.Edges[i] {
			same++
		}
	}
	if same > len(a.Edges)/100 {
		t.Fatalf("%d/%d identical edges across seeds", same, len(a.Edges))
	}
}

func TestErdosRenyiEndpointUniformity(t *testing.T) {
	n := 50
	el := ErdosRenyi(8, n, 200_000, 7)
	counts := make([]float64, n)
	for _, e := range el.Edges {
		counts[e.U]++
		counts[e.V]++
	}
	want := float64(2*len(el.Edges)) / float64(n)
	for v, c := range counts {
		if math.Abs(c-want) > 6*math.Sqrt(want) {
			t.Fatalf("vertex %d endpoint count %v deviates from %v", v, c, want)
		}
	}
}

func TestRMATShapeAndRange(t *testing.T) {
	el := RMAT(4, 10, 50_000, Graph500Params, 3)
	if el.N != 1024 || len(el.Edges) != 50_000 {
		t.Fatalf("n=%d m=%d", el.N, len(el.Edges))
	}
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRMATWorkerInvariance(t *testing.T) {
	a := RMAT(1, 12, 70_000, Graph500Params, 11)
	b := RMAT(24, 12, 70_000, Graph500Params, 11)
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs between worker counts", i)
		}
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	// RMAT with Graph500 params must be much more skewed than ER.
	scale := 14
	m := int64(16) << scale
	rmat := RMAT(8, scale, m, Graph500Params, 5)
	er := ErdosRenyi(8, 1<<scale, m, 5)
	maxDeg := func(el *graph.EdgeList) int64 {
		g := graph.BuildCSR(8, el)
		s := graph.ComputeStats(8, g)
		return s.MaxDegree
	}
	mr, me := maxDeg(rmat), maxDeg(er)
	if mr < 4*me {
		t.Fatalf("RMAT max degree %d not skewed vs ER %d", mr, me)
	}
}

func TestSBMShapeAndLabels(t *testing.T) {
	el, labels := SBM(4, 1200, 3, 0.02, 0.001, 9)
	if el.N != 1200 || len(labels) != 1200 {
		t.Fatalf("n=%d labels=%d", el.N, len(labels))
	}
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := map[int32]int{}
	for _, l := range labels {
		counts[l]++
	}
	if len(counts) != 3 {
		t.Fatalf("blocks=%d want 3", len(counts))
	}
	for b, c := range counts {
		if c < 350 || c > 450 {
			t.Fatalf("block %d size %d not ~400", b, c)
		}
	}
}

func TestSBMAssortativity(t *testing.T) {
	el, labels := SBM(8, 3000, 4, 0.05, 0.002, 13)
	within, across := 0, 0
	for _, e := range el.Edges {
		if labels[e.U] == labels[e.V] {
			within++
		} else {
			across++
		}
	}
	// pIn/pOut = 25x, blocks equal size: within should dominate.
	if within < 2*across {
		t.Fatalf("within=%d across=%d: not assortative", within, across)
	}
}

func TestSBMNoWithinBlockSelfLoops(t *testing.T) {
	el, _ := SBM(4, 400, 2, 0.1, 0.01, 17)
	for _, e := range el.Edges {
		if e.U == e.V {
			t.Fatalf("self loop %d", e.U)
		}
	}
}

func TestSBMExpectedEdgeCount(t *testing.T) {
	n, k := 2000, 2
	pIn, pOut := 0.01, 0.001
	el, _ := SBM(4, n, k, pIn, pOut, 23)
	half := float64(n / k)
	expect := 2*(half*(half-1)/2)*pIn + half*half*pOut
	got := float64(len(el.Edges))
	if math.Abs(got-expect) > 6*math.Sqrt(expect) {
		t.Fatalf("edges=%v expected~%v", got, expect)
	}
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		name  string
		el    *graph.EdgeList
		n     int
		edges int
	}{
		{"path", Path(5), 5, 4},
		{"star", Star(6), 6, 5},
		{"path1", Path(1), 1, 0},
	}
	for _, c := range cases {
		if c.el.N != c.n || len(c.el.Edges) != c.edges {
			t.Fatalf("%s: n=%d m=%d want n=%d m=%d", c.name, c.el.N, len(c.el.Edges), c.n, c.edges)
		}
		if err := c.el.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

func TestTwoTriangles(t *testing.T) {
	el, labels := TwoTriangles()
	if el.N != 6 || len(el.Edges) != 6 || len(labels) != 6 {
		t.Fatal("bad fixture shape")
	}
	for _, e := range el.Edges {
		if labels[e.U] != labels[e.V] {
			t.Fatal("triangles must not cross communities")
		}
	}
}
