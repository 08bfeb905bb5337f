package labels

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/graph"
)

// summary describes a label vector.
type summary struct {
	N        int
	Labeled  int
	K        int     // 1 + max label
	Coverage float64 // Labeled / N
	Counts   []int64 // per-class counts
}

// summarize scans Y.
func summarize(y []int32) summary {
	s := summary{N: len(y)}
	for _, v := range y {
		if v >= 0 {
			s.Labeled++
			if int(v)+1 > s.K {
				s.K = int(v) + 1
			}
		}
	}
	s.Counts = make([]int64, s.K)
	for _, v := range y {
		if v >= 0 {
			s.Counts[v]++
		}
	}
	if s.N > 0 {
		s.Coverage = float64(s.Labeled) / float64(s.N)
	}
	return s
}

func TestSampleSemiSupervisedBudgetExact(t *testing.T) {
	for _, tc := range []struct {
		n        int
		fraction float64
		want     int
	}{
		{1000, 0.1, 100},
		{1000, 0, 0},
		{1000, 1, 1000},
		{7, 0.5, 4}, // rounds 3.5 -> 4
	} {
		y := SampleSemiSupervised(tc.n, 50, tc.fraction, 1)
		s := summarize(y)
		if s.Labeled != tc.want {
			t.Fatalf("n=%d f=%v: labeled %d want %d", tc.n, tc.fraction, s.Labeled, tc.want)
		}
	}
}

func TestSampleSemiSupervisedPaperProtocol(t *testing.T) {
	// The paper's exact setting: 10% of nodes, K=50.
	n := 100_000
	y := SampleSemiSupervised(n, 50, 0.1, 42)
	s := summarize(y)
	if s.Labeled != 10_000 {
		t.Fatalf("labeled=%d", s.Labeled)
	}
	if s.K > 50 {
		t.Fatalf("max class %d out of range", s.K)
	}
	// class counts roughly uniform: 10k/50 = 200 each
	for c, cnt := range s.Counts {
		if math.Abs(float64(cnt)-200) > 6*math.Sqrt(200) {
			t.Fatalf("class %d count %d deviates from 200", c, cnt)
		}
	}
	if err := Validate(y, 50); err != nil {
		t.Fatal(err)
	}
}

func TestSampleSemiSupervisedDeterministic(t *testing.T) {
	a := SampleSemiSupervised(5000, 10, 0.2, 9)
	b := SampleSemiSupervised(5000, 10, 0.2, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
	c := SampleSemiSupervised(5000, 10, 0.2, 10)
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical labelings")
	}
}

func TestSampleSemiSupervisedUniformSubset(t *testing.T) {
	// Each vertex should be labeled with probability ~fraction across seeds.
	n := 500
	hits := make([]int, n)
	const trials = 200
	for s := 0; s < trials; s++ {
		y := SampleSemiSupervised(n, 5, 0.1, uint64(s))
		for i, v := range y {
			if v >= 0 {
				hits[i]++
			}
		}
	}
	for i, h := range hits {
		// Binomial(200, 0.1): mean 20, sd ~4.24; allow 6 sigma
		if math.Abs(float64(h)-20) > 26 {
			t.Fatalf("vertex %d labeled %d/200 times", i, h)
		}
	}
}

func TestSamplePanics(t *testing.T) {
	for _, f := range []func(){
		func() { SampleSemiSupervised(10, 0, 0.1, 1) },
		func() { SampleSemiSupervised(10, 5, -0.1, 1) },
		func() { SampleSemiSupervised(10, 5, 1.1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

func TestFull(t *testing.T) {
	y := Full(1000, 7, 3)
	s := summarize(y)
	if s.Labeled != 1000 || s.K > 7 {
		t.Fatalf("%+v", s)
	}
	if err := Validate(y, 7); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]int32{0, 1, -1}, 2); err != nil {
		t.Fatal(err)
	}
	if err := Validate([]int32{2}, 2); err == nil {
		t.Fatal("label == k accepted")
	}
	if err := Validate([]int32{-2}, 2); err == nil {
		t.Fatal("label < -1 accepted")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := summarize(nil)
	if s.N != 0 || s.Labeled != 0 || s.Coverage != 0 {
		t.Fatalf("%+v", s)
	}
}

func TestRelabel(t *testing.T) {
	y := Relabel([]int32{7, 7, 3, -1, 9, 3})
	want := []int32{0, 0, 1, -1, 2, 1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("relabel=%v want %v", y, want)
		}
	}
}

func TestPropagationTwoCliques(t *testing.T) {
	// Two 20-cliques joined by one bridge edge.
	el := &graph.EdgeList{N: 40}
	for u := 0; u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			el.Edges = append(el.Edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: 1})
			el.Edges = append(el.Edges, graph.Edge{U: graph.NodeID(u + 20), V: graph.NodeID(v + 20), W: 1})
		}
	}
	el.Edges = append(el.Edges, graph.Edge{U: 0, V: 20, W: 1})
	g := graph.BuildCSR(4, graph.Symmetrize(el))
	y := Propagation(4, g, 50, 1)
	truth := make([]int32, 40)
	for i := 20; i < 40; i++ {
		truth[i] = 1
	}
	if ari := cluster.ARI(y, truth); ari < 0.9 {
		t.Fatalf("propagation ARI=%v on two cliques", ari)
	}
}

func TestPropagationSBM(t *testing.T) {
	el, truth := gen.SBM(8, 1000, 2, 0.1, 0.002, 5)
	g := graph.BuildCSR(8, graph.Symmetrize(el))
	y := Propagation(8, g, 100, 2)
	if ari := cluster.ARI(y, truth); ari < 0.5 {
		t.Fatalf("propagation ARI=%v on strong SBM", ari)
	}
}

func TestPropagationIsolatedVertices(t *testing.T) {
	g := graph.BuildCSR(2, &graph.EdgeList{N: 5})
	y := Propagation(2, g, 10, 1)
	seen := map[int32]bool{}
	for _, v := range y {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("isolated vertices merged: %v", y)
	}
}
