package gee

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/labels"
)

// TestSBMRecoverySemiSupervised is E7: with the paper's semi-supervised
// protocol (ground-truth labels on a fraction of nodes), the argmax over
// a vertex's embedding row recovers its community on a well-separated
// SBM.
func TestSBMRecoverySemiSupervised(t *testing.T) {
	el, truth := gen.SBM(8, 2000, 4, 0.05, 0.002, 1)
	// reveal 10% of true labels (the paper's protocol, but with real
	// labels instead of uniform noise so quality is measurable)
	y := make([]int32, el.N)
	for i := range y {
		y[i] = labels.Unknown
	}
	rnd := labels.SampleSemiSupervised(el.N, 4, 0.1, 2)
	revealed := 0
	for i := range y {
		if rnd[i] >= 0 {
			y[i] = truth[i]
			revealed++
		}
	}
	res, err := Embed(LigraParallel, el, y, Options{K: 4, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	pred := make([]int32, el.N)
	for v := 0; v < el.N; v++ {
		pred[v] = int32(res.Z.ArgMaxRow(v))
	}
	acc := accuracy(pred, truth)
	if acc < 0.9 {
		t.Fatalf("argmax recovery accuracy %v on separated SBM (revealed %d)", acc, revealed)
	}
}

// TestSBMRecoveryKMeans clusters the embedding with k-means and checks
// ARI against the planted partition.
func TestSBMRecoveryKMeans(t *testing.T) {
	el, truth := gen.SBM(8, 1500, 3, 0.06, 0.002, 3)
	y := make([]int32, el.N)
	rnd := labels.SampleSemiSupervised(el.N, 3, 0.1, 4)
	for i := range y {
		y[i] = labels.Unknown
		if rnd[i] >= 0 {
			y[i] = truth[i]
		}
	}
	res, err := Embed(LigraParallel, el, y, Options{K: 3, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	z := res.Z.Clone()
	z.RowL2Normalize()
	km := cluster.KMeans(8, z, 3, 5, 100)
	if ari := cluster.ARI(km.Assign, truth); ari < 0.8 {
		t.Fatalf("k-means ARI %v on separated SBM", ari)
	}
}

// TestRefineUnsupervisedSBM runs the full unsupervised pipeline from
// random labels and checks it converges to the planted partition.
func TestRefineUnsupervisedSBM(t *testing.T) {
	el, truth := gen.SBM(8, 1200, 3, 0.08, 0.002, 7)
	res, err := Refine(el, RefineOptions{
		Embedding: Options{K: 3, Workers: 8},
		Impl:      LigraParallel,
		MaxRounds: 30,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ari := cluster.ARI(res.Labels, truth); ari < 0.7 {
		t.Fatalf("refined ARI %v (rounds=%d, self-ARI=%v)", ari, res.Rounds, res.ARI)
	}
	if res.Rounds < 1 || res.Rounds > 30 {
		t.Fatalf("rounds=%d", res.Rounds)
	}
}

func TestRefineRequiresK(t *testing.T) {
	el, _ := gen.TwoTriangles()
	if _, err := Refine(el, RefineOptions{Impl: Optimized}); err == nil {
		t.Fatal("missing K accepted")
	}
}

func TestRefineTwoTriangles(t *testing.T) {
	el, truth := gen.TwoTriangles()
	res, err := Refine(el, RefineOptions{
		Embedding: Options{K: 2, Workers: 2},
		Impl:      Optimized,
		MaxRounds: 20,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ari := cluster.ARI(res.Labels, truth); ari < 0.99 {
		t.Fatalf("two disjoint triangles not separated: ARI=%v labels=%v", ari, res.Labels)
	}
}

func TestVerifyReportShape(t *testing.T) {
	el, y, _ := handExample()
	reports, err := Verify(el, y, Options{K: 2, Workers: 4}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(Impls)-1 {
		t.Fatalf("%d reports", len(reports))
	}
	for _, r := range reports {
		if !r.WithinTol || r.MaxAbsDiff != 0 {
			t.Fatalf("%v: tiny example must be exact (diff %v)", r.Impl, r.MaxAbsDiff)
		}
	}
}

// accuracy computes exact label agreement (no relabeling) over the
// positions where both labelings are known (>= 0).
func accuracy(pred, truth []int32) float64 {
	var n, ok int
	for i := range pred {
		if pred[i] < 0 || truth[i] < 0 {
			continue
		}
		n++
		if pred[i] == truth[i] {
			ok++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ok) / float64(n)
}
