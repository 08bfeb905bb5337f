package cluster_test

// The IVF property tests live in an external test package so they can
// embed real SBM graphs through internal/gee (which itself imports
// cluster for its refinement loop).

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gee"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/xrand"
)

// sbmEmbedding builds the clustered workload the serving layer indexes:
// an SBM graph embedded by GEE with full labels, n rows in k tight
// class blobs.
func sbmEmbedding(t testing.TB, n, k int, pIn, pOut float64, seed uint64) *mat.Dense {
	t.Helper()
	el, yTrue := gen.SBM(0, n, k, pIn, pOut, seed)
	res, err := gee.Embed(gee.Reference, el, yTrue, gee.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return res.Z
}

// recallAt scores approx against the exact oracle with a distance-eps
// tie rule: a returned neighbor counts if it is at least as near as the
// oracle's k-th survivor (embedding rows carry exact ties — discrete
// neighbor-class counts — so id-level set comparison would punish
// legitimate tie-breaking).
func recallAt(approx, exact []cluster.Neighbor) float64 {
	if len(exact) == 0 {
		return 1
	}
	kth := exact[len(exact)-1].Dist
	eps := 1e-12 + 1e-12*math.Abs(kth)
	hits := 0
	for _, a := range approx {
		if a.Dist <= kth+eps {
			hits++
		}
	}
	if hits > len(exact) {
		hits = len(exact)
	}
	return float64(hits) / float64(len(exact))
}

// TestIVFRecallOnSBMEmbedding is the randomized acceptance property:
// over several SBM draws and both metrics, approx search at the
// *default* nprobe reaches recall@10 ≥ 0.9 against the brute-force
// oracle, and probing every list reproduces the oracle exactly.
func TestIVFRecallOnSBMEmbedding(t *testing.T) {
	const n, k, topk, queries = 4000, 8, 10, 60
	for _, seed := range []uint64{3, 17, 101} {
		Z := sbmEmbedding(t, n, k, 0.02, 0.002, seed)
		ix := cluster.BuildIVF(0, Z, cluster.IVFOptions{Seed: seed})
		if ix.Exact() {
			t.Fatalf("seed %d: n=%d built an exact-fallback index", seed, n)
		}
		if ix.Lists() < 2 || ix.NProbe() >= ix.Lists() {
			t.Fatalf("seed %d: degenerate index: %d lists, nprobe %d", seed, ix.Lists(), ix.NProbe())
		}
		r := xrand.New(seed + 9)
		for _, m := range []cluster.Metric{cluster.L2, cluster.Cosine} {
			var recall float64
			for q := 0; q < queries; q++ {
				v := r.Intn(n)
				exact := cluster.TopK(0, Z, Z.Row(v), topk, m, v)
				approx := ix.Search(0, Z.Row(v), topk, m, v, 0)
				recall += recallAt(approx, exact)

				// Probing every list must be the oracle, id for id.
				full := ix.Search(0, Z.Row(v), topk, m, v, ix.Lists())
				if len(full) != len(exact) {
					t.Fatalf("seed %d m=%d v=%d: full probe returned %d, oracle %d",
						seed, m, v, len(full), len(exact))
				}
				for i := range exact {
					if full[i] != exact[i] {
						t.Fatalf("seed %d m=%d v=%d: full probe[%d]=%+v, oracle %+v",
							seed, m, v, i, full[i], exact[i])
					}
				}
			}
			recall /= queries
			t.Logf("seed %d metric %d: recall@%d = %.3f at nprobe %d/%d",
				seed, m, topk, recall, ix.NProbe(), ix.Lists())
			if recall < 0.9 {
				t.Fatalf("seed %d metric %d: recall@%d = %.3f < 0.9 at default nprobe %d/%d lists",
					seed, m, topk, recall, ix.NProbe(), ix.Lists())
			}
		}
	}
}

// TestIVFExactFallback pins the small-n contract: below ExactRows the
// index degenerates to the exact scan and Search equals TopK exactly.
func TestIVFExactFallback(t *testing.T) {
	const n, dim, topk = 300, 6, 7
	r := xrand.New(77)
	X := mat.NewDense(n, dim)
	for i := range X.Data {
		X.Data[i] = r.Float64()*2 - 1
	}
	ix := cluster.BuildIVF(0, X, cluster.IVFOptions{})
	if !ix.Exact() || ix.Lists() != 0 {
		t.Fatalf("n=%d below DefaultIVFExactRows should fall back: exact=%v lists=%d",
			n, ix.Exact(), ix.Lists())
	}
	for _, m := range []cluster.Metric{cluster.L2, cluster.Cosine} {
		got := ix.Search(0, X.Row(3), topk, m, 3, 0)
		want := cluster.TopK(0, X, X.Row(3), topk, m, 3)
		if len(got) != len(want) {
			t.Fatalf("metric %d: %d results, want %d", m, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("metric %d result %d: %+v, want %+v", m, i, got[i], want[i])
			}
		}
	}
	// ExactRows < 0 forces a real index even on tiny data.
	forced := cluster.BuildIVF(0, X, cluster.IVFOptions{ExactRows: -1, Lists: 6})
	if forced.Exact() || forced.Lists() != 6 {
		t.Fatalf("forced index: exact=%v lists=%d", forced.Exact(), forced.Lists())
	}
	if got := forced.Search(0, X.Row(0), 3, cluster.L2, -1, 2); len(got) != 3 {
		t.Fatalf("forced index search returned %d results", len(got))
	}
}
