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

// TestIVFRecallOnSBMEmbedding is the randomized acceptance property on
// the clustered workload the serving layer indexes: over several SBM
// draws and both metrics, a default index answers every query exactly
// as the brute-force oracle does, id for id and distance bit for bit.
func TestIVFRecallOnSBMEmbedding(t *testing.T) {
	const n, k, topk, queries = 4000, 8, 10, 60
	for _, seed := range []uint64{3, 17, 101} {
		Z := sbmEmbedding(t, n, k, 0.02, 0.002, seed)
		ix := cluster.BuildIVF(0, Z, cluster.IVFOptions{Seed: seed})
		if ix.Exact() {
			t.Fatalf("seed %d: n=%d built an exact-fallback index", seed, n)
		}
		if ix.Lists() < 2 {
			t.Fatalf("seed %d: degenerate index: %d lists", seed, ix.Lists())
		}
		r := xrand.New(seed + 9)
		for _, m := range []cluster.Metric{cluster.L2, cluster.Cosine} {
			var rows int
			for q := 0; q < queries; q++ {
				v := r.Intn(n)
				exact := cluster.TopK(0, Z, Z.Row(v), topk, m, v)
				got, vis := ix.Search(0, Z.Row(v), topk, m, v)
				rows += vis.Rows
				if len(got) != len(exact) {
					t.Fatalf("seed %d m=%d v=%d: index returned %d, oracle %d",
						seed, m, v, len(got), len(exact))
				}
				for i := range exact {
					if got[i].V != exact[i].V || math.Float64bits(got[i].Dist) != math.Float64bits(exact[i].Dist) {
						t.Fatalf("seed %d m=%d v=%d: index[%d]=%+v, oracle %+v",
							seed, m, v, i, got[i], exact[i])
					}
				}
			}
			t.Logf("seed %d metric %d: %d lists, %.0f distinct rows scanned per query of %d rows",
				seed, m, ix.Lists(), float64(rows)/queries, n)
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
		got, _ := ix.Search(0, X.Row(3), topk, m, 3)
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
	if got, _ := forced.Search(0, X.Row(0), 3, cluster.L2, -1); len(got) != 3 {
		t.Fatalf("forced index search returned %d results", len(got))
	}
}
