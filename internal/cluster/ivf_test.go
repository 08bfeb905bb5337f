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
		ix := cluster.BuildIVF(0, Z, cluster.SeededIVF(seed))
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
