package repro_test

import (
	"fmt"

	"repro"
)

// The basic flow: generate (or load) a graph, sample labels, embed.
func ExampleEmbed() {
	el := repro.NewErdosRenyi(1, 1000, 8000, 7)
	y := repro.SampleLabels(el.N, 10, 0.10, 1)
	res, err := repro.Embed(repro.LigraParallel, el, y, repro.Options{K: 10, Workers: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Z.R, res.Z.C, res.Impl)
	// Output: 1000 10 GEE-Ligra-Parallel
}

// Every implementation computes the same embedding; Verify checks them
// all against the faithful Algorithm 1 oracle.
func ExampleVerify() {
	el := repro.NewErdosRenyi(1, 200, 1000, 3)
	y := repro.SampleLabels(el.N, 5, 0.5, 4)
	reports, err := repro.Verify(el, y, repro.Options{K: 5, Workers: 4}, 1e-9)
	if err != nil {
		panic(err)
	}
	ok, total := 0, 0
	for _, r := range reports {
		if r.Impl == repro.LigraParallelUnsafe {
			continue // racy by design; may deviate on multicore non-race builds
		}
		total++
		if r.WithinTol {
			ok++
		}
	}
	fmt.Printf("%d/%d race-free implementations within tolerance\n", ok, total)
	// Output: 5/5 race-free implementations within tolerance
}

// Unsupervised use: alternate embedding and clustering until labels
// stabilize (the GEE paper's refinement pipeline).
func ExampleRefine() {
	el, truth := repro.NewSBM(1, 600, 2, 0.2, 0.01, 5)
	res, err := repro.Refine(el, repro.RefineOptions{
		Embedding: repro.Options{K: 2, Workers: 4},
		Impl:      repro.LigraParallel,
		Seed:      6,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ARI %.0f\n", repro.ARI(res.Labels, truth))
	// Output: ARI 1
}
