package gee

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labels"
)

// The cross-backend equivalence of ShardedParallel and Replicated on
// undirected, weighted, and Laplacian inputs is covered by the
// Verify-driven tests in gee_test.go (both are members of Impls). The
// tests here cover the remaining surfaces: the per-phase timed path
// and the race-detector exercise on a power-law graph.

func TestEmbedCSRTimedCoversNewBackends(t *testing.T) {
	el := gen.ErdosRenyi(4, 1000, 20_000, 63)
	y := labels.SampleSemiSupervised(el.N, 10, 0.2, 64)
	g := graph.BuildCSR(4, el)
	ref, err := EmbedCSR(Reference, g, y, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range []Impl{Replicated, ShardedParallel} {
		res, tm, err := EmbedCSRTimed(impl, g, y, Options{K: 10, Workers: 4})
		if err != nil {
			t.Fatalf("%v: %v", impl, err)
		}
		if tm.EdgeMap <= 0 {
			t.Fatalf("%v: timings %+v", impl, tm)
		}
		if !ref.Z.EqualTol(res.Z, 1e-9) {
			t.Fatalf("%v: timed run deviates by %v", impl, ref.Z.MaxAbsDiff(res.Z))
		}
	}
}

// TestShardedParallelPowerLawUnderRaceDetector drives the full gee path
// of the sharded backend on a skewed power-law graph with high worker
// counts; `go test -race` (the CI configuration) turns this into the
// no-data-races assertion for the contention-free ownership claim.
func TestShardedParallelPowerLawUnderRaceDetector(t *testing.T) {
	el := gen.RMAT(8, 12, 120_000, gen.Graph500Params, 65)
	y := labels.SampleSemiSupervised(el.N, 16, 0.1, 66)
	g := graph.BuildCSR(8, el)
	ref, err := EmbedCSR(Reference, g, y, Options{K: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, 16} {
		res, err := EmbedCSR(ShardedParallel, g, y, Options{K: 16, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !ref.Z.EqualTol(res.Z, 1e-9) {
			t.Fatalf("workers=%d: deviates from reference by %v",
				workers, ref.Z.MaxAbsDiff(res.Z))
		}
	}
}
