package gee

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labels"
)

func TestEmbedCSRTimed(t *testing.T) {
	el := gen.ErdosRenyi(4, 2000, 50_000, 41)
	y := labels.SampleSemiSupervised(el.N, 50, 0.1, 42)
	g := graph.BuildCSR(4, el)
	res, tm, err := EmbedCSRTimed(LigraParallel, g, y, Options{K: 50, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tm.EdgeMap <= 0 {
		t.Fatalf("timings: %+v", tm)
	}
	ref, err := EmbedCSR(Reference, g, y, Options{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Z.EqualTol(res.Z, 1e-9) {
		t.Fatal("timed run produced wrong embedding")
	}
	if _, _, err := EmbedCSRTimed(Reference, g, y, Options{K: 50}); err == nil {
		t.Fatal("EmbedCSRTimed must reject non-Ligra impls")
	}
}

func TestEmbedReplicatedMatchesReference(t *testing.T) {
	el := gen.RMAT(8, 11, 40_000, gen.Graph500Params, 43)
	y := labels.SampleSemiSupervised(el.N, 20, 0.15, 44)
	g := graph.BuildCSR(8, el)
	ref, err := EmbedCSR(Reference, g, y, Options{K: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		rep, err := EmbedCSR(Replicated, g, y, Options{K: 20, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Z.EqualTol(rep.Z, 1e-9) {
			t.Fatalf("workers=%d: replicated differs from reference by %v",
				workers, ref.Z.MaxAbsDiff(rep.Z))
		}
	}
}

func TestEmbedReplicatedLaplacian(t *testing.T) {
	el := gen.ErdosRenyi(4, 400, 6000, 45)
	y := labels.SampleSemiSupervised(el.N, 6, 0.4, 46)
	g := graph.BuildCSR(4, el)
	ref, err := EmbedCSR(Reference, g, y, Options{K: 6, Laplacian: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EmbedCSR(Replicated, g, y, Options{K: 6, Workers: 8, Laplacian: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Z.EqualTol(rep.Z, 1e-9) {
		t.Fatal("replicated laplacian differs from reference")
	}
}

func TestEmbedReplicatedErrors(t *testing.T) {
	el := gen.Path(3)
	g := graph.BuildCSR(1, el)
	if _, err := EmbedCSR(Replicated, g, []int32{0}, Options{K: 1}); err == nil {
		t.Fatal("label length mismatch accepted")
	}
}
