package main

import (
	"testing"

	"repro/internal/gee"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The oracle must agree with the repository's own Algorithm 1
// transcription: it is the reference of every check, so it is checked
// once against the reference the repository's tests trust.
func TestOracleMatchesGeeReference(t *testing.T) {
	el, truth := gen.SBM(1, 600, 4, 0.05, 0.005, 11)
	y := append([]int32(nil), truth...)
	for v := range y {
		if v%3 == 0 {
			y[v] = -1 // semi-supervised: a third unlabelled
		}
	}
	want, err := gee.Embed(gee.Reference, el, y, gee.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(el.N, 4, el.Edges, y)
	if err := checkEmbedding("oracle", o.embed(), want.Z.Data); err != nil {
		t.Fatal(err)
	}
	z := make([]float64, el.N*4)
	o.fold(z)
	if d := maxAbsDiff(z, want.Z.Data); d > checkTol {
		t.Fatalf("fold into a caller's buffer differs by %g", d)
	}
}

func TestCheckEmbeddingRejects(t *testing.T) {
	a := []float64{1, 2, 3}
	if err := checkEmbedding("x", a, []float64{1, 2, 3 + 1e-12}); err != nil {
		t.Fatalf("a difference inside the tolerance was rejected: %v", err)
	}
	if checkEmbedding("x", a, []float64{1, 2, 3.001}) == nil {
		t.Fatal("a difference of 1e-3 was accepted")
	}
	if checkEmbedding("x", a, []float64{1, 2}) == nil {
		t.Fatal("a shorter vector was accepted")
	}
	nan := []float64{1, 2, 0}
	nan[2] = nan[2] / nan[2]
	if checkEmbedding("x", a, nan) == nil {
		t.Fatal("a NaN was accepted")
	}
}

func TestLiveEdgesIsAMultiset(t *testing.T) {
	e := graph.Edge{U: 1, V: 2, W: 3}
	l := liveEdges{}
	l.insert([]graph.Edge{e, e, {U: 0, V: 5, W: 1}})
	l.remove([]graph.Edge{e})
	got := l.list()
	if len(got) != 2 || got[0].U != 0 || got[1] != e {
		t.Fatalf("live edges %v, want one copy of each", got)
	}
}

func TestExactTopK(t *testing.T) {
	// Rows on a line: the neighbours of row 2 (at 2.0) are 1 and 3.
	z := []float64{0, 1, 2, 3.5, 9}
	got := exactTopK(z, 1, 2, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2.25 {
		t.Fatalf("squared distances %v, want [1 2.25]", got)
	}
}
