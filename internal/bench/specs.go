// Package bench regenerates every table and figure of the paper's
// evaluation section (§IV):
//
//	Table I  — runtime of the four implementations on six graphs
//	Figure 2 — Table I's largest-graph row normalized to the compiled
//	           serial baseline (RenderTableI prints it; nothing is re-timed)
//	Figure 3 — strong scaling of GEE-Ligra parallel, 1..24 cores
//	Figure 4 — runtime vs log2(edges) on Erdős–Rényi graphs
//
// plus the paper's two inline experiments: the atomics-off ablation (§IV)
// and the O(nk) W-initialization crossover (§III). cmd/geebench is its
// one driver; the layers' own benchmarks live in their packages.
//
// The SNAP/Friendster datasets are not available offline; each Table I
// row uses a deterministic RMAT stand-in matched to the original (n, s)
// divided by a configurable scale divisor. EXPERIMENTS.md
// records the paper's absolute numbers next to the measured ones.
package bench

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
)

// GraphSpec describes one Table I dataset and its synthetic stand-in.
type GraphSpec struct {
	Name   string
	PaperN int64 // vertices in the paper's dataset
	PaperM int64 // edges in the paper's dataset
	Seed   uint64
}

// tableISpecs lists the six datasets in Table I order.
var tableISpecs = []GraphSpec{
	{Name: "Twitch", PaperN: 168_000, PaperM: 6_800_000, Seed: 101},
	{Name: "soc-Pokec", PaperN: 1_600_000, PaperM: 30_000_000, Seed: 102},
	{Name: "soc-LiveJournal", PaperN: 6_400_000, PaperM: 69_000_000, Seed: 103},
	{Name: "soc-orkut", PaperN: 3_000_000, PaperM: 117_000_000, Seed: 104},
	{Name: "orkut-groups", PaperN: 3_000_000, PaperM: 327_000_000, Seed: 105},
	{Name: "Friendster", PaperN: 65_000_000, PaperM: 1_800_000_000, Seed: 106},
}

// paperTableI records the paper's measured runtimes (seconds) for each
// dataset, in implementation order [GEE-Python, Numba serial, Ligra
// serial, Ligra parallel]. Used by the renderer to print paper-vs-
// measured shape comparisons.
var paperTableI = map[string][4]float64{
	"Twitch":          {12.18, 0.20, 0.11, 0.013},
	"soc-Pokec":       {133.21, 1.68, 0.99, 0.12},
	"soc-LiveJournal": {301.64, 4.29, 2.39, 0.39},
	"soc-orkut":       {499.83, 4.48, 2.97, 0.26},
	"orkut-groups":    {595.29, 11.43, 6.06, 2.36},
	"Friendster":      {3374.72, 112.33, 77.23, 6.42},
}

// ScaledSize returns the stand-in (n, m) for a spec at divisor div
// (n is rounded up to the RMAT power of two; see Build).
func (s GraphSpec) ScaledSize(div int64) (n, m int64) {
	if div < 1 {
		div = 1
	}
	n = s.PaperN / div
	if n < 1024 {
		n = 1024
	}
	m = s.PaperM / div
	if m < n {
		m = n
	}
	return n, m
}

// Build generates the stand-in graph at divisor div: an RMAT graph with
// Graph500 parameters whose vertex count is the next power of two ≥ the
// scaled n and whose edge count is the scaled m. RMAT vertex ids are
// then randomly permuted so generated locality does not flatter the
// cache behaviour relative to real SNAP orderings.
func (s GraphSpec) Build(workers int, div int64) *graph.EdgeList {
	n, m := s.ScaledSize(div)
	scale := 0
	for int64(1)<<scale < n {
		scale++
	}
	el := gen.RMAT(workers, scale, m, gen.Graph500Params, s.Seed)
	perm := graph.RandomPermutation(el.N, s.Seed^0xabcdef)
	return graph.Permute(el, perm)
}

// FindSpec returns the spec with the given name.
func FindSpec(name string) (GraphSpec, error) {
	for _, s := range tableISpecs {
		if s.Name == name {
			return s, nil
		}
	}
	return GraphSpec{}, fmt.Errorf("bench: unknown graph %q", name)
}

// largestSpec returns the Friendster stand-in (Figures 2 and 3 target).
func largestSpec() GraphSpec { return tableISpecs[len(tableISpecs)-1] }
