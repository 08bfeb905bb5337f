package graph

import (
	"math"

	"repro/internal/parallel"
)

// Stats summarizes a CSR graph's structure.
type Stats struct {
	N           int
	M           int64
	MinDegree   int64
	MaxDegree   int64
	AvgDegree   float64
	Isolated    int // vertices with out-degree 0
	SelfLoops   int64
	DegreeP50   int64
	DegreeP99   int64
	WeightTotal float64
}

// ComputeStats scans the graph once and returns structural statistics.
func ComputeStats(workers int, g *CSR) Stats {
	s := Stats{N: g.N, M: g.NumEdges(), MinDegree: math.MaxInt64}
	if g.N == 0 {
		s.MinDegree = 0
		return s
	}
	type part struct {
		min, max, loops int64
		isolated        int
		wsum            float64
	}
	p := parallel.Reduce(workers, g.N, part{min: math.MaxInt64},
		func(lo, hi int) part {
			pp := part{min: math.MaxInt64}
			for u := lo; u < hi; u++ {
				d := g.Offsets[u+1] - g.Offsets[u]
				if d < pp.min {
					pp.min = d
				}
				if d > pp.max {
					pp.max = d
				}
				if d == 0 {
					pp.isolated++
				}
				for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
					if g.Targets[i] == NodeID(u) {
						pp.loops++
					}
					pp.wsum += float64(g.Weight(i))
				}
			}
			return pp
		},
		func(a, b part) part {
			if b.min < a.min {
				a.min = b.min
			}
			if b.max > a.max {
				a.max = b.max
			}
			a.isolated += b.isolated
			a.loops += b.loops
			a.wsum += b.wsum
			return a
		})
	s.MinDegree, s.MaxDegree = p.min, p.max
	s.Isolated = p.isolated
	s.SelfLoops = p.loops
	s.WeightTotal = p.wsum
	s.AvgDegree = float64(s.M) / float64(s.N)
	s.DegreeP50 = degreePercentile(g, 0.50)
	s.DegreeP99 = degreePercentile(g, 0.99)
	return s
}

// degreePercentile computes the q-th percentile of the out-degree
// distribution using a counting pass over a capped histogram plus an
// overflow bucket walk.
func degreePercentile(g *CSR, q float64) int64 {
	if g.N == 0 {
		return 0
	}
	const cap = 4096
	hist := make([]int64, cap+1)
	for u := 0; u < g.N; u++ {
		d := g.Offsets[u+1] - g.Offsets[u]
		if d >= cap {
			hist[cap]++
		} else {
			hist[d]++
		}
	}
	target := int64(q * float64(g.N))
	if target >= int64(g.N) {
		target = int64(g.N) - 1
	}
	var cum int64
	for d := int64(0); d <= cap; d++ {
		cum += hist[d]
		if cum > target {
			if d == cap {
				// walk the tail exactly
				tail := make([]int64, 0, hist[cap])
				for u := 0; u < g.N; u++ {
					if dd := g.Offsets[u+1] - g.Offsets[u]; dd >= cap {
						tail = append(tail, dd)
					}
				}
				parallel.SortFunc(1, tail, func(a, b int64) bool { return a < b })
				idx := target - (cum - hist[cap])
				return tail[idx]
			}
			return d
		}
	}
	return 0
}
