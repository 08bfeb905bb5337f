package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/gee"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labels"
)

// ScalingPoint is one Figure 3 measurement.
type ScalingPoint struct {
	Cores   int
	Runtime time.Duration
	Speedup float64 // vs the 1-core runtime
}

// RunFig3 sweeps worker counts on the Friendster stand-in (strong
// scaling). cores lists the sweep points; nil selects 1..cfg.Workers.
func RunFig3(cfg Config, cores []int, progress io.Writer) ([]ScalingPoint, error) {
	cfg = cfg.withDefaults()
	if cores == nil {
		for c := 1; c <= cfg.Workers; c++ {
			cores = append(cores, c)
		}
	}
	spec := largestSpec()
	if progress != nil {
		fmt.Fprintf(progress, "# preparing %s stand-in\n", spec.Name)
	}
	w := prepareWorkload(spec, cfg)
	points := make([]ScalingPoint, 0, len(cores))
	var base time.Duration
	for _, c := range cores {
		sub := cfg
		sub.Workers = c
		t, err := timeImpl(w, gee.LigraParallel, sub)
		if err != nil {
			return nil, err
		}
		if len(points) == 0 {
			base = t
		}
		points = append(points, ScalingPoint{
			Cores:   c,
			Runtime: t,
			Speedup: base.Seconds() / t.Seconds(),
		})
		if progress != nil {
			fmt.Fprintf(progress, "# cores=%d runtime=%s\n", c, fmtSecs(t))
		}
	}
	return points, nil
}

// RenderFig3 prints the scaling curve.
func RenderFig3(w io.Writer, points []ScalingPoint) {
	fmt.Fprintln(w, "Figure 3 reproduction — GEE-Ligra strong scaling on the Friendster stand-in")
	fmt.Fprintf(w, "%6s %12s %9s\n", "cores", "runtime", "speedup")
	for _, p := range points {
		bar := strings.Repeat("*", int(p.Speedup*3+0.5))
		fmt.Fprintf(w, "%6d %12s %8.2fx |%s\n", p.Cores, fmtSecs(p.Runtime), p.Speedup, bar)
	}
	fmt.Fprintln(w, "Paper: ~11x speedup at 24 cores (memory-bound workload)")
}

// Fig4Point is one curve sample of Figure 4.
type Fig4Point struct {
	Log2Edges int
	Edges     int64
	Runtimes  map[gee.Impl]time.Duration
}

// fig4Impls lists the Figure 4 curves: the paper's four plus the
// repository's contention-free sharded backend, so the sweep shows
// where destination sharding overtakes atomic writeAdd as edge counts
// (and hot-row contention) grow.
var fig4Impls = []gee.Impl{gee.Reference, gee.Optimized, gee.LigraSerial, gee.LigraParallel, gee.ShardedParallel}

// RunFig4 sweeps Erdős–Rényi graphs of doubling edge counts, timing each
// implementation (paper: 2^13 .. 2^29 edges, n = m/16). refMaxLog2
// bounds the faithful-Algorithm-1 curve separately: its full n×K W
// matrix dominates memory at large n. impls nil selects fig4Impls.
func RunFig4(cfg Config, minLog2, maxLog2, refMaxLog2 int, impls []gee.Impl, progress io.Writer) ([]Fig4Point, error) {
	cfg = cfg.withDefaults()
	if impls == nil {
		impls = fig4Impls
	}
	if minLog2 <= 0 {
		minLog2 = 13
	}
	if maxLog2 < minLog2 {
		maxLog2 = minLog2
	}
	points := make([]Fig4Point, 0, maxLog2-minLog2+1)
	for lg := minLog2; lg <= maxLog2; lg++ {
		m := int64(1) << lg
		n := int(m / 16)
		if n < 1024 {
			n = 1024
		}
		if progress != nil {
			fmt.Fprintf(progress, "# ER sweep: 2^%d = %d edges, n=%d\n", lg, m, n)
		}
		el := gen.ErdosRenyi(cfg.Workers, n, m, cfg.Seed+uint64(lg))
		g := graph.BuildCSR(cfg.Workers, el)
		y := labels.SampleSemiSupervised(n, cfg.K, cfg.LabelFraction, cfg.Seed+uint64(lg)*7)
		w := &workload{Name: fmt.Sprintf("ER-2^%d", lg), EL: el, G: g, Y: y, K: cfg.K}
		pt := Fig4Point{Log2Edges: lg, Edges: m, Runtimes: map[gee.Impl]time.Duration{}}
		for _, impl := range impls {
			if impl == gee.Reference && lg > refMaxLog2 {
				continue
			}
			t, err := timeImpl(w, impl, cfg)
			if err != nil {
				return nil, err
			}
			pt.Runtimes[impl] = t
		}
		points = append(points, pt)
	}
	return points, nil
}

// RenderFig4 prints the sweep as aligned series (one column per curve).
func RenderFig4(w io.Writer, points []Fig4Point) {
	fmt.Fprintln(w, "Figure 4 reproduction — runtime vs edges on Erdős–Rényi graphs (n = m/16)")
	fmt.Fprintf(w, "%10s %12s", "log2(m)", "edges")
	for _, im := range fig4Impls {
		fmt.Fprintf(w, " %18s", im)
	}
	fmt.Fprintln(w)
	for _, p := range points {
		fmt.Fprintf(w, "%10d %12d", p.Log2Edges, p.Edges)
		for _, im := range fig4Impls {
			if t, ok := p.Runtimes[im]; ok {
				fmt.Fprintf(w, " %18s", fmtSecs(t))
			} else {
				fmt.Fprintf(w, " %18s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Paper: all four curves linear in edge count; ordering GEE >> Numba > Ligra serial > Ligra parallel")
}
