package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/gee"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labels"
)

// AblationResult compares the race-handling strategies on the same
// workload (the paper's §IV ablation: "we ran the program with atomics
// off, performing unsafe updates, and saw no appreciable performance
// difference" — plus the replicated-buffer alternative the paper's
// memory-efficiency argument implicitly rejects, and the
// destination-sharded backend that avoids atomics with no replicas).
type AblationResult struct {
	Graph      string
	N          int
	M          int64
	Atomic     time.Duration // LigraParallel (writeAdd)
	Unsafe     time.Duration // LigraParallelUnsafe (plain adds, racy)
	Replicated time.Duration // per-worker Z buffers + reduction
	Sharded    time.Duration // ShardedParallel (owned row ranges, plain writes)
	// MaxUnsafeDeviation is the largest |Z_atomic - Z_unsafe| observed,
	// i.e. how much the races actually corrupted on this run.
	MaxUnsafeDeviation float64
}

// RunAblation measures the ablation on the named Table I stand-in.
func RunAblation(spec GraphSpec, cfg Config, progress io.Writer) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	if progress != nil {
		fmt.Fprintf(progress, "# preparing %s stand-in\n", spec.Name)
	}
	w := prepareWorkload(spec, cfg)
	res := &AblationResult{Graph: w.Name, N: w.EL.N, M: int64(len(w.EL.Edges))}
	var err error
	if res.Atomic, err = timeImpl(w, gee.LigraParallel, cfg); err != nil {
		return nil, err
	}
	if res.Unsafe, err = timeImpl(w, gee.LigraParallelUnsafe, cfg); err != nil {
		return nil, err
	}
	if res.Replicated, err = timeImpl(w, gee.Replicated, cfg); err != nil {
		return nil, err
	}
	if res.Sharded, err = timeImpl(w, gee.ShardedParallel, cfg); err != nil {
		return nil, err
	}
	opts := gee.Options{K: w.K, Workers: cfg.Workers}
	atomic, err := gee.EmbedCSR(gee.LigraParallel, w.G, w.Y, opts)
	if err != nil {
		return nil, err
	}
	unsafeRes, err := gee.EmbedCSR(gee.LigraParallelUnsafe, w.G, w.Y, opts)
	if err != nil {
		return nil, err
	}
	res.MaxUnsafeDeviation = atomic.Z.MaxAbsDiff(unsafeRes.Z)
	return res, nil
}

// RenderAblation prints the comparison.
func RenderAblation(w io.Writer, r *AblationResult) {
	fmt.Fprintf(w, "Atomics ablation — %s stand-in (n=%d, s=%d)\n", r.Graph, r.N, r.M)
	fmt.Fprintf(w, "  %-34s %10s\n", "variant", "runtime")
	fmt.Fprintf(w, "  %-34s %10s\n", "atomic writeAdd (paper's choice)", fmtSecs(r.Atomic))
	fmt.Fprintf(w, "  %-34s %10s\n", "atomics off (unsafe, racy)", fmtSecs(r.Unsafe))
	fmt.Fprintf(w, "  %-34s %10s\n", "replicated per-worker Z + reduce", fmtSecs(r.Replicated))
	fmt.Fprintf(w, "  %-34s %10s\n", "destination-sharded (no atomics)", fmtSecs(r.Sharded))
	fmt.Fprintf(w, "  max |Z_atomic - Z_unsafe| this run: %g\n", r.MaxUnsafeDeviation)
	fmt.Fprintln(w, "Paper: atomics on vs off showed no appreciable difference (memory-bound)")
}

// WInitPoint is one sample of the E6 experiment: the share of runtime
// spent in the O(nk) projection initialization as average degree falls
// (paper §III: "O(nk) becomes the dominant component of the runtime when
// graphs have a high n and a very low average degree").
type WInitPoint struct {
	AvgDegree float64
	N         int
	M         int64
	WInit     time.Duration
	EdgeMap   time.Duration
	WInitPct  float64
}

// RunWInit sweeps average degree downward at fixed edge count and
// measures the two phases of Algorithm 2.
func RunWInit(cfg Config, degrees []float64, edges int64, progress io.Writer) ([]WInitPoint, error) {
	cfg = cfg.withDefaults()
	if degrees == nil {
		// The W-init share crosses 50% where s ≈ nK, i.e. at average
		// degree ≈ K (paper §III: "For most graphs and choices of
		// K < 50, s > nk"). Sweep from well above K=50 to well below.
		degrees = []float64{512, 256, 128, 64, 32, 16, 4, 1}
	}
	if edges <= 0 {
		edges = 1 << 23
	}
	points := make([]WInitPoint, 0, len(degrees))
	for _, d := range degrees {
		n := int(float64(edges) / d)
		if n < 1024 {
			n = 1024
		}
		if progress != nil {
			fmt.Fprintf(progress, "# winit sweep: avg degree %.2f, n=%d\n", d, n)
		}
		el := gen.ErdosRenyi(cfg.Workers, n, edges, cfg.Seed+uint64(n))
		g := graph.BuildCSR(cfg.Workers, el)
		y := labels.SampleSemiSupervised(n, cfg.K, cfg.LabelFraction, cfg.Seed)
		var agg gee.Timings
		if _, err := timeFunc(cfg.Reps, func() error {
			_, tm, err := gee.EmbedCSRTimed(gee.LigraParallel, g, y,
				gee.Options{K: cfg.K, Workers: cfg.Workers})
			if err == nil {
				agg = *tm // keep the last rep's phase split
			}
			return err
		}); err != nil {
			return nil, err
		}
		total := agg.WInit + agg.EdgeMap
		pct := 0.0
		if total > 0 {
			pct = 100 * agg.WInit.Seconds() / total.Seconds()
		}
		points = append(points, WInitPoint{
			AvgDegree: d, N: n, M: edges,
			WInit: agg.WInit, EdgeMap: agg.EdgeMap, WInitPct: pct,
		})
	}
	return points, nil
}

// RenderWInit prints the phase split per degree.
func RenderWInit(w io.Writer, points []WInitPoint) {
	fmt.Fprintln(w, "W-init crossover (paper §III) — fixed edges, falling average degree")
	fmt.Fprintf(w, "%10s %12s %12s %12s %10s\n", "avg deg", "n", "W-init", "edge map", "W-init %")
	for _, p := range points {
		fmt.Fprintf(w, "%10.2f %12d %12s %12s %9.1f%%\n",
			p.AvgDegree, p.N, fmtSecs(p.WInit), fmtSecs(p.EdgeMap), p.WInitPct)
	}
	fmt.Fprintln(w, "Paper: the O(nk) initialization dominates at high n / very low average degree")
}
