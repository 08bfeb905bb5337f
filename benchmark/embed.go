package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/gee"
	"repro/internal/graph"
)

// processStart is when the process began; set-up time counts from it.
var processStart = time.Now()

// warmupPairs is the number of leading pairs every paired measurement
// drops.
const warmupPairs = 2

// embedSetup is embed_skewed's system set-up: the CSR build and the
// first embed on the new CSR, which pays for anything built lazily and
// cached on it.
func embedSetup(tr *tracer, parent int, el *graph.EdgeList, y []int32, k int) (g *graph.CSR, build, total float64, err error) {
	build = tr.timed("graph", "BuildCSR", parent, func() { g = graph.BuildCSR(loadWorkers, el) })
	first := tr.timed("gee", "EmbedCSR(first)", parent, func() {
		_, err = gee.EmbedCSR(gee.LigraParallel, g, y, gee.Options{K: k, Workers: loadWorkers})
	})
	return g, build, build + first, err
}

func runEmbedSkewed(cfg runConfig) (*result, error) {
	res := newResult("embed_skewed", cfg)
	tr, sz := cfg.tr, cfg.size
	setup := tr.begin("bench", "setup", 0, 0)

	n, k := 1<<sz.rmatScale, sz.embedK
	edges := rmatEdges(sz.rmatScale, sz.rmatEdgeFactor*n, cfg.seed)
	y := sampledLabels(n, k, 0.1, cfg.seed)
	o := newOracle(n, k, edges, y)
	inputSeconds := time.Since(processStart).Seconds()

	el := &graph.EdgeList{N: n, Edges: edges}
	g, build, first, err := embedSetup(tr, setup.id(), el, y, k)
	if err != nil {
		return nil, err
	}
	builds, setups := []float64{build}, []float64{first}
	setup.end()

	// The timed section: interleaved pairs of the frozen oracle and the
	// implementation under test. Each side allocates and zeroes its own
	// n×K result. The heap is collected between pairs, outside the
	// timers, so every pair starts from the same memory state. The
	// first and the last timed pair are checked against the oracle.
	timed := tr.begin("bench", "timed", 0, 0)
	opts := gee.Options{K: k, Workers: loadWorkers}
	var zOracle, zImpl []float64
	var runErr error
	checks := 0
	pt := pairTimer{warmup: warmupPairs, pairs: sz.embedPairs, after: func(pair int) {
		if runErr == nil && (pair == 0 || pair == sz.embedPairs-1) {
			runErr = checkEmbedding(fmt.Sprintf("gee.EmbedCSR rep %d", pair), zImpl, zOracle)
			checks++
		}
		zOracle, zImpl = nil, nil
		runtime.GC()
	}}
	tOracle, tImpl := pt.run(
		func() float64 {
			return tr.timed("oracle", "embed", timed.id(), func() { zOracle = o.embed() })
		},
		func() float64 {
			return tr.timed("gee", "EmbedCSR", timed.id(), func() {
				r, err := gee.EmbedCSR(gee.LigraParallel, g, y, opts)
				if err != nil {
					runErr = err
					return
				}
				zImpl = r.Z.Data
			})
		},
	)
	timed.end()
	rss := peakRSSMB()

	res.attempted = sz.embedPairs
	if runErr != nil {
		res.checkErr, res.failed = runErr, res.attempted
	}
	fmt.Fprintf(cfg.log, "# embed_skewed: n=%d edges=%d K=%d pairs=%d checks=%d\n", n, len(edges), k, sz.embedPairs, checks)

	// The set-up is repeated after the timed section, so the repeats
	// cannot disturb the peak memory read above; setup_s is the input
	// generation plus the median system set-up.
	for len(setups) < sz.setups {
		runtime.GC()
		_, build, d, err := embedSetup(tr, 0, el, y, k)
		if err != nil {
			return nil, err
		}
		builds, setups = append(builds, build), append(setups, d)
	}

	// One pass is one oracle embed of this graph; an EmbedCSR costs
	// t_impl / t_oracle passes of the oracle run it was paired with. On a
	// shared VM the raw time of one and the same embed drifts by a
	// quarter between runs minutes apart, while its ratio to the
	// interleaved oracle holds within a few percent; the raw times are
	// per-layer regime markers (gee.embed_p50_ms).
	if tr == nil {
		rel := ratios(tImpl, tOracle)
		tail, q, err := tailPercentile(rel)
		if err != nil {
			return nil, err
		}
		passes := 0.0
		for _, r := range rel {
			passes += r
		}
		res.metrics["speedup_x"] = median(ratios(tOracle, tImpl))
		res.metrics["ops_per_pass"] = float64(len(rel)*len(edges)) / passes
		res.metrics["op_tail_x"] = tail / median(rel)
		res.metrics["rss_mb"] = rss
		res.metrics["setup_s"] = inputSeconds + median(setups)
		res.notes["speedup_x"] = fmt.Sprintf("median of %d interleaved pairs, oracle / gee.EmbedCSR(LigraParallel); raw median %.1fms against a pass of %.1fms",
			len(rel), median(tImpl)*1e3, median(tOracle)*1e3)
		res.notes["ops_per_pass"] = fmt.Sprintf("edges embedded per pass: %d embeds of %d edges in %.1f passes", len(rel), len(edges), passes)
		res.notes["op_tail_x"] = fmt.Sprintf("p%g / median of one EmbedCSR, n=%d", q*100, len(rel))
		res.notes["setup_s"] = fmt.Sprintf("inputs %.2fs + median of %d system set-ups", inputSeconds, len(setups))
		return res, nil
	}

	res.metrics["graph.build_csr_ms"] = median(builds) * 1e3
	res.metrics["gee.embed_p50_ms"] = median(tImpl) * 1e3
	res.metrics["gee.embed_max_ms"] = sorted(tImpl)[len(tImpl)-1] * 1e3
	res.metrics["host.oracle_medges_s"] = float64(len(edges)) / median(tOracle) / 1e6
	res.metrics["trace.traced_speedup_x"] = median(ratios(tOracle, tImpl))
	if err := embedLayerProbes(res, tr, o, g, median(tImpl), sz); err != nil {
		return nil, err
	}
	return res, nil
}

// embedLayerProbes times the exec strategies and the other gee
// implementations on the workload's graph, each as interleaved pairs
// against the oracle doing the same job.
func embedLayerProbes(res *result, tr *tracer, o *oracle, g *graph.CSR, embedSeconds float64, sz sizing) error {
	probes := tr.begin("bench", "probes", 0, 0)
	defer probes.end()
	kern := exec.Kernel[float64]{Width: o.k, SrcCol: o.y, DstCol: o.y, Coeff: o.coeff}

	// exec: the fold alone, into caller-allocated buffers zeroed outside
	// the timers.
	zo := make([]float64, o.n*o.k)
	zi := make([]float64, o.n*o.k)
	var atomicFold float64
	for _, s := range []exec.Strategy{exec.Serial, exec.Atomic, exec.ShardedDest, exec.Replicated} {
		var stats exec.Stats
		var runErr error
		planBuilds := 0
		pt := pairTimer{warmup: 1, pairs: sz.probePairs, after: func(pair int) {
			if pair == sz.probePairs-1 && runErr == nil {
				runErr = checkEmbedding("exec.Run "+s.String(), zi, zo)
			}
			clear(zo)
			clear(zi)
		}}
		tOracle, tImpl := pt.run(
			func() float64 {
				return tr.timed("oracle", "fold", probes.id(), func() { o.fold(zo) })
			},
			func() float64 {
				return tr.timed("exec", "Run "+s.String(), probes.id(), func() {
					st, err := exec.Run(s, g, kern, zi, exec.Options{Workers: loadWorkers})
					if err != nil {
						runErr = err
					}
					stats = st
					planBuilds += st.PlanBuilds
				})
			},
		)
		if runErr != nil {
			return runErr
		}
		res.metrics["exec.run_speedup_x."+s.String()] = median(ratios(tOracle, tImpl))
		switch s {
		case exec.Atomic:
			res.metrics["exec.atomic_adds"] = float64(stats.AtomicAdds)
			atomicFold = median(tImpl)
		case exec.ShardedDest:
			res.metrics["exec.plain_adds"] = float64(stats.PlainAdds)
			res.metrics["exec.plan_builds"] = float64(planBuilds)
		}
	}
	zo, zi = nil, nil
	runtime.GC()
	// What EmbedCSR spends outside the fold: allocation, first touch and
	// the projection coefficients.
	res.metrics["gee.overhead_frac"] = 1 - atomicFold/embedSeconds

	// gee: the other implementations, end to end like the timed section.
	for _, im := range []struct {
		impl gee.Impl
		name string
	}{{gee.LigraSerial, "ligra-serial"}, {gee.ShardedParallel, "sharded"}, {gee.Optimized, "optimized"}} {
		var zOracle, zImpl []float64
		var runErr error
		pt := pairTimer{warmup: 1, pairs: sz.probePairs, after: func(pair int) {
			if pair == sz.probePairs-1 && runErr == nil {
				runErr = checkEmbedding("gee.EmbedCSR "+im.name, zImpl, zOracle)
			}
			zOracle, zImpl = nil, nil
			runtime.GC()
		}}
		tOracle, tImpl := pt.run(
			func() float64 {
				return tr.timed("oracle", "embed", probes.id(), func() { zOracle = o.embed() })
			},
			func() float64 {
				return tr.timed("gee", "EmbedCSR "+im.name, probes.id(), func() {
					r, err := gee.EmbedCSR(im.impl, g, o.y, gee.Options{K: o.k, Workers: loadWorkers})
					if err != nil {
						runErr = err
						return
					}
					zImpl = r.Z.Data
				})
			},
		)
		if runErr != nil {
			return runErr
		}
		res.metrics["gee.speedup_x."+im.name] = median(ratios(tOracle, tImpl))
	}
	return nil
}
