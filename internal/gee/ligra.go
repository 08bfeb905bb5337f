package gee

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// Timings records the two phases of Algorithm 2 for the paper's §III
// observation that the O(nk) projection initialization dominates on
// graphs with very low average degree (experiment E6).
type Timings struct {
	// WInit is lines 2-6: the class coefficients and the allocation of
	// Z — side by side past one worker, so their maximum, not their sum —
	// and then one write to each page of Z.
	WInit   time.Duration
	EdgeMap time.Duration // line 7: exec.Run's label narrowing and the edge map over all arcs
}

// EmbedCSRTimed is EmbedCSR for the CSR-executing implementations with
// per-phase timing.
func EmbedCSRTimed(impl Impl, g *graph.CSR, y []int32, opts Options) (*Result, *Timings, error) {
	k, err := opts.normalize(g.N, y)
	if err != nil {
		return nil, nil, err
	}
	if _, ok := impl.strategy(); !ok {
		return nil, nil, fmt.Errorf("gee: EmbedCSRTimed supports only the CSR implementations, got %v", impl)
	}
	var tm Timings
	z, err := csrEmbedTimed(g, y, k, opts, impl, &tm)
	if err != nil {
		return nil, nil, err
	}
	return &Result{Z: z, K: k, Impl: impl}, &tm, nil
}

// csrEmbedTimed is Algorithm 2 (GEE-Ligra) generalized over execution
// strategies: the projection initialization is parallelized (lines 3-6),
// then the edge map applies updateEmb once to every arc (line 7). That
// edge map is exec.walk, a dense walk over the CSR's rows that every
// strategy runs: every vertex is active, so nothing tracks a frontier.
//
// updateEmb (lines 9-12) performs the two writeAdd updates per arc:
//
//	writeAdd(Z(u, Y(v)), W(v, Y(v)) · w)
//	writeAdd(Z(v, Y(u)), W(u, Y(u)) · w)
//
// The math is carried by the shared exec kernel; how the two writes are
// scheduled and made race-free is the implementation's exec strategy
// (gee.Impl.strategy): serial, atomic writeAdd, racy plain adds (the
// paper's ablation), replicated buffers, or destination sharding. tm,
// when not nil, receives the two phases' times.
func csrEmbedTimed(g *graph.CSR, y []int32, k int, opts Options, impl Impl, tm *Timings) (*mat.Dense, error) {
	workers := opts.workers()
	if impl == LigraSerial {
		workers = 1
	}
	// Algorithm 2, lines 3-6: parallel projection initialization, as the
	// shared exec kernel. Z is allocated exactly once and make's clear is
	// its only zeroing; that clear runs on one goroutine, so past one
	// worker the kernel is assembled beside it, not before it. Then every
	// page of Z is written once (touchPages).
	start := time.Now()
	var z *mat.Dense
	var kern exec.Kernel[float64]
	parallel.For(workers, 2, func(task int) {
		if task == 0 {
			z = mat.NewDense(g.N, k)
			return
		}
		var deg []float64
		if opts.Laplacian {
			deg = incidentDegreesCSR(workers, g)
		}
		kern = buildKernel(workers, y, k, deg)
	})
	touchPages(workers, z.Data)
	if tm != nil {
		tm.WInit = time.Since(start)
		start = time.Now()
	}
	// Algorithm 2, line 7: the edge map over all arcs (exec's dense
	// row-major walk), under the implementation's write discipline.
	strategy, _ := impl.strategy()
	if _, err := exec.Run(strategy, g, kern, z.Data, exec.Options{Workers: workers}); err != nil {
		return nil, err
	}
	if tm != nil {
		tm.EdgeMap = time.Since(start)
	}
	return z, nil
}

// pageFloats is the number of float64 cells in a 4 KB page.
const pageFloats = 4096 / 8

// touchPages stores a zero into one cell of every 4 KB page of z, split
// over the workers. A Z on a fresh span (a process's first embed of its
// size) has pages the operating system has never mapped, and the walk's
// first access to each is a read-modify-write: the read maps the shared
// zero page and the write faults again to replace it. Writing first
// maps each page once, in parallel, before the walk. On a span the
// runtime reuses, make's clear has mapped the pages already and the
// pass costs one store per 512 cells. z is all zeros here, so the
// stores change no value.
func touchPages(workers int, z []float64) {
	parallel.ForStatic(workers, (len(z)+pageFloats-1)/pageFloats, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			z[p*pageFloats] = 0
		}
	})
}
