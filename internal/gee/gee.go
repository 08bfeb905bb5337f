// Package gee implements the One-Hot Graph Encoder Embedding (GEE) family
// from "Edge-Parallel Graph Encoder Embedding" (IPPS 2024):
//
//   - Reference: the faithful serial transcription of Algorithm 1,
//     including the literal n×K projection matrix W. This is the
//     correctness oracle and the stand-in for the paper's interpreted
//     Python baseline.
//   - Optimized: the Numba-JIT analog — same single pass over edges, but
//     flat preallocated arrays and the W matrix compressed to the one
//     nonzero coefficient per vertex.
//   - LigraSerial / LigraParallel / LigraParallelUnsafe: Algorithm 2 —
//     the edge map formulation, run as exec's dense row-major walk over
//     every arc of the CSR. Parallel uses lock-free atomic writeAdd
//     (atomicx.Add); Unsafe is the paper's ablation with atomics off
//     (plain, racy adds).
//   - Replicated: per-worker private copies of Z reduced at the end —
//     the alternative the paper rejects for memory, promoted to a
//     first-class implementation for the ablation that quantifies that
//     choice.
//   - ShardedParallel: a destination-sharded execution where each worker
//     owns a disjoint slice of Z rows and accumulates with plain
//     non-atomic writes — no races, no replicas, no reduction pass. On
//     skewed graphs this removes the CAS-retry serialization that hot
//     rows impose on the atomic version.
//
// All implementations compute the same Z ∈ R^{n×K} on the same inputs
// (up to floating-point summation order in the parallel versions). The
// per-edge math lives once, as an internal/exec kernel; the
// implementations differ only in the exec strategy that runs it.
package gee

import (
	"fmt"
	"runtime"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/mat"
)

// Impl selects one of the paper's implementations.
type Impl int

const (
	// Reference is the faithful Algorithm 1 loop (the "GEE-Python" row
	// of Table I).
	Reference Impl = iota
	// Optimized is the compiled flat-array serial version (the "Numba
	// Serial" row).
	Optimized
	// LigraSerial is Algorithm 2 run on one worker (the "GEE-Ligra
	// Serial" row).
	LigraSerial
	// LigraParallel is Algorithm 2 with lock-free atomic updates (the
	// "GEE-Ligra Parallel" row).
	LigraParallel
	// LigraParallelUnsafe is LigraParallel with atomics off — the
	// paper's §IV ablation ("we ran the program with atomics off,
	// performing unsafe updates").
	LigraParallelUnsafe
	// Replicated accumulates into per-worker private copies of Z and
	// reduces them: race-free without atomics, at workers × n × K
	// memory (the alternative the paper's memory argument rejects).
	Replicated
	// ShardedParallel partitions Z rows into degree-balanced shards and
	// routes both half-updates of every edge to the owning worker:
	// race-free plain writes with no replicas and no atomics.
	ShardedParallel
)

// Impls lists every implementation in Table I order plus the ablations
// and the sharded backend.
var Impls = []Impl{Reference, Optimized, LigraSerial, LigraParallel, LigraParallelUnsafe, Replicated, ShardedParallel}

// String names the implementation, following the paper's Table I rows.
func (im Impl) String() string {
	switch im {
	case Reference:
		return "GEE-Reference"
	case Optimized:
		return "Optimized-Serial"
	case LigraSerial:
		return "GEE-Ligra-Serial"
	case LigraParallel:
		return "GEE-Ligra-Parallel"
	case LigraParallelUnsafe:
		return "GEE-Ligra-Unsafe"
	case Replicated:
		return "GEE-Replicated"
	case ShardedParallel:
		return "GEE-Sharded"
	default:
		return fmt.Sprintf("Impl(%d)", int(im))
	}
}

// strategy maps a CSR-executing implementation to its exec strategy.
// The edge-list implementations (Reference, Optimized) report ok=false:
// they run exec.SerialEdges over E directly.
func (im Impl) strategy() (exec.Strategy, bool) {
	switch im {
	case LigraSerial:
		return exec.Serial, true
	case LigraParallel:
		return exec.Atomic, true
	case LigraParallelUnsafe:
		return exec.Racy, true
	case Replicated:
		return exec.Replicated, true
	case ShardedParallel:
		return exec.ShardedDest, true
	default:
		return 0, false
	}
}

// Options configures an embedding run.
type Options struct {
	// K is the number of classes (embedding dimensionality). Zero means
	// infer 1 + max(Y).
	K int
	// Workers bounds parallelism for the CSR implementations; <= 0
	// selects GOMAXPROCS.
	Workers int
	// Laplacian selects the degree-normalized variant: each edge's
	// contribution is scaled by 1/sqrt(d(u)·d(v)) where d is the total
	// incident weight of the endpoint (the GEE paper's Laplacian
	// preprocessing).
	Laplacian bool
}

// normalize validates y against opts and returns the effective K.
func (o Options) normalize(n int, y []int32) (int, error) {
	if len(y) != n {
		return 0, fmt.Errorf("gee: %d labels for %d vertices", len(y), n)
	}
	k := o.K
	if k == 0 {
		for _, v := range y {
			if int(v)+1 > k {
				k = int(v) + 1
			}
		}
	}
	if k <= 0 {
		return 0, fmt.Errorf("gee: no labeled vertices and K unset")
	}
	if err := labels.Validate(y, k); err != nil {
		return 0, err
	}
	return k, nil
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is the output of an embedding run.
type Result struct {
	Z    *mat.Dense // n × K node embeddings
	K    int
	Impl Impl
}

// Embed runs implementation impl over the paper's native input: the edge
// list E ∈ R^{s×3} plus labels Y. Each edge-list row receives both of
// Algorithm 1's updates (source into the destination's class and vice
// versa), so undirected graphs must list each edge once. The CSR
// implementations build a CSR internally; use EmbedCSR to amortize that
// across runs (the benchmarks do, matching the paper, which excludes
// graph loading from its timings). An edge list that fails
// graph.EdgeList.Validate is refused before any implementation runs.
func Embed(impl Impl, el *graph.EdgeList, y []int32, opts Options) (*Result, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	k, err := opts.normalize(el.N, y)
	if err != nil {
		return nil, err
	}
	switch impl {
	case Reference:
		z, err := referenceEmbed(el, y, k, opts)
		if err != nil {
			return nil, err
		}
		return &Result{Z: z, K: k, Impl: impl}, nil
	case Optimized:
		z, err := optimizedEmbed(el, y, k, opts)
		if err != nil {
			return nil, err
		}
		return &Result{Z: z, K: k, Impl: impl}, nil
	}
	if _, ok := impl.strategy(); ok {
		g := graph.BuildCSR(opts.workers(), el)
		return EmbedCSR(impl, g, y, opts)
	}
	return nil, fmt.Errorf("gee: unknown implementation %d", int(impl))
}

// EmbedCSR runs an implementation over a prebuilt CSR. Each stored arc is
// one row of E: Algorithm 1's two updates are applied per arc, so the CSR
// must hold each logical edge exactly once (not symmetrized).
func EmbedCSR(impl Impl, g *graph.CSR, y []int32, opts Options) (*Result, error) {
	k, err := opts.normalize(g.N, y)
	if err != nil {
		return nil, err
	}
	switch impl {
	case Reference:
		return Embed(impl, g.ToEdgeList(), y, opts)
	case Optimized:
		z, err := optimizedEmbedCSR(g, y, k, opts)
		if err != nil {
			return nil, err
		}
		return &Result{Z: z, K: k, Impl: impl}, nil
	}
	if _, ok := impl.strategy(); ok {
		z, err := csrEmbed(g, y, k, opts, impl)
		if err != nil {
			return nil, err
		}
		return &Result{Z: z, K: k, Impl: impl}, nil
	}
	return nil, fmt.Errorf("gee: unknown implementation %d", int(impl))
}
