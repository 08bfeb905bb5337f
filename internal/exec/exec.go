// The Racy strategy in this package performs deliberately
// unsynchronized adds — the paper's §IV ablation. The //gee:racy
// directive tells the atomiccell analyzer (internal/analysis) that
// mixing atomic and plain access here is intentional; exec is the only
// package allowed to carry the annotation, and it is required to (so
// this comment is load-bearing — geevet fails without it).
//
//gee:racy
package exec

import (
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/race"
)

// Strategy selects how an executor resolves the concurrent writes of the
// edge map. All strategies compute the same embedding up to
// floating-point summation order (Racy excepted, by design).
type Strategy int

const (
	// Serial runs one worker with plain adds — the execution discipline
	// of Algorithm 1 and of GEE-Ligra on a single core.
	Serial Strategy = iota
	// Atomic is Ligra's dense edge map with lock-free atomic writeAdd —
	// the paper's GEE-Ligra Parallel discipline.
	Atomic
	// Racy is Atomic with the atomics turned off (plain, racy adds) —
	// the paper's §IV ablation. Under `-race` builds it upgrades to
	// Atomic so the detector stays usable repo-wide; the ablation is only
	// meaningful in normal builds anyway.
	Racy
	// Replicated gives each worker a private copy of Z and reduces at
	// the end: no atomics, no races, at the cost of workers × n × Width
	// memory and a reduction pass. The alternative the paper rejects for
	// memory, kept for the ablation that quantifies the choice.
	Replicated
	// ShardedDest partitions the vertex range into degree-balanced
	// shards and buckets arcs by destination shard, so each worker owns
	// a disjoint slice of Z rows and accumulates with plain non-atomic
	// writes: no races, no per-worker n×Width buffers, no reduction
	// pass. On skewed graphs this removes the CAS-retry serialization
	// that hot Z rows impose on Atomic.
	ShardedDest
)

// Strategies lists every executor strategy.
var Strategies = []Strategy{Serial, Atomic, Racy, Replicated, ShardedDest}

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Serial:
		return "serial"
	case Atomic:
		return "atomic"
	case Racy:
		return "racy"
	case Replicated:
		return "replicated"
	case ShardedDest:
		return "sharded-dest"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures an executor run.
type Options struct {
	// Workers bounds parallelism; <= 0 selects GOMAXPROCS. Serial
	// ignores it.
	Workers int
}

// Stats reports what an executor run did. The counters are exact: they
// are accumulated in per-worker registers and summed, so tests can
// assert structural guarantees (e.g. ShardedDest performs zero atomic
// adds) rather than merely observing outputs.
type Stats struct {
	// AtomicAdds is the number of lock-free atomic adds performed.
	AtomicAdds int64
	// PlainAdds is the number of non-atomic adds performed (including
	// adds into replicated private buffers, but not the reduction).
	PlainAdds int64
	// Shards is the number of destination shards used (ShardedDest only).
	Shards int
	// PlanBuilds counts destination plans derived during the run: 1 when
	// ShardedDest had to bucket the graph's arcs, 0 when a plan cached on
	// the CSR was reused. Tests assert repeated same-CSR runs report 0.
	PlanBuilds int
	// PlanReuses counts runs served entirely by a cached plan.
	PlanReuses int
}

// usesAtomicAdds reports whether a strategy resolves to atomic adds at
// the given worker count: Atomic always does (past one worker), and the
// Racy ablation upgrades to atomics under the race detector.
func usesAtomicAdds(s Strategy, workers int) bool {
	if workers <= 1 {
		return false
	}
	return s == Atomic || (s == Racy && race.Enabled)
}

// Run executes the kernel over every stored arc of g under the given
// strategy, accumulating into the row-major buffer z (len g.N × k.Width).
// z is accumulated into, not cleared, so contributions fold into whatever
// the caller seeded (normally zeros).
func Run[T Float](s Strategy, g *graph.CSR, k Kernel[T], z []T, o Options) (Stats, error) {
	if err := k.validate(g.N, len(z)); err != nil {
		return Stats{}, err
	}
	workers := parallel.Workers(o.Workers)
	switch s {
	case Serial:
		return runDense(g, &k, z, 1, false), nil
	case Atomic, Racy:
		return runDense(g, &k, z, workers, usesAtomicAdds(s, workers)), nil
	case Replicated:
		if workers <= 1 {
			return runDense(g, &k, z, 1, false), nil
		}
		return runReplicated(g, &k, z, workers), nil
	case ShardedDest:
		return runSharded(g, &k, z, workers), nil
	default:
		return Stats{}, fmt.Errorf("exec: unknown strategy %d", int(s))
	}
}

// runDense is the dense Ligra schedule: parallel over vertices, so one
// worker walks each vertex's arc list and the source row stays
// cache-resident. One worker with plain adds is Serial (Algorithm 1's
// discipline); several workers need atomic adds on both halves, because
// any row also receives destination-side updates from other workers'
// arcs — without them the run is the deliberately racy ablation, whose
// output callers must not rely on.
func runDense[T Float](g *graph.CSR, k *Kernel[T], z []T, workers int, atomicAdds bool) Stats {
	var adds atomic.Int64
	parallel.ForChunk(workers, g.N, 0, func(lo, hi int) {
		adds.Add(walk(g, k, z, lo, hi, true, atomicAdds))
	})
	if atomicAdds {
		return Stats{AtomicAdds: adds.Load()}
	}
	return Stats{PlainAdds: adds.Load()}
}

// runReplicated accumulates into per-worker private copies of Z and
// reduces them into z with a deterministic per-cell order.
func runReplicated[T Float](g *graph.CSR, k *Kernel[T], z []T, workers int) Stats {
	buffers := make([][]T, workers)
	var adds atomic.Int64
	parallel.ForStatic(workers, g.N, func(worker, lo, hi int) {
		buf := make([]T, len(z))
		buffers[worker] = buf
		adds.Add(walk(g, k, buf, lo, hi, true, false))
	})
	parallel.ForChunk(workers, len(z), 0, func(lo, hi int) {
		for _, buf := range buffers {
			if buf == nil {
				continue
			}
			for i := lo; i < hi; i++ {
				z[i] += buf[i]
			}
		}
	})
	return Stats{PlainAdds: adds.Load()}
}

// Edge-slice execution — the Algorithm 1 formulation over an explicit
// edge list, used by the Reference/Optimized paths and the dynamic
// embedder's small batch folds (internal/dyn, which folds large ones
// with ShardedEdges). Only the benchmark's per-strategy fold-rate probe
// calls AtomicEdges.

// SerialEdges applies the kernel serially over an edge slice with plain
// adds.
func SerialEdges[T Float](k Kernel[T], edges []graph.Edge, n int, z []T) (Stats, error) {
	if err := k.validate(n, len(z)); err != nil {
		return Stats{}, err
	}
	var adds int64
	for i := range edges {
		e := &edges[i]
		adds += k.Apply(z, e.U, e.V, e.W)
	}
	return Stats{PlainAdds: adds}, nil
}

// AtomicEdges applies the kernel over an edge slice in parallel with
// atomic adds (edge order carries no ownership structure, so atomics are
// the only race-free discipline without bucketing).
func AtomicEdges[T Float](k Kernel[T], edges []graph.Edge, n int, z []T, workers int) (Stats, error) {
	if err := k.validate(n, len(z)); err != nil {
		return Stats{}, err
	}
	adds := parallel.Reduce(workers, len(edges), int64(0), func(lo, hi int) int64 {
		var local int64
		for i := lo; i < hi; i++ {
			e := &edges[i]
			local += k.ApplyAtomic(z, e.U, e.V, e.W)
		}
		return local
	}, func(a, b int64) int64 { return a + b })
	return Stats{AtomicAdds: adds}, nil
}
