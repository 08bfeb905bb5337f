package exec

import (
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// Sharded execution over edge slices. The CSR executor (sharded.go)
// buckets a whole graph once; dynamic ingest instead folds a stream of
// batches into a long-lived Z, so the shard layout must outlive any one
// edge set. EdgePlan is that layout: shard boundaries plus a vertex →
// shard map, built once, against which every batch is bucketed in
// O(batch) — the per-batch patch of a cached plan, not a per-batch
// rebuild. Each arc contributes two half-updates with structurally
// known target rows, so the src half routes to the owner of u and the
// dst half to the owner of v; every worker then writes only rows it
// owns, with plain non-atomic adds.

// EdgePlan is a persistent shard layout over the vertex range [0, n).
// The scratch buffers are reused across calls, so a plan is
// single-writer: concurrent ShardedEdges calls on one plan must be
// externally serialized (the dynamic embedder holds its writer lock).
// Readers of Z snapshots are unaffected.
type EdgePlan struct {
	n       int
	bounds  []int   // len parts+1 — vertex range of each shard
	shardOf []int32 // len n — owner shard of each vertex

	// per-batch scratch, grown on demand and reused
	srcArcs, dstArcs   []graph.Edge
	srcStart, dstStart []int64
}

// NewEdgePlan builds a shard layout with parts uniform vertex ranges
// (clamped to [1, n]). Uniform ranges are the right default for a
// dynamic graph whose degree profile is unknown and shifting; a skewed
// steady state can be rebalanced by building a fresh plan.
func NewEdgePlan(n, parts int) (*EdgePlan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("exec: edge plan over %d vertices", n)
	}
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	p := &EdgePlan{n: n, bounds: make([]int, parts+1), shardOf: make([]int32, n)}
	for s := 0; s <= parts; s++ {
		p.bounds[s] = s * n / parts
	}
	parallel.ForChunk(0, n, 0, func(lo, hi int) {
		s := parallel.RangeOf(p.bounds, lo)
		for v := lo; v < hi; v++ {
			for v >= p.bounds[s+1] {
				s++
			}
			p.shardOf[v] = int32(s)
		}
	})
	return p, nil
}

// Shards returns the number of shards in the layout.
func (p *EdgePlan) Shards() int { return len(p.bounds) - 1 }

// N returns the vertex count the layout covers.
func (p *EdgePlan) N() int { return p.n }

// ShardedEdges applies the kernel over an edge slice with the
// contention-free sharded discipline: both half-updates of every arc
// are bucketed by the shard owning their target row (a two-pass
// count-and-scatter over the batch only), then each shard owner drains
// its buckets with plain writes: owner-computes, every row written by
// one worker. The dynamic embedder folds a batch of 65536 edges or more
// this way; below that a serial fold (SerialEdges) was measured faster
// on 2 vCPUs than the bucketing pass and the parallel drain together.
func ShardedEdges[T Float](k Kernel[T], edges []graph.Edge, z []T, p *EdgePlan, workers int) (Stats, error) {
	if err := k.validate(p.n, len(z)); err != nil {
		return Stats{}, err
	}
	parts := p.Shards()
	if parts <= 1 || len(edges) == 0 {
		return SerialEdges(k, edges, p.n, z)
	}
	b := len(edges)
	w := parallel.Workers(workers)
	if w > b {
		w = b
	}

	// Pass 1: per-(worker, shard) half-update counts over static batch
	// ranges.
	srcCounts := make([][]int64, w)
	dstCounts := make([][]int64, w)
	parallel.ForStatic(w, b, func(worker, lo, hi int) {
		sc := make([]int64, parts)
		dc := make([]int64, parts)
		for i := lo; i < hi; i++ {
			sc[p.shardOf[edges[i].U]]++
			dc[p.shardOf[edges[i].V]]++
		}
		srcCounts[worker] = sc
		dstCounts[worker] = dc
	})
	for worker := 0; worker < w; worker++ {
		// ForStatic leaves trailing workers without a range when its
		// chunking rounds up; they contributed nothing.
		if srcCounts[worker] == nil {
			srcCounts[worker] = make([]int64, parts)
			dstCounts[worker] = make([]int64, parts)
		}
	}

	// Cursor scan: slot ranges ordered by (shard, worker) so each
	// worker's scatter writes are disjoint.
	p.srcStart = sliceTo(p.srcStart, parts+1)
	p.dstStart = sliceTo(p.dstStart, parts+1)
	srcCur := make([][]int64, w)
	dstCur := make([][]int64, w)
	for worker := 0; worker < w; worker++ {
		srcCur[worker] = make([]int64, parts)
		dstCur[worker] = make([]int64, parts)
	}
	var sAcc, dAcc int64
	for s := 0; s < parts; s++ {
		p.srcStart[s] = sAcc
		p.dstStart[s] = dAcc
		for worker := 0; worker < w; worker++ {
			srcCur[worker][s] = sAcc
			sAcc += srcCounts[worker][s]
			dstCur[worker][s] = dAcc
			dAcc += dstCounts[worker][s]
		}
	}
	p.srcStart[parts] = sAcc
	p.dstStart[parts] = dAcc

	// Pass 2: scatter the batch into the reserved slots.
	p.srcArcs = sliceTo(p.srcArcs, b)
	p.dstArcs = sliceTo(p.dstArcs, b)
	parallel.ForStatic(w, b, func(worker, lo, hi int) {
		sc, dc := srcCur[worker], dstCur[worker]
		for i := lo; i < hi; i++ {
			e := edges[i]
			s := p.shardOf[e.U]
			p.srcArcs[sc[s]] = e
			sc[s]++
			d := p.shardOf[e.V]
			p.dstArcs[dc[d]] = e
			dc[d]++
		}
	})

	// Drain: each shard owner applies the half-updates landing in its
	// rows, with plain adds. Concurrency is bounded by the caller's
	// worker budget — a worker may own several shards — not by the
	// shard count.
	var adds atomic.Int64
	parallel.ForStatic(parallel.Workers(workers), parts, func(_, lo, hi int) {
		var local int64
		for s := lo; s < hi; s++ {
			src := p.srcArcs[p.srcStart[s]:p.srcStart[s+1]]
			for i := range src {
				e := &src[i]
				local += k.ApplySrc(z, e.U, e.V, e.W)
			}
			dst := p.dstArcs[p.dstStart[s]:p.dstStart[s+1]]
			for i := range dst {
				e := &dst[i]
				local += k.ApplyDst(z, e.U, e.V, e.W)
			}
		}
		adds.Add(local)
	})
	// PlanBuilds/PlanReuses stay zero: an EdgePlan is built by the
	// caller, not derived during the run, so those counters would lie.
	return Stats{PlainAdds: adds.Load(), Shards: parts}, nil
}

// sliceTo returns s resized to length n, reusing capacity.
func sliceTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
