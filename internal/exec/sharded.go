package exec

import (
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// The destination-sharded executor. The vertex range [0, n) is split
// into P contiguous shards balanced by total incident arcs (out-degree
// from g.Offsets plus an in-degree histogram), and each worker owns the
// Z rows of exactly one shard. An arc (u, v) contributes two
// half-updates with structurally known target rows — the src half writes
// row u, the dst half writes row v — so:
//
//   - every src half is applied by the owner of u while it walks its own
//     vertices' arc lists (the cache-friendly Ligra schedule), and
//   - every dst half is routed to the owner of v through a bucketing
//     pass that groups arcs by destination shard.
//
// Each worker then touches only rows it owns, with plain non-atomic
// writes: no races, no per-worker n×K replicas, no reduction pass. The
// cost is one O(m) bucketing pass and m edge records of transient
// memory, which is why the paper-faithful Atomic strategy remains the
// default; on skewed graphs the removal of CAS retries on hot rows pays
// for it (see the ablation benchmarks).

// destPlan is the bucketed form of a graph's arcs: arcs grouped by the
// destination shard that must apply their dst half-update.
type destPlan struct {
	bounds []int        // len P+1 — vertex range of each shard
	arcs   []graph.Edge // len m — arcs grouped by destination shard
	start  []int64      // len P+1 — arcs[start[p]:start[p+1]] is shard p's bucket
}

// runSharded executes the kernel with the destination-sharded strategy.
func runSharded[T Float](g *graph.CSR, k *Kernel[T], z []T, workers int) Stats {
	if g.N == 0 {
		return Stats{}
	}
	p := workers
	if p > g.N {
		p = g.N
	}
	if p <= 1 {
		st := runDense(g, k, z, 1, false)
		st.Shards = 1
		return st
	}
	plan, built := destPlanFor(g, p, workers)
	var adds atomic.Int64
	parallel.ForStatic(p, p, func(_, lo, hi int) {
		var local int64
		for shard := lo; shard < hi; shard++ {
			// Src halves: walk the owned vertices' arc lists; every write
			// lands in an owned row u.
			local += walk(g, k, z, plan.bounds[shard], plan.bounds[shard+1], false, false)
			// Dst halves: drain the owned bucket; every write lands in an
			// owned row v.
			bucket := plan.arcs[plan.start[shard]:plan.start[shard+1]]
			for i := range bucket {
				e := &bucket[i]
				local += k.ApplyDst(z, e.U, e.V, e.W)
			}
		}
		adds.Add(local)
	})
	st := Stats{PlainAdds: adds.Load(), Shards: p}
	if built {
		st.PlanBuilds = 1
	} else {
		st.PlanReuses = 1
	}
	return st
}

// destPlanEntry pairs a cached plan with the shard count it was built
// for; a run at a different effective worker count rebuilds (and
// replaces the cache, so alternating counts thrash rather than grow).
type destPlanEntry struct {
	parts int
	plan  *destPlan
}

// destPlanFor resolves the destination plan for g at the given shard
// count, consulting the plan slot cached on the CSR (ROADMAP: repeated
// benchmark runs on the same graph amortize the O(m) bucketing to
// zero). The plan depends only on graph structure and
// parts — not on the kernel — so one cached plan serves both variants
// (standard and Laplacian) at the same worker count.
// Returns whether the plan had to be built this call.
func destPlanFor(g *graph.CSR, parts, workers int) (*destPlan, bool) {
	if e, ok := g.CachedPlan().(*destPlanEntry); ok && e.parts == parts {
		return e.plan, false
	}
	plan := buildDestPlan(g, parts, workers)
	g.CachePlan(&destPlanEntry{parts: parts, plan: plan})
	return plan, true
}

// buildDestPlan computes degree-balanced shard boundaries and buckets
// every arc by the shard owning its destination row.
func buildDestPlan(g *graph.CSR, parts, workers int) *destPlan {
	m := len(g.Targets)
	// Shard boundaries balance the per-shard half-update load: the src
	// walk costs the shard's out-degrees, the bucket drain its
	// in-degrees, so split on the prefix sum of outdeg + indeg.
	indeg := parallel.Histogram(workers, m, g.N, func(i int) int { return int(g.Targets[i]) })
	prefix := make([]int64, g.N+1)
	parallel.For(workers, g.N, func(u int) {
		prefix[u] = g.Offsets[u+1] - g.Offsets[u] + indeg[u]
	})
	parallel.ExclusiveSum(workers, prefix)
	bounds := parallel.SplitByWeight(parts, prefix)
	// Flatten the boundary search into a vertex → shard map once (n
	// lookups) so the O(m) bucketing below reads plain loads.
	shardOf := make([]int32, g.N)
	parallel.ForChunk(workers, g.N, 0, func(lo, hi int) {
		p := parallel.RangeOf(bounds, lo)
		for v := lo; v < hi; v++ {
			for v >= bounds[p+1] {
				p++
			}
			shardOf[v] = int32(p)
		}
	})

	// Bucket arcs by destination shard with parallel.StableScatter over
	// arc indices: contention-free, and in arc order within a bucket at
	// any worker count.
	arcs := make([]graph.Edge, m)
	start := parallel.StableScatter(workers, m, parts, func(i int) int { return int(shardOf[g.Targets[i]]) },
		func(lo, hi int, next []int64) {
			// The row holding arc lo; the loop below follows the rows.
			u := sort.Search(g.N, func(u int) bool { return g.Offsets[u+1] > int64(lo) })
			for i := int64(lo); i < int64(hi); i++ {
				for i >= g.Offsets[u+1] {
					u++
				}
				v := g.Targets[i]
				p := shardOf[v]
				arcs[next[p]] = graph.Edge{U: graph.NodeID(u), V: v, W: g.Weight(i)}
				next[p]++
			}
		})
	return &destPlan{bounds: bounds, arcs: arcs, start: start}
}
