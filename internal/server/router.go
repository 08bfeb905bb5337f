package server

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/trace"
)

// writeAck is the router's answer to one accepted write batch.
type writeAck struct {
	// epochs is the per-shard ack vector: epochs[i] is the epoch at which
	// shard i published this batch's operations (only shards the batch
	// touched appear). epoch is its max, the scalar summary.
	epoch  uint64
	epochs shard.EpochVector
	// err is an apply-time rejection (HTTP 400); the batch was accepted
	// into the queue but the embedder refused it.
	err error
	// sent is the latest instant an ingest goroutine released an ack,
	// the start of the trace's ack span.
	sent time.Time
}

// searchOut is the router's answer to one /v1/neighbors query.
type searchOut struct {
	nbrs []cluster.Neighbor
	// mode is what actually answered: "exact", or "approx" when at least
	// one shard answered from its index (an approx request degrades to
	// exact while indexes are cold).
	mode       string
	epoch      uint64
	indexEpoch uint64
	// epochs is the per-shard snapshot vector the scan covered.
	epochs shard.EpochVector
}

// readView pins one published version per shard so a multi-row read
// answers every row from one consistent per-shard version, each row
// served by its owner.
type readView struct {
	snaps []*dyn.Version
	part  *shard.Partition
}

// row writes vertex v's embedding row from its owning shard's snapshot
// into dst and returns it. Only the owner's copy of a row is ever
// published (non-owned rows are zero by the dyn owned-window contract),
// so ownership is the only correct routing.
func (rv readView) row(v uint32, dst []float64) []float64 {
	return rv.snaps[rv.part.Owner(graph.NodeID(v))].Z.Row(int(v), dst)
}

// epochs is the per-shard version vector of the view.
func (rv readView) epochs() shard.EpochVector {
	ev := make(shard.EpochVector, len(rv.snaps))
	for i, s := range rv.snaps {
		ev[i] = s.Epoch
	}
	return ev
}

// shardUnit is one shard's pipeline: its embedder, ingest coalescer and
// index cache.
type shardUnit struct {
	sh    *shard.Shard
	co    *Coalescer
	index *indexCache
}

// router is the serving backend: a scatter-gather front over N
// vertex-partitioned shards. GEE's update touches exactly the two
// endpoint rows of an edge, so the partition is exact and a lone
// embedder is nothing but the N=1 case (see New) — there is no second
// implementation. Writes split by edge endpoint (a cut edge is
// delivered to both owners, each folding the full edge but publishing
// only its owned row; labels broadcast so global class counts stay
// exact), and the scattered enqueue is all-or-nothing: the router holds
// every target coalescer's lock at once, checks room everywhere, then
// enqueues everywhere — a write is never half-admitted under
// backpressure. Acks carry the per-shard epoch vector; reads route (or
// scatter) by vertex ownership.
//
// Admission is all-or-nothing, but apply is not: a batch that passes
// range validation here can still be rejected by one shard at fold time
// (e.g. deleting an edge that is not live). Sibling shards will have
// applied their sub-batches — exactly the partial-failure surface a
// merged coalescer micro-batch already has — and the 400 tells the
// client which operation was refused.
type router struct {
	part  *shard.Partition
	units []*shardUnit
	n, k  int

	mu     sync.Mutex
	closed bool // guarded by mu

	cutEdges  atomic.Int64 // edge ops delivered to two owner shards
	scattered atomic.Int64 // write requests that spanned >1 shard
}

func newRouter(p *shard.Partition, shards []*shard.Shard, opts Options) *router {
	rt := &router{
		part: p,
		n:    p.N,
		k:    shards[0].D.K(),
	}
	for _, sh := range shards {
		rt.units = append(rt.units, &shardUnit{
			sh:    sh,
			co:    NewCoalescer(sh.D, opts.Coalescer),
			index: newIndexCache(sh.D),
		})
	}
	return rt
}

// validate mirrors dyn's batch validation against the global vertex
// range before the scatter, so a malformed batch is refused whole
// instead of being rejected by every shard after siblings applied
// nothing — the range checks are the only validation every shard would
// agree on without applying.
func (rt *router) validate(b *dyn.Batch) error {
	if i := graph.FirstInvalidEdge(0, rt.n, b.Insert); i >= 0 {
		e := b.Insert[i]
		return fmt.Errorf("dyn: insert %d (%d->%d) out of range [0,%d)", i, e.U, e.V, rt.n)
	}
	if i := graph.FirstInvalidEdge(0, rt.n, b.Delete); i >= 0 {
		e := b.Delete[i]
		return fmt.Errorf("dyn: delete %d (%d->%d) out of range [0,%d)", i, e.U, e.V, rt.n)
	}
	for i, lu := range b.Labels {
		if int(lu.V) >= rt.n {
			return fmt.Errorf("dyn: label update %d: vertex %d out of range [0,%d)", i, lu.V, rt.n)
		}
		if lu.Class < labels.Unknown || int(lu.Class) >= rt.k {
			return fmt.Errorf("dyn: label update %d: class %d outside [-1,%d)", i, lu.Class, rt.k)
		}
	}
	return nil
}

// epochVector reads the current published epoch of every shard.
func (rt *router) epochVector() shard.EpochVector {
	ev := make(shard.EpochVector, len(rt.units))
	for i, u := range rt.units {
		ev[i] = u.sh.D.Epoch()
	}
	return ev
}

// submit runs one write batch to publication: validate, scatter across
// the owner shards, enqueue all-or-nothing, await every ack. The
// returned error is the admission verdict (ErrBacklog, ErrClosed); an
// apply-time rejection rides writeAck.err.
func (rt *router) submit(b dyn.Batch, tr *trace.Trace) (writeAck, error) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return writeAck{}, ErrClosed
	}
	rt.mu.Unlock()
	if err := rt.validate(&b); err != nil {
		// A validation failure is the apply-time rejection surfaced
		// early (same 400 the embedder would return), caught before the
		// scatter so no shard applies a batch a sibling would refuse.
		return writeAck{err: err}, nil
	}
	subs, cut := shard.Split(rt.part, b)
	type target struct {
		i, ops int
		b      dyn.Batch
	}
	var targets []target
	for i := range subs {
		if ops := shard.Ops(subs[i]); ops > 0 {
			targets = append(targets, target{i: i, ops: ops, b: subs[i]})
		}
	}
	if len(targets) == 0 {
		// Nothing to apply: ack immediately at the current vector, as
		// the coalescer does for an empty batch.
		ev := rt.epochVector()
		return writeAck{epoch: ev.Max(), epochs: ev}, nil
	}
	rt.cutEdges.Add(int64(cut))
	if len(targets) > 1 {
		rt.scattered.Add(1)
	}
	// The trace threads through exactly one sub-request (trace ownership
	// is single-goroutine; two ingest goroutines writing spans would
	// race): the one carrying the most operations.
	big := 0
	for j, t := range targets {
		if t.ops > targets[big].ops {
			big = j
		}
	}
	// All-or-nothing admission: lock every target coalescer in ascending
	// shard order (Split emits sub-batches in shard order, so concurrent
	// scattered writes acquire in the same order and cannot deadlock),
	// check room on all, then enqueue on all. No sub-batch can be
	// rejected — or reordered against another scattered write — after a
	// sibling was accepted.
	for _, t := range targets {
		rt.units[t.i].co.lock()
	}
	for _, t := range targets {
		if err := rt.units[t.i].co.canAcceptLocked(); err != nil {
			for _, u := range targets {
				rt.units[u.i].co.unlock()
			}
			return writeAck{}, err
		}
	}
	acks := make([]<-chan Ack, len(targets))
	for j, t := range targets {
		var sub *trace.Trace
		if j == big {
			sub = tr
		}
		acks[j] = rt.units[t.i].co.enqueueLocked(t.b, t.ops, sub)
	}
	for _, t := range targets {
		rt.units[t.i].co.unlock()
	}
	out := writeAck{epochs: make(shard.EpochVector, len(targets))}
	for j, ch := range acks {
		a := <-ch
		if a.Err != nil && out.err == nil {
			out.err = a.Err
		}
		out.epochs[targets[j].i] = a.Epoch
		if a.sent.After(out.sent) {
			out.sent = a.sent
		}
	}
	out.epoch = out.epochs.Max()
	return out, nil
}

// maxRetryAfter derives the Retry-After hint from the per-shard
// queue depths and drain rates: a scattered write is admitted only when
// every target shard has room, so the client must outwait the slowest
// shard's backlog — the max of the per-shard estimates (never below the
// 1-second floor retryAfterSeconds keeps for an empty queue).
func maxRetryAfter(depths []int, rates []float64) int {
	hint := 1
	for i, d := range depths {
		if s := retryAfterSeconds(d, rates[i]); s > hint {
			hint = s
		}
	}
	return hint
}

// retryAfter is the backoff hint for a rejected write, in seconds.
func (rt *router) retryAfter() int {
	depths := make([]int, len(rt.units))
	rates := make([]float64, len(rt.units))
	for i, u := range rt.units {
		depths[i], rates[i] = u.co.backlog()
	}
	return maxRetryAfter(depths, rates)
}

// snapshotFor returns the published version that is the authority for
// vertex v's row: its owner shard's.
func (rt *router) snapshotFor(v uint32) *dyn.Version {
	return rt.units[rt.part.Owner(graph.NodeID(v))].sh.D.Version()
}

// view pins one version per shard for a consistent batch read.
func (rt *router) view() readView {
	snaps := make([]*dyn.Version, len(rt.units))
	for i, u := range rt.units {
		snaps[i] = u.sh.D.Version()
	}
	return readView{snaps: snaps, part: rt.part}
}

// search is the scatter-gather top-k: every shard ranks its owned rows
// against the query (exact scan over its owned view, or its IVF index
// when approx and warm), partial lists shift to global ids, and the
// router merges them under the same ascending-distance, ties-by-id
// order — so a quiesced scan is id-for-id the exact scan of the whole
// matrix at any shard count. The query row always comes from the owner
// shard's live snapshot (only the owner publishes it; other shards hold
// zeros there), also when an index a few epochs older ranks it. Mode is
// "approx" when at least one shard answered from its index; IndexEpoch
// is the oldest data epoch any shard's distances were computed against.
// k is already clamped to [1, n]; v is in range.
func (rt *router) search(v uint32, k int, metric cluster.Metric, name string, approx bool, tr *trace.Trace) searchOut {
	loadRef := tr.StartSpan("snapshot-load")
	rv := rt.view()
	tr.EndSpan(loadRef)
	query := rv.row(v, make([]float64, rt.k))
	searchRef := tr.StartSpan("search")
	lists := make([][]cluster.Neighbor, len(rt.units))
	mode := "exact"
	minUsed := uint64(math.MaxUint64)
	var walked cluster.Visit // summed over the shards an index answered
	for i, u := range rt.units {
		lo, hi := rt.part.Range(i)
		exclude := -1
		if v >= lo && v < hi {
			exclude = int(v - lo)
		}
		used := rv.snaps[i].Epoch
		served := false
		var nbrs []cluster.Neighbor
		if approx {
			if idx := u.index.current(rv.snaps[i]); idx != nil {
				var vis cluster.Visit
				nbrs, vis = idx.ivf.Search(0, query, k, metric, exclude)
				walked.Lists += vis.Lists
				walked.Rows += vis.Rows
				used = idx.epoch
				mode = "approx"
				served = true
			}
		}
		if !served {
			nbrs = cluster.TopK(0, u.index.view(rv.snaps[i]), query, k, metric, exclude)
		}
		// Shard results are owned-view relative; lift to global ids.
		for j := range nbrs {
			nbrs[j].V += int(lo)
		}
		lists[i] = nbrs
		if used < minUsed {
			minUsed = used
		}
	}
	nbrs := cluster.MergeNeighbors(k, lists...)
	tr.EndSpan(searchRef)
	tr.SpanTag(searchRef, "mode", mode)
	tr.SpanTag(searchRef, "metric", name)
	tr.SpanTag(searchRef, "index_epoch", strconv.FormatUint(minUsed, 10))
	tr.SpanTag(searchRef, "shards", strconv.Itoa(len(rt.units)))
	if mode == "approx" {
		tr.SpanTag(searchRef, "lists", strconv.Itoa(walked.Lists))
		tr.SpanTag(searchRef, "rows", strconv.Itoa(walked.Rows))
	}
	ev := rv.epochs()
	return searchOut{nbrs: nbrs, mode: mode, epoch: ev.Max(), indexEpoch: minUsed, epochs: ev}
}

// section returns shard i's published version sliced down to its owned
// window, and the window's global row offset lo. A section is encoded
// exactly like a snapshot of a smaller embedder (n = hi−lo, implicit
// ids starting at lo), so the binary frame layout and client validation
// apply unchanged. Borrows the immutable version's pages — no copy.
func (rt *router) section(i int) (sec *dyn.Version, lo int) {
	ver := rt.units[i].sh.D.Version()
	l, h := rt.part.Range(i)
	lo, hi := int(l), int(h)
	return &dyn.Version{
		Epoch:    ver.Epoch,
		Instance: ver.Instance,
		Edges:    ver.Edges,
		Z:        ver.Z.Window(lo, hi),
	}, lo
}

// meta describes the partition for GET /v1/partition.
func (rt *router) meta() shard.Meta {
	m := shard.Meta{
		Shards:    len(rt.units),
		N:         rt.n,
		K:         rt.k,
		Bounds:    rt.part.Bounds(),
		Instances: make([]uint64, len(rt.units)),
		Epochs:    make(shard.EpochVector, len(rt.units)),
	}
	for i, u := range rt.units {
		m.Instances[i] = u.sh.D.Instance()
		m.Epochs[i] = u.sh.D.Epoch()
	}
	return m
}

// ready reports load-balancer readiness: a non-empty reason means 503;
// otherwise epoch is the newest published epoch reads answer from.
func (rt *router) ready() (uint64, string) {
	for i, u := range rt.units {
		if !u.co.Accepting() {
			return 0, fmt.Sprintf("shard %d: ingest coalescer not accepting writes", i)
		}
	}
	// dyn.New publishes epoch 0, so there is always a version to read.
	return rt.epochVector().Max(), ""
}

// stats aggregates across shards and appends the per-shard breakdown
// (everything except Wire — the server owns those counters). The
// aggregate LiveEdges counts a cut edge once per owner (each shard
// folds its own copy); the per-shard entries are the exact view.
func (rt *router) stats() StatsResponse {
	st := StatsResponse{
		N: rt.n, K: rt.k,
		Epochs: make(shard.EpochVector, len(rt.units)),
	}
	for i, u := range rt.units {
		lo, hi := rt.part.Range(i)
		ds := u.sh.D.Stats()
		cs := u.co.Stats()
		is := u.index.stats()
		st.Shards = append(st.Shards, ShardStats{
			Shard: i, Lo: lo, Hi: hi,
			Instance: u.sh.D.Instance(),
			Dyn:      ds, Coalescer: cs, Index: is,
		})
		st.Epochs[i] = ds.Epoch
		if ds.Epoch > st.Dyn.Epoch {
			st.Dyn.Epoch = ds.Epoch
		}
		st.Dyn.LiveEdges += ds.LiveEdges
		st.Dyn.Inserts += ds.Inserts
		st.Dyn.Deletes += ds.Deletes
		st.Dyn.LabelMoves += ds.LabelMoves
		st.Dyn.Batches += ds.Batches
		st.Dyn.ShardedFolds += ds.ShardedFolds
		st.Dyn.SerialFolds += ds.SerialFolds
		st.Dyn.Publishes += ds.Publishes
		st.Dyn.DenseViews += ds.DenseViews
		st.Coalescer.Requests += cs.Requests
		st.Coalescer.Ops += cs.Ops
		st.Coalescer.Flushes += cs.Flushes
		st.Coalescer.Coalesced += cs.Coalesced
		st.Coalescer.Replays += cs.Replays
		st.Coalescer.Rejected += cs.Rejected
		st.Index.Builds += is.Builds
		st.Index.Lists += is.Lists
		st.Index.Stale = st.Index.Stale || is.Stale
		if is.Epoch > 0 && (st.Index.Epoch == 0 || is.Epoch < st.Index.Epoch) {
			st.Index.Epoch = is.Epoch
		}
	}
	return st
}

// instrument registers every shard's embedder, coalescer, and index
// instruments under a distinct shard label — N shards' series coexist
// on one registry (gee_coalescer_queue_depth{shard="2"}) instead of
// silently aliasing the first registration's cells — plus the router's
// own scatter counters.
func (rt *router) instrument(reg *metrics.Registry) {
	for i, u := range rt.units {
		l := metrics.L("shard", strconv.Itoa(i))
		u.sh.D.Instrument(reg, l)
		u.co.instrument(reg, l)
		u.index.instrument(reg, l)
	}
	reg.GaugeFunc("gee_router_shards",
		"Number of vertex-partition shards behind this server.",
		func() float64 { return float64(len(rt.units)) })
	reg.CounterFunc("gee_router_cut_edges_total",
		"Edge operations whose endpoints live on different shards (delivered to both owners).",
		func() float64 { return float64(rt.cutEdges.Load()) })
	reg.CounterFunc("gee_router_scattered_requests_total",
		"Write requests split across more than one shard.",
		func() float64 { return float64(rt.scattered.Load()) })
}

func (rt *router) start() {
	for _, u := range rt.units {
		u.co.Start()
	}
}

func (rt *router) close() {
	rt.mu.Lock()
	rt.closed = true
	rt.mu.Unlock()
	// Drain every coalescer, then refuse further index rebuilds and wait
	// out any in-flight one (an expired ctx returns from http.Shutdown
	// with handlers still running, so late kicks must be gated, not
	// assumed impossible).
	for _, u := range rt.units {
		u.co.Close()
	}
	for _, u := range rt.units {
		u.index.close()
	}
}
