// Package server is the network serving layer of the GEE reproduction:
// it exposes a dyn.DynamicEmbedder over HTTP/JSON. Reads (embedding
// rows, snapshots, stats) are answered lock-free from the currently
// published snapshot; writes (edge inserts/deletes, label updates) go
// through an ingest coalescer that merges concurrent small client
// requests into micro-batches before they hit the embedder, so the
// batch-oriented fold paths (atomic / sharded EdgePlan) see batch-sized
// work even when every client sends one edge at a time.
//
// The coalescer is the throughput lever: per-request Apply would pay a
// lock hand-off, a serial fold and a publish (a page-table copy plus the
// dirty pages, and an epoch every follower must step through) per edge,
// while a micro-batch pays them once per hundreds or thousands of ops
// and gives the parallel fold paths enough work. Its queue is bounded —
// when clients outrun ingest, Submit fails fast (HTTP 429) instead of
// buffering without limit. Every accepted write request is acknowledged
// only after its operations are published, and the ack carries the
// published epoch, so a client that has its ack can immediately read
// its own write from any later snapshot.
package server

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dyn"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ErrBacklog is returned by Submit when the bounded request queue is
// full; HTTP handlers translate it to 429 Too Many Requests.
var ErrBacklog = errors.New("server: ingest queue full")

// ErrClosed is returned by Submit after Close; HTTP handlers translate
// it to 503 Service Unavailable.
var ErrClosed = errors.New("server: coalescer closed")

// CoalescerOptions bounds the micro-batching.
type CoalescerOptions struct {
	// MaxBatch flushes a micro-batch once it holds at least this many
	// operations (edge ops + label updates). Zero selects 4096.
	MaxBatch int
	// MaxDelay flushes a micro-batch this long after its first request
	// arrived, bounding the latency a lone small write can be held for
	// the benefit of batching. Zero selects 2ms.
	MaxDelay time.Duration
	// QueueCap bounds the request queue; a full queue rejects with
	// ErrBacklog. Zero selects 1024.
	QueueCap int
}

func (o CoalescerOptions) withDefaults() CoalescerOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4096
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Millisecond
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
	return o
}

// CoalescerStats counts what the coalescer has done. Flushes vs
// Requests is the coalescing ratio: concurrent single-op clients should
// see Flushes ≪ Requests.
type CoalescerStats struct {
	Requests  int64 // write requests accepted into the queue
	Ops       int64 // operations across accepted requests
	Flushes   int64 // merged micro-batches applied to the embedder
	Coalesced int64 // requests that shared a micro-batch with another
	Replays   int64 // requests re-applied individually after a merged-batch error
	Rejected  int64 // requests refused with ErrBacklog
}

// Ack is the completion notice for one accepted write request. When Err
// is nil the request's operations are applied and published: every
// snapshot at or after Epoch reflects them.
type Ack struct {
	Epoch uint64
	Err   error

	// sent is the instant the ingest goroutine released this ack — the
	// start of the trace's ack span (channel wake-up + handler resume).
	sent time.Time
}

// request is one queued write with its completion channel (buffered, so
// the coalescer never blocks on a departed client).
type request struct {
	batch dyn.Batch
	ops   int
	done  chan Ack
	enq   time.Time // Submit time, for the ack-wait histogram

	// Trace threading (nil tr makes every span call a no-op). The
	// trace is owned by the ingest goroutine from the queue send until
	// the done send hands it back to the submitting handler.
	tr       *trace.Trace
	queueRef trace.SpanRef // open queue-wait span, closed when the batch is collected
	foldEnd  time.Time     // end of this request's fold span = start of publish-wait
}

// Coalescer merges concurrent write requests into micro-batches and
// applies them to the embedder on a single ingest goroutine, which also
// serializes publishes. Start it before submitting; Close drains.
type Coalescer struct {
	d    *dyn.DynamicEmbedder
	opts CoalescerOptions

	mu     sync.Mutex
	closed bool // guarded by mu (as is the send into queue)
	queue  chan *request

	requests  atomic.Int64
	ops       atomic.Int64
	flushes   atomic.Int64
	coalesced atomic.Int64
	replays   atomic.Int64
	rejected  atomic.Int64

	// drainRate is the EWMA of requests drained per second (float64
	// bits; written only by the ingest goroutine, read by backlog and the
	// exposition gauge).
	drainRate atomic.Uint64

	// started flips once Start launches the ingest goroutine; together
	// with closed it backs Accepting (the /readyz signal).
	started atomic.Bool

	// pubNanos accumulates publish durations reported by the embedder's
	// publish hook. The fold path resets it before Apply and drains it
	// after, so auto-publishes that run *inside* Apply are attributed to
	// the publish span instead of inflating the fold span.
	pubNanos atomic.Int64

	// Observability instruments (nil until instrument; each use is
	// nil-guarded so an uninstrumented coalescer pays nothing).
	mBatchOps *metrics.Histogram // ops per merged micro-batch
	mFold     *metrics.Histogram // Apply (fold) latency per flush
	mAckWait  *metrics.Histogram // Submit-to-ack wall time per request

	pendingOps int // ops applied but unacked (ingest goroutine only)
	loopDone   chan struct{}
}

// NewCoalescer prepares a coalescer over the embedder. The returned
// coalescer is idle: requests queue up (to QueueCap) but nothing is
// applied until Start.
func NewCoalescer(d *dyn.DynamicEmbedder, opts CoalescerOptions) *Coalescer {
	opts = opts.withDefaults()
	c := &Coalescer{
		d:        d,
		opts:     opts,
		queue:    make(chan *request, opts.QueueCap),
		loopDone: make(chan struct{}),
	}
	d.SetPublishHook(func(_ uint64, dur time.Duration) {
		c.pubNanos.Add(int64(dur))
	})
	return c
}

// Start launches the ingest goroutine. Call exactly once.
func (c *Coalescer) Start() {
	c.started.Store(true)
	go c.run()
}

// Accepting reports whether the coalescer is taking writes: started
// and not yet closed. This is the write-path half of GET /readyz.
func (c *Coalescer) Accepting() bool {
	if !c.started.Load() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed
}

// Close stops intake (subsequent Submits fail with ErrClosed), drains
// and applies everything already queued, publishes, and acknowledges
// every pending request before returning.
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.loopDone
		return
	}
	c.closed = true
	close(c.queue)
	c.mu.Unlock()
	<-c.loopDone
}

// Stats returns a copy of the counters. Load order matters for a
// consistent snapshot under concurrent writers: every derived counter
// (flushes, coalesced, replays) increments strictly after the requests
// it covers, and ops increments before requests in Submit — so loading
// the derived counters first, then requests, then ops, guarantees the
// scraped view satisfies Coalesced ≤ Requests, Flushes ≤ Requests, and
// Ops ≥ Requests (each accepted request carries ≥ 1 op).
func (c *Coalescer) Stats() CoalescerStats {
	s := CoalescerStats{
		Flushes:   c.flushes.Load(),
		Coalesced: c.coalesced.Load(),
		Replays:   c.replays.Load(),
		Rejected:  c.rejected.Load(),
	}
	s.Requests = c.requests.Load()
	s.Ops = c.ops.Load()
	return s
}

// instrument registers the coalescer's instruments. The counters reuse
// the existing atomic cells via sampled callbacks, so /statsz and
// /metrics can never disagree. The router passes a distinct shard label
// per coalescer (gee_coalescer_queue_depth{shard="2"}), so N
// coalescers' series coexist on one registry instead of silently
// aliasing the first registration's cells.
func (c *Coalescer) instrument(reg *metrics.Registry, labels ...metrics.Label) {
	c.mBatchOps = reg.Histogram("gee_coalescer_batch_ops",
		"Operations per merged micro-batch flushed to the embedder.",
		metrics.DefCountBuckets, labels...)
	c.mFold = reg.Histogram("gee_coalescer_fold_seconds",
		"Latency of folding one micro-batch into the embedder (dyn.Apply).",
		metrics.DefLatencyBuckets, labels...)
	c.mAckWait = reg.Histogram("gee_coalescer_ack_wait_seconds",
		"Submit-to-ack wall time per accepted write request (queue wait + fold + covering publish).",
		metrics.DefLatencyBuckets, labels...)
	reg.GaugeFunc("gee_coalescer_queue_depth",
		"Write requests waiting in the bounded ingest queue.",
		func() float64 { return float64(len(c.queue)) }, labels...)
	reg.GaugeFunc("gee_coalescer_queue_cap",
		"Capacity of the ingest queue (Submit rejects with 429 beyond it).",
		func() float64 { return float64(c.opts.QueueCap) }, labels...)
	reg.GaugeFunc("gee_coalescer_drain_rate",
		"EWMA of write requests drained from the queue per second.",
		func() float64 { return math.Float64frombits(c.drainRate.Load()) }, labels...)
	reg.CounterFunc("gee_coalescer_requests_total",
		"Write requests accepted into the ingest queue.",
		func() float64 { return float64(c.requests.Load()) }, labels...)
	reg.CounterFunc("gee_coalescer_ops_total",
		"Operations across accepted write requests.",
		func() float64 { return float64(c.ops.Load()) }, labels...)
	reg.CounterFunc("gee_coalescer_flushes_total",
		"Merged micro-batches applied to the embedder.",
		func() float64 { return float64(c.flushes.Load()) }, labels...)
	reg.CounterFunc("gee_coalescer_coalesced_total",
		"Requests that shared a micro-batch with another request.",
		func() float64 { return float64(c.coalesced.Load()) }, labels...)
	reg.CounterFunc("gee_coalescer_replays_total",
		"Requests re-applied individually after a merged-batch error.",
		func() float64 { return float64(c.replays.Load()) }, labels...)
	reg.CounterFunc("gee_coalescer_rejected_total",
		"Requests refused with 429 because the queue was full.",
		func() float64 { return float64(c.rejected.Load()) }, labels...)
}

// Submit enqueues one write request without blocking. The returned
// channel delivers exactly one Ack once the request's operations are
// published (or rejected by validation). A batch with no operations is
// acknowledged immediately at the current epoch.
func (c *Coalescer) Submit(b dyn.Batch) (<-chan Ack, error) {
	return c.SubmitTraced(b, nil)
}

// SubmitTraced is Submit carrying the request's trace. The coalescer
// opens the queue-wait span here and records fold and publish-wait
// spans as the request moves through the pipeline; ownership of tr
// transfers to the ingest goroutine on enqueue and returns to the
// caller with the ack (both handoffs synchronize via channels). A nil
// tr degrades to plain Submit.
func (c *Coalescer) SubmitTraced(b dyn.Batch, tr *trace.Trace) (<-chan Ack, error) {
	ops := len(b.Insert) + len(b.Delete) + len(b.Labels)
	if ops == 0 {
		done := make(chan Ack, 1)
		done <- Ack{Epoch: c.d.Epoch(), sent: time.Now()}
		return done, nil
	}
	c.lock()
	defer c.unlock()
	if err := c.canAcceptLocked(); err != nil {
		return nil, err
	}
	return c.enqueueLocked(b, ops, tr), nil
}

// lock/unlock expose the coalescer's mutex to the router, which must
// hold every target shard's lock at once to make a scattered write
// all-or-nothing: with all locks held it checks room on every shard,
// then enqueues on every shard, so no sub-batch can be rejected (or
// reordered against another scattered write) after a sibling was
// accepted. Submit is the same sequence over one coalescer.
func (c *Coalescer) lock()   { c.mu.Lock() }
func (c *Coalescer) unlock() { c.mu.Unlock() }

// canAcceptLocked is the one admission decision: ErrClosed after Close,
// ErrBacklog when the queue is full (counted here, so a refusal shows
// in Rejected whichever path asked), nil otherwise. Callers hold c.mu
// (see lock).
func (c *Coalescer) canAcceptLocked() error {
	if c.closed {
		return ErrClosed
	}
	if len(c.queue) == cap(c.queue) {
		c.rejected.Add(1)
		return ErrBacklog
	}
	return nil
}

// enqueueLocked enqueues one request that canAcceptLocked already
// admitted; the send cannot block because the room check and this send
// happen under one continuous hold of c.mu. Callers hold c.mu.
func (c *Coalescer) enqueueLocked(b dyn.Batch, ops int, tr *trace.Trace) <-chan Ack {
	done := make(chan Ack, 1)
	req := &request{batch: b, ops: ops, done: done, enq: time.Now(), tr: tr}
	req.queueRef = tr.StartSpanAt("queue", req.enq)
	c.queue <- req
	// Ops before requests: a concurrent Stats/scrape loads requests
	// before ops, so this order keeps Ops ≥ Requests in every
	// observable snapshot.
	c.ops.Add(int64(ops))
	c.requests.Add(1)
	return done
}

// run is the ingest loop: collect a micro-batch (size- and
// latency-bounded), apply it, and acknowledge once published.
func (c *Coalescer) run() {
	defer close(c.loopDone)
	var pending []*request // applied, awaiting a covering publish
	for {
		first, ok := <-c.queue
		if !ok {
			c.settle(pending, true)
			return
		}
		t0 := time.Now()
		reqs := []*request{first}
		ops := first.ops
		timer := time.NewTimer(c.opts.MaxDelay)
	collect:
		for ops < c.opts.MaxBatch {
			select {
			case r, ok := <-c.queue:
				if !ok {
					break collect
				}
				reqs = append(reqs, r)
				ops += r.ops
			case <-timer.C:
				break collect
			}
		}
		timer.Stop()
		pending = c.apply(reqs, pending)
		pending = c.settle(pending, len(c.queue) == 0)
		c.observeDrain(len(reqs), time.Since(t0))
	}
}

// apply folds one micro-batch. The merged fast path applies all
// requests as a single dyn.Batch; if the merged batch is rejected
// (e.g. one request deletes an edge another request in the same
// micro-batch is still inserting — dyn orders deletions first — or a
// single request carries an invalid op), each request is replayed
// individually in arrival order so only the offenders fail.
func (c *Coalescer) apply(reqs []*request, pending []*request) []*request {
	t0 := time.Now()
	for _, r := range reqs {
		// One clock reading closes every queue span and opens the fold
		// span, so the stages stay contiguous: their sum is exactly the
		// enqueue-to-ack wall time.
		r.tr.EndSpanAt(r.queueRef, t0)
	}
	if len(reqs) == 1 {
		c.flushes.Add(1)
		c.observeBatch(reqs[0].ops)
		err := c.fold(reqs[0].batch)
		foldEnd := c.foldSpans(reqs, t0, reqs[0].ops, err)
		if err != nil {
			reqs[0].done <- Ack{Err: err, sent: time.Now()}
			return pending
		}
		reqs[0].foldEnd = foldEnd
		c.pendingOps += reqs[0].ops
		return append(pending, reqs[0])
	}
	var merged dyn.Batch
	ops := 0
	for _, r := range reqs {
		merged.Insert = append(merged.Insert, r.batch.Insert...)
		merged.Delete = append(merged.Delete, r.batch.Delete...)
		merged.Labels = append(merged.Labels, r.batch.Labels...)
		ops += r.ops
	}
	c.flushes.Add(1)
	c.observeBatch(ops)
	err := c.fold(merged)
	foldEnd := c.foldSpans(reqs, t0, ops, err)
	if err == nil {
		c.coalesced.Add(int64(len(reqs)))
		for _, r := range reqs {
			r.foldEnd = foldEnd
			c.pendingOps += r.ops
		}
		return append(pending, reqs...)
	}
	for _, r := range reqs {
		c.replays.Add(1)
		rt0 := time.Now()
		err := c.fold(r.batch)
		rEnd := c.foldSpans([]*request{r}, rt0, r.ops, err)
		if err != nil {
			r.done <- Ack{Err: err, sent: time.Now()}
			continue
		}
		r.foldEnd = rEnd
		c.pendingOps += r.ops
		pending = append(pending, r)
	}
	return pending
}

// foldSpans records a fold span on every request in the batch, ending
// at now minus whatever publish time the embedder's hook reported
// during the Apply — auto-publish runs inside Apply, and charging it
// to the fold would leave the publish-wait span empty. Returns the
// fold end instant (= publish-wait start). The span tags record the
// coalescing: how many requests and ops shared this fold.
func (c *Coalescer) foldSpans(reqs []*request, start time.Time, ops int, err error) time.Time {
	end := time.Now()
	pub := time.Duration(c.pubNanos.Swap(0))
	if pub < 0 {
		pub = 0
	}
	if window := end.Sub(start); pub > window {
		pub = window
	}
	foldEnd := end.Add(-pub)
	for _, r := range reqs {
		ref := r.tr.AddSpan("fold", start, foldEnd)
		r.tr.SpanTag(ref, "batch_requests", strconv.Itoa(len(reqs)))
		r.tr.SpanTag(ref, "batch_ops", strconv.Itoa(ops))
		if err != nil {
			r.tr.SpanTag(ref, "error", err.Error())
		}
	}
	return foldEnd
}

// fold applies one batch to the embedder, timing it when instrumented.
func (c *Coalescer) fold(b dyn.Batch) error {
	if c.mFold == nil {
		return c.d.Apply(b)
	}
	t0 := time.Now()
	err := c.d.Apply(b)
	c.mFold.ObserveSince(t0)
	return err
}

func (c *Coalescer) observeBatch(ops int) {
	if c.mBatchOps != nil {
		c.mBatchOps.Observe(float64(ops))
	}
}

// observeDrain folds one batch window (collect + fold + settle) into
// the drain-rate EWMA. Smoothing 0.2 makes the rate settle over ~5
// windows — fast enough to track a load shift, slow enough that one
// slow publish does not swing Retry-After.
func (c *Coalescer) observeDrain(reqs int, elapsed time.Duration) {
	sec := elapsed.Seconds()
	if sec <= 0 {
		return
	}
	inst := float64(reqs) / sec
	prev := math.Float64frombits(c.drainRate.Load())
	next := inst
	if prev > 0 {
		next = 0.2*inst + 0.8*prev
	}
	c.drainRate.Store(math.Float64bits(next))
}

// retryAfterSeconds derives a Retry-After hint from the queue depth and
// the drain rate: roughly how long until the backlog clears, clamped to
// [1, 30] seconds. With no drain observed yet (cold or stalled ingest)
// a non-empty queue advises the maximum.
func retryAfterSeconds(depth int, rate float64) int {
	const minRetry, maxRetry = 1, 30
	if rate <= 0 {
		if depth > 0 {
			return maxRetry
		}
		return minRetry
	}
	s := int(math.Ceil(float64(depth) / rate))
	if s < minRetry {
		return minRetry
	}
	if s > maxRetry {
		return maxRetry
	}
	return s
}

// backlog reports the queue depth and the drain-rate EWMA, the two
// inputs of the Retry-After hint (see retryAfterSeconds).
func (c *Coalescer) backlog() (depth int, rate float64) {
	return len(c.queue), math.Float64frombits(c.drainRate.Load())
}

// settle acknowledges applied requests once a publish covers them. If
// the embedder auto-published during apply (the per-Apply default) the
// current epoch already covers everything applied; under ManualPublish
// a publish is forced once the queue is idle (or the pending ops have
// grown past MaxBatch), so acks are never deferred behind an
// arbitrarily long backlog.
func (c *Coalescer) settle(pending []*request, idle bool) []*request {
	if len(pending) == 0 {
		return pending
	}
	// PendingOps == 0 means every applied op — ours included — is
	// covered by some already-published epoch, so any snapshot loaded
	// *after* that check is at or past it (epochs are monotonic; this
	// ordering stays sound even when another writer publishes
	// concurrently). PendingOps > 0 may also be another writer's
	// unpublished ops; publishing ours along with them is harmless.
	var epoch uint64
	if c.d.PendingOps() > 0 {
		if !idle && c.pendingOps < c.opts.MaxBatch {
			return pending
		}
		epoch = c.d.Publish().Epoch
		// The forced publish above reported into pubNanos; drain it so
		// the next window's fold span does not subtract it again (the
		// publish-wait spans recorded below already cover it).
		c.pubNanos.Store(0)
	} else {
		// Only the number is needed: the O(1) accessor, never the
		// contiguous snapshot (an ack must not gather n×K floats).
		epoch = c.d.Epoch()
	}
	now := time.Now()
	epochTag := strconv.FormatUint(epoch, 10)
	for _, r := range pending {
		if c.mAckWait != nil {
			c.mAckWait.Observe(now.Sub(r.enq).Seconds())
		}
		if r.tr != nil {
			ref := r.tr.AddSpan("publish", r.foldEnd, now)
			r.tr.SpanTag(ref, "epoch", epochTag)
		}
		r.done <- Ack{Epoch: epoch, sent: now}
	}
	c.pendingOps = 0
	return pending[:0]
}
