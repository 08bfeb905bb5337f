package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/shard"
)

// target is the system under test for the serving workloads: the
// repository's server over its dynamic embedder (or shard set), on a
// real loopback TCP listener.
type target struct {
	srv    *server.Server
	url    string
	served chan error
	// Exactly one of d and shards is set.
	d      *dyn.DynamicEmbedder
	part   *shard.Partition
	shards []*shard.Shard
}

// startTarget is the serving workloads' system set-up: build the
// embedder (or nShards of them), preload the base graph through
// dyn.Apply, start the server and listen. It returns the running
// target and how long that took.
func startTarget(tr *tracer, parent int, base baseGraph, nShards int) (*target, float64, error) {
	start := time.Now()
	t := &target{served: make(chan error, 1)}
	var err error
	preload := dyn.Batch{Insert: base.edges}
	if nShards > 1 {
		tr.timed("shard", "NewShards", parent, func() {
			if t.part, err = shard.NewPartition(base.n, nShards); err == nil {
				t.shards, err = shard.NewShards(t.part, base.y, dyn.Options{K: base.k})
			}
		})
		if err != nil {
			return nil, 0, err
		}
		var subs []dyn.Batch
		tr.timed("shard", "Split(preload)", parent, func() { subs, _ = shard.Split(t.part, preload) })
		for i, sh := range t.shards {
			tr.timed("dyn", "Apply(preload)", parent, func() { err = sh.D.Apply(subs[i]) })
			if err != nil {
				return nil, 0, err
			}
		}
		tr.timed("server", "NewSharded", parent, func() { t.srv = server.NewSharded(t.part, t.shards, server.Options{}) })
	} else {
		tr.timed("dyn", "New", parent, func() { t.d, err = dyn.New(base.n, base.y, dyn.Options{K: base.k}) })
		if err != nil {
			return nil, 0, err
		}
		tr.timed("dyn", "Apply(preload)", parent, func() { err = t.d.Apply(preload) })
		if err != nil {
			return nil, 0, err
		}
		tr.timed("server", "New", parent, func() { t.srv = server.New(t.d, server.Options{}) })
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = t.srv.Close()
		return nil, 0, err
	}
	t.url = "http://" + ln.Addr().String()
	go func() { t.served <- t.srv.Serve(ln) }()
	return t, time.Since(start).Seconds(), nil
}

// stop shuts the server down and waits for its accept loop to end.
func (t *target) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	if serr := <-t.served; err == nil {
		err = serr
	}
	return err
}

// conn is one load client: the repository's typed client over its own
// HTTP connection pool.
type conn struct {
	*client.Client
	transport *http.Transport
}

func dial(url string, wire client.Format) conn {
	tp := &http.Transport{MaxIdleConnsPerHost: 2}
	return conn{client.New(url, &http.Client{Transport: tp}, client.WithWire(wire)), tp}
}

func (c conn) close() {
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
}

// opLog is what one load client observed.
type opLog struct {
	latencies []float64 // seconds per request, in script order
	acked     int       // operations acknowledged
	failed    int       // requests refused, errored or invalid
	syncs     []float64 // seconds per Replica.Sync
	resynced  []bool    // whether that sync transferred a full snapshot
	err       error     // first error, for the report
}

func (l *opLog) fail(err error) {
	l.failed++
	if l.err == nil {
		l.err = err
	}
}

// serveRun is the outcome of one timed section.
type serveRun struct {
	logs     []opLog
	wall     float64 // seconds inside segments, calibration pauses excluded
	rss      float64
	requests int
	failed   int
	acked    int
	// The same section in oracle passes (see closedLoop): every time
	// divided by the time of the oracle passes next to it.
	wallPasses   float64
	latencies    []float64 // seconds per request, all clients
	relLatencies []float64 // the same, in passes
	oracle       []float64 // seconds per pass, one reading per segment boundary
}

// maxSegments bounds how many segments a timed section is cut into;
// minSegmentRequests keeps each long enough for its own median.
const (
	maxSegments        = 30
	minSegmentRequests = 20
	calibrationPasses  = 3
)

// closedLoop runs the timed section of a serving workload: every client
// sends its requests 0..requests-1 in order, the next only when the
// previous one has completed. The section is cut into equal-work
// segments; between two segments the clients are idle and the frozen
// oracle embeds the base graph a few times. A segment's times are then
// counted in passes: divided by the mean of the oracle readings before
// and after it. On a shared VM the memory system changes speed by a
// third within seconds while plain arithmetic does not; the oracle
// pass, interleaved this finely, follows most of that (see README.md).
// The raw times are kept beside the relative ones.
func (s *serving) closedLoop(clients, requests, parent int, send func(c, i int, log *opLog)) serveRun {
	run := serveRun{
		logs:         make([]opLog, clients),
		latencies:    make([]float64, 0, clients*requests),
		relLatencies: make([]float64, 0, clients*requests),
	}
	for c := range run.logs {
		run.logs[c].latencies = make([]float64, 0, requests)
	}
	segments := min(maxSegments, max(1, requests/minSegmentRequests))
	pass := func() float64 {
		ts := make([]float64, calibrationPasses)
		for i := range ts {
			ts[i] = s.cfg.tr.timed("oracle", "embed", parent, func() { _ = s.o.embed() })
		}
		return median(ts)
	}
	run.oracle = append(run.oracle, pass())
	for seg := 0; seg < segments; seg++ {
		lo, hi := seg*requests/segments, (seg+1)*requests/segments
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					send(c, i, &run.logs[c])
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start).Seconds()
		run.oracle = append(run.oracle, pass())
		onePass := (run.oracle[seg] + run.oracle[seg+1]) / 2
		run.wall += wall
		run.wallPasses += wall / onePass
		for c := range run.logs {
			for _, l := range run.logs[c].latencies[lo:hi] {
				run.latencies = append(run.latencies, l)
				run.relLatencies = append(run.relLatencies, l/onePass)
			}
		}
	}
	run.rss = peakRSSMB()
	for i := range run.logs {
		l := &run.logs[i]
		run.requests += len(l.latencies)
		run.failed += l.failed
		run.acked += l.acked
	}
	return run
}

// firstErr returns the first error any client saw.
func (r *serveRun) firstErr() error {
	for i := range r.logs {
		if r.logs[i].err != nil {
			return r.logs[i].err
		}
	}
	return nil
}

// writer plays one client's write script, one request per call. acked
// records which requests were acknowledged, so the final check replays
// exactly those.
type writer struct {
	ctx    context.Context
	tr     *tracer
	parent int
	id     int
	c      conn
	rep    *client.Replica // synced after requests marked sync; nil without a follower
	ops    []writeOp
	acked  []bool
}

func (w *writer) send(i int, log *opLog) {
	op := &w.ops[i]
	request := w.id*len(w.ops) + i + 1
	var err error
	sp := w.tr.begin("client", routeName[op.kind], w.parent, request)
	start := time.Now()
	switch op.kind {
	case opInsert:
		_, err = w.c.InsertEdges(w.ctx, op.edges)
	case opDelete:
		if !w.acked[op.undo] {
			err = errors.New("delete of a batch whose insert was not acknowledged")
			break
		}
		_, err = w.c.DeleteEdges(w.ctx, op.edges)
	case opLabels:
		_, err = w.c.UpdateLabels(w.ctx, op.labels)
	}
	log.latencies = append(log.latencies, time.Since(start).Seconds())
	sp.end()
	if err != nil {
		log.fail(fmt.Errorf("%s request %d: %w", routeName[op.kind], i, err))
	} else {
		w.acked[i] = true
		log.acked += op.ops()
	}
	if op.sync && w.rep != nil {
		sp := w.tr.begin("client", "Replica.Sync", w.parent, request)
		start := time.Now()
		resynced, err := w.rep.Sync(w.ctx)
		log.syncs = append(log.syncs, time.Since(start).Seconds())
		log.resynced = append(log.resynced, resynced)
		sp.end()
		if err != nil {
			log.fail(fmt.Errorf("sync after request %d: %w", i, err))
		}
	}
}

// routeName names the request spans after the server's routes.
var routeName = map[opKind]string{
	opInsert: "POST /v1/edges",
	opDelete: "DELETE /v1/edges",
	opLabels: "POST /v1/labels",
}

// replay folds the acknowledged requests of a script into the live
// edge multiset and the label vector, the oracle's inputs.
func replay(live liveEdges, y []int32, ops []writeOp, acked []bool) {
	for i := range ops {
		if !acked[i] {
			continue
		}
		switch ops[i].kind {
		case opInsert:
			live.insert(ops[i].edges)
		case opDelete:
			live.remove(ops[i].edges)
		case opLabels:
			for _, l := range ops[i].labels {
				y[l.V] = l.Class
			}
		}
	}
}

// fetchEmbedding reads the served embedding through the public HTTP
// surface as exact float64 JSON: /v1/snapshot, or its per-shard
// sections assembled.
func fetchEmbedding(ctx context.Context, c conn, n, k int) (z []float64, y []int32, err error) {
	z = make([]float64, n*k)
	y = make([]int32, n)
	store := func(snap *server.SnapshotResponse, lo int) error {
		if snap.K != k || lo+len(snap.Z) > n || len(snap.Y) != len(snap.Z) {
			return fmt.Errorf("snapshot section of %d rows × %d at %d does not fit %d × %d", len(snap.Z), snap.K, lo, n, k)
		}
		for i, row := range snap.Z {
			copy(z[(lo+i)*k:(lo+i+1)*k], row)
			y[lo+i] = snap.Y[i]
		}
		return nil
	}
	meta, err := c.Partition(ctx)
	if err != nil {
		return nil, nil, err
	}
	if meta.Shards <= 1 {
		snap, err := c.Snapshot(ctx)
		if err != nil {
			return nil, nil, err
		}
		if len(snap.Z) != n {
			return nil, nil, fmt.Errorf("snapshot has %d rows, want %d", len(snap.Z), n)
		}
		return z, y, store(&snap, 0)
	}
	for s := 0; s < meta.Shards; s++ {
		snap, err := c.SnapshotShard(ctx, s)
		if err != nil {
			return nil, nil, err
		}
		if err := store(&snap, int(meta.Bounds[s])); err != nil {
			return nil, nil, err
		}
	}
	return z, y, nil
}

// checkServed compares the served embedding with the oracle's embedding
// of the base graph plus the acknowledged live edges under the final
// labels.
func checkServed(ctx context.Context, c conn, base baseGraph, live liveEdges, y []int32) error {
	got, gotY, err := fetchEmbedding(ctx, c, base.n, base.k)
	if err != nil {
		return fmt.Errorf("reading the served embedding: %w", err)
	}
	for v := range y {
		if gotY[v] != y[v] {
			return fmt.Errorf("served label of vertex %d is %d, want %d", v, gotY[v], y[v])
		}
	}
	edges := append(append([]graph.Edge(nil), base.edges...), live.list()...)
	want := newOracle(base.n, base.k, edges, y).embed()
	return checkEmbedding("served embedding", got, want)
}

// serving carries what the serving workloads share: the inputs, the
// oracle over the base graph and the running target.
type serving struct {
	cfg     runConfig
	res     *result
	base    baseGraph
	o       *oracle
	nShards int
	warm    func(ctx context.Context, t *target) error // extra set-up: index warm-up, replica bootstrap
	inputs  float64                                    // seconds of input generation
	setups  []float64
	t       *target
	setup   openSpan
	follow  *followStats // ingest_follow only
	reads   bool         // serve_read: the timed section sends no writes
}

// beginServing generates the base graph, builds the oracle over it and
// performs the first system set-up.
func beginServing(name string, cfg runConfig, nShards int, warm func(ctx context.Context, t *target) error) (*serving, error) {
	s := &serving{cfg: cfg, res: newResult(name, cfg), nShards: nShards, warm: warm}
	s.setup = cfg.tr.begin("bench", "setup", 0, 0)
	s.base = makeBase(cfg.size, cfg.seed)
	s.o = newOracle(s.base.n, s.base.k, s.base.edges, s.base.y)
	s.inputs = time.Since(processStart).Seconds()
	if err := s.setUp(s.setup.id()); err != nil {
		return nil, err
	}
	s.setup.end()
	return s, nil
}

// setUp performs one system set-up and records its duration.
func (s *serving) setUp(parent int) error {
	t, d, err := startTarget(s.cfg.tr, parent, s.base, s.nShards)
	if err != nil {
		return err
	}
	s.t = t
	if s.warm != nil {
		start := time.Now()
		if err := s.warm(context.Background(), t); err != nil {
			_ = t.stop()
			return err
		}
		d += time.Since(start).Seconds()
	}
	s.setups = append(s.setups, d)
	return nil
}

// finish runs after the timed section and the check: the layer
// metrics of a traced run, the repeated set-ups, and the end-to-end
// metrics.
func (s *serving) finish(run serveRun, checkErr error) (*result, error) {
	res := s.res
	res.attempted, res.failed = run.requests, run.failed
	if err := run.firstErr(); err != nil && checkErr == nil {
		checkErr = err
	}
	if checkErr != nil {
		res.checkErr, res.failed = checkErr, res.attempted
	}
	if s.cfg.tr != nil {
		if err := serveLayerMetrics(s, run); err != nil {
			return nil, err
		}
	}
	if err := s.t.stop(); err != nil {
		return nil, err
	}
	for len(s.setups) < s.cfg.size.setups {
		runtime.GC()
		if err := s.setUp(0); err != nil {
			return nil, err
		}
		if err := s.t.stop(); err != nil {
			return nil, err
		}
	}
	if s.cfg.tr != nil {
		return res, nil
	}
	rel, n := run.relLatencies, len(run.latencies)
	tail, q, err := tailPercentile(rel)
	if err != nil {
		return nil, err
	}
	rawTail, _ := percentile(run.latencies, q)
	res.metrics["speedup_x"] = 1 / median(rel)
	res.metrics["ops_per_pass"] = float64(run.acked) / run.wallPasses
	res.metrics["op_tail_x"] = tail / median(rel)
	res.metrics["rss_mb"] = run.rss
	res.metrics["setup_s"] = s.inputs + median(s.setups)
	res.notes["speedup_x"] = fmt.Sprintf("one oracle embed of the base graph / one request, n=%d; raw median %.3fms against a pass of %.3fms (%d readings)",
		n, median(run.latencies)*1e3, median(run.oracle)*1e3, len(run.oracle))
	res.notes["ops_per_pass"] = fmt.Sprintf("%d acknowledged operations in %.1f passes; raw %.2fs, %.0f operations/s", run.acked, run.wallPasses, run.wall, float64(run.acked)/run.wall)
	res.notes["op_tail_x"] = fmt.Sprintf("p%g / median of one request, n=%d; raw p%g %.3fms", q*100, n, q*100, rawTail*1e3)
	res.notes["setup_s"] = fmt.Sprintf("inputs %.2fs + median of %d system set-ups", s.inputs, len(s.setups))
	return res, nil
}

func runServeWrite(cfg runConfig) (*result, error) { return serveWrite("serve_write", cfg, 1) }
func runServeWriteSharded(cfg runConfig) (*result, error) {
	return serveWrite("serve_write_sharded", cfg, 2)
}

func serveWrite(name string, cfg runConfig, nShards int) (*result, error) {
	scripts := writeScripts(cfg.size, cfg.seed)
	s, err := beginServing(name, cfg, nShards, nil)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	conns := make([]conn, len(scripts))
	for c := range conns {
		conns[c] = dial(s.t.url, client.JSON)
		defer conns[c].close()
	}
	timed := cfg.tr.begin("bench", "timed", 0, 0)
	writers := make([]*writer, len(scripts))
	for c := range writers {
		writers[c] = &writer{ctx: ctx, tr: cfg.tr, parent: timed.id(), id: c, c: conns[c], ops: scripts[c], acked: make([]bool, len(scripts[c]))}
	}
	run := s.closedLoop(len(scripts), cfg.size.writeRequests, timed.id(), func(c, i int, log *opLog) { writers[c].send(i, log) })
	timed.end()

	live, y := liveEdges{}, append([]int32(nil), s.base.y...)
	for _, w := range writers {
		replay(live, y, w.ops, w.acked)
	}
	s.res.notes["scripts"] = fmt.Sprintf("%d clients × %d requests of %d edges", len(scripts), cfg.size.writeRequests, cfg.size.writeBatch)
	return s.finish(run, checkServed(ctx, conns[0], s.base, live, y))
}

// approxQuery is serve_read's one request type.
func approxQuery(v uint32) server.NeighborsRequest {
	return server.NeighborsRequest{V: v, K: 10, Metric: "l2", Mode: "approx"}
}

// warmIndex queries until the approximate index answers at the
// published epoch: the first approximate query starts the build, and
// until it lands the server answers from the exact scan.
func warmIndex(ctx context.Context, t *target) error {
	c := dial(t.url, client.JSON)
	defer c.close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := c.Neighbors(ctx, approxQuery(0))
		if err != nil {
			return err
		}
		if resp.Mode == "approx" && resp.IndexEpoch == resp.Epoch {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("index never caught up: mode %s, index epoch %d, published %d", resp.Mode, resp.IndexEpoch, resp.Epoch)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// minRecall is the recall@10 serve_read's check demands.
const minRecall = 0.9

func runServeRead(cfg runConfig) (*result, error) {
	scripts := readScripts(cfg.size, cfg.seed)
	s, err := beginServing("serve_read", cfg, 1, warmIndex)
	if err != nil {
		return nil, err
	}
	s.reads = true
	ctx := context.Background()
	conns := make([]conn, len(scripts))
	for c := range conns {
		conns[c] = dial(s.t.url, client.JSON)
		defer conns[c].close()
	}
	timed := cfg.tr.begin("bench", "timed", 0, 0)
	run := s.closedLoop(len(scripts), cfg.size.readQueries, timed.id(), func(c, i int, log *opLog) {
		sp := cfg.tr.begin("client", "POST /v1/neighbors", timed.id(), c*len(scripts[c])+i+1)
		start := time.Now()
		resp, err := conns[c].Neighbors(ctx, approxQuery(scripts[c][i]))
		log.latencies = append(log.latencies, time.Since(start).Seconds())
		sp.end()
		switch {
		case err != nil:
			log.fail(fmt.Errorf("query %d: %w", i, err))
		case resp.Mode != "approx":
			log.fail(fmt.Errorf("query %d answered in mode %q, want approx", i, resp.Mode))
		default:
			log.acked++
		}
	})
	timed.end()

	recall, err := measureRecall(ctx, conns[0], s.base, cfg)
	if err == nil && recall < minRecall {
		err = fmt.Errorf("recall@10 %.3f is below %.2f", recall, minRecall)
	}
	if cfg.tr != nil {
		s.res.metrics["cluster.recall_at_10"] = recall
	}
	s.res.notes["scripts"] = fmt.Sprintf("%d clients × %d queries, recall@10 %.3f", len(scripts), cfg.size.readQueries, recall)
	return s.finish(run, err)
}

// measureRecall compares approximate answers with the frozen exact scan
// over the served embedding on sampled queries. A returned neighbour
// counts as a hit when it is no farther than the true k-th neighbour
// (ties at the boundary are interchangeable).
func measureRecall(ctx context.Context, c conn, base baseGraph, cfg runConfig) (float64, error) {
	z, _, err := fetchEmbedding(ctx, c, base.n, base.k)
	if err != nil {
		return 0, err
	}
	r := newRNG(cfg.seed, 1<<46)
	total := 0.0
	for q := 0; q < cfg.size.recallProbe; q++ {
		v := r.intn(base.n)
		resp, err := c.Neighbors(ctx, approxQuery(uint32(v)))
		if err != nil {
			return 0, err
		}
		exact := exactTopK(z, base.k, v, 10)
		kth := exact[len(exact)-1]
		hits := 0
		for _, nb := range resp.Neighbors {
			if nb.Dist*nb.Dist <= kth+1e-12+1e-9*kth {
				hits++
			}
		}
		total += float64(min(hits, len(exact))) / float64(len(exact))
	}
	return total / float64(cfg.size.recallProbe), nil
}

func runIngestFollow(cfg runConfig) (*result, error) {
	script := followScript(cfg.size, cfg.seed)
	var rep *client.Replica
	var repConn conn
	bootstrap := func(ctx context.Context, t *target) error {
		repConn.close()
		repConn = dial(t.url, client.Binary)
		rep = client.NewReplica(repConn.Client)
		return rep.Bootstrap(ctx)
	}
	s, err := beginServing("ingest_follow", cfg, 1, bootstrap)
	if err != nil {
		return nil, err
	}
	defer func() { repConn.close() }()
	ctx := context.Background()
	wconn := dial(s.t.url, client.JSON)
	defer wconn.close()
	before := rep.Stats()

	timed := cfg.tr.begin("bench", "timed", 0, 0)
	w := &writer{ctx: ctx, tr: cfg.tr, parent: timed.id(), c: wconn, rep: rep, ops: script, acked: make([]bool, len(script))}
	run := s.closedLoop(1, len(script), timed.id(), func(_, i int, log *opLog) { w.send(i, log) })
	timed.end()
	s.follow = &followStats{before: before, after: rep.Stats(), log: &run.logs[0]}

	live, y := liveEdges{}, append([]int32(nil), s.base.y...)
	replay(live, y, script, w.acked)
	checkErr := checkReplica(ctx, repConn, rep, s.base)
	if checkErr == nil {
		checkErr = checkServed(ctx, wconn, s.base, live, y)
	}
	s.res.notes["scripts"] = fmt.Sprintf("1 client × %d cycles of %d edges, %d syncs", cfg.size.followCycles, cfg.size.followBatch, len(run.logs[0].syncs))
	return s.finish(run, checkErr)
}

// checkReplica demands that the follower equals the primary bit for
// bit: the primary's snapshot is read over the same binary wire, so
// both sides hold the same float32 rows.
func checkReplica(ctx context.Context, c conn, rep *client.Replica, base baseGraph) error {
	if _, err := rep.Sync(ctx); err != nil {
		return fmt.Errorf("final sync: %w", err)
	}
	snap, err := c.Snapshot(ctx)
	if err != nil {
		return fmt.Errorf("reading the primary over the binary wire: %w", err)
	}
	local := rep.Snapshot()
	if local == nil || local.Epoch != snap.Epoch || len(snap.Z) != base.n {
		return fmt.Errorf("replica is not at the primary's epoch %d", snap.Epoch)
	}
	row := make([]float64, base.k)
	for v, want := range snap.Z {
		got := local.CopyRow(v, row)
		for j := range want {
			if got[j] != want[j] {
				return fmt.Errorf("replica row %d column %d is %v, primary has %v", v, j, got[j], want[j])
			}
		}
		if local.Y[v] != snap.Y[v] {
			return fmt.Errorf("replica label of vertex %d is %d, primary has %d", v, local.Y[v], snap.Y[v])
		}
	}
	return nil
}
