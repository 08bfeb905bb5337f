// Command geeserve drives the dynamic embedding service (internal/dyn)
// under an ingest+query workload: edge insertions, deletions, and label
// updates stream into a DynamicEmbedder while concurrent reader
// goroutines answer embedding queries from its published snapshots.
// With -serve it additionally exposes the embedder over the HTTP
// serving API (internal/server) — queries, snapshots, and coalesced
// writes from the network — until SIGINT/SIGTERM triggers a graceful
// shutdown.
//
// Modes:
//
//	geeserve                          # generated SBM churn with ground truth
//	geeserve -stdin -n 1000 -k 10     # ops from stdin, one per line
//	geeserve -serve :8080 -rounds 0   # HTTP service only (drive with geeload)
//	geeserve -serve :8080             # HTTP service + local churn ingest
//
// In generated mode the workload is a planted-partition graph whose
// edges churn batch by batch (each round inserts a fresh batch, deletes
// the oldest live one past a window, and reveals or perturbs a few
// labels); every -eval-every rounds the embedding is classified by
// arg-max coordinate and scored as ARI/NMI against the planted blocks,
// so embedding quality is observable while the graph churns underneath.
//
// Stdin lines:
//
//	a u v [w]   insert edge (weight 1 when omitted)
//	d u v [w]   delete a live edge (exact match)
//	l v c       relabel vertex v to class c (-1 unlabels)
//
// Blank lines and lines starting with '#' are skipped. A malformed
// line does not abort the run: it is reported with its line number,
// counted, and skipped (the count is printed at EOF). Ops are folded
// in batches of -batch lines (and at EOF).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/dyn"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/rate"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/xrand"
)

// config is the parsed flag set.
type config struct {
	stdin     bool
	serveAddr string
	shards    int
	n, k      int
	pIn, pOut float64
	labelFrac float64
	batch     int
	rounds    int
	window    int
	relabel   int
	readers   int
	evalEvery int
	threshold int
	workers   int
	pubEvery  int
	seed      uint64
	pprof     bool
	slowReq   time.Duration
	noTrace   bool
}

func main() {
	var cfg config
	flag.BoolVar(&cfg.stdin, "stdin", false, "read ops from stdin instead of generating churn")
	flag.StringVar(&cfg.serveAddr, "serve", "", "expose the HTTP serving API on this address (e.g. :8080) until SIGINT/SIGTERM")
	flag.IntVar(&cfg.shards, "shards", 1, "vertex-partitioned embedder shards behind the serving API (>1 requires -serve and disables the local workload)")
	flag.IntVar(&cfg.n, "n", 100_000, "vertex count")
	flag.IntVar(&cfg.k, "k", 10, "classes (= SBM blocks in generated mode)")
	flag.Float64Var(&cfg.pIn, "p-in", 8e-4, "SBM within-block edge probability")
	flag.Float64Var(&cfg.pOut, "p-out", 4e-5, "SBM cross-block edge probability")
	flag.Float64Var(&cfg.labelFrac, "label-frac", 0.1, "initially labeled fraction (true block labels)")
	flag.IntVar(&cfg.batch, "batch", 20_000, "edges per ingest batch (ops per batch in stdin mode)")
	flag.IntVar(&cfg.rounds, "rounds", 200, "ingest rounds in generated mode (0 = no local churn)")
	flag.IntVar(&cfg.window, "window", 8, "live batches kept before the oldest is deleted")
	flag.IntVar(&cfg.relabel, "relabel", 50, "label updates per round in generated mode")
	flag.IntVar(&cfg.readers, "readers", 4, "concurrent query reader goroutines during a local workload")
	flag.IntVar(&cfg.evalEvery, "eval-every", 25, "rounds between ARI/NMI evaluations (0 disables)")
	flag.IntVar(&cfg.threshold, "sharded-threshold", 0, "batch size switching folds to the sharded path (0 default, <0 never)")
	flag.IntVar(&cfg.workers, "workers", 0, "fold parallelism (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.pubEvery, "publish-every", 0, "publish after this many applied ops (0 = publish every batch)")
	flag.Uint64Var(&cfg.seed, "seed", 12345, "workload seed")
	flag.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the -serve mux")
	flag.DurationVar(&cfg.slowReq, "slow-request", 0, "log requests slower than this threshold (e.g. 250ms; 0 disables)")
	flag.BoolVar(&cfg.noTrace, "no-trace", false, "disable request tracing (/debug/traces, per-stage write histograms); measurement escape hatch")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "geeserve:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.shards > 1 {
		// The shard set only exists behind the HTTP API: the local
		// workloads drive one embedder directly, bypassing the router
		// that scatters writes across owners.
		if cfg.serveAddr == "" {
			return fmt.Errorf("-shards %d needs -serve", cfg.shards)
		}
		if cfg.stdin {
			return fmt.Errorf("-shards %d is incompatible with -stdin (drive writes through the API with geeload)", cfg.shards)
		}
		if cfg.rounds > 0 {
			fmt.Fprintf(os.Stderr, "# -shards %d: skipping the local churn workload (drive with geeload)\n", cfg.shards)
		}
	}
	opts := dyn.Options{
		K: cfg.k, Workers: cfg.workers,
		ShardedThreshold: cfg.threshold,
		PublishEvery:     cfg.pubEvery,
	}

	y := make([]int32, cfg.n)
	for i := range y {
		y[i] = labels.Unknown
	}
	var yTrue []int32
	var el *graph.EdgeList
	if !cfg.stdin && cfg.rounds > 0 && cfg.shards <= 1 {
		fmt.Fprintf(os.Stderr, "# generating SBM: n=%d k=%d p_in=%g p_out=%g\n", cfg.n, cfg.k, cfg.pIn, cfg.pOut)
		el, yTrue = gen.SBM(cfg.workers, cfg.n, cfg.k, cfg.pIn, cfg.pOut, cfg.seed)
		if len(el.Edges) == 0 {
			return fmt.Errorf("empty SBM (raise -p-in/-p-out)")
		}
		// Reveal the true block of a random labeled subset — the
		// semi-supervised seeding GEE consumes.
		r := xrand.New(cfg.seed + 1)
		for i := 0; i < int(cfg.labelFrac*float64(cfg.n)); i++ {
			v := r.Intn(cfg.n)
			y[v] = yTrue[v]
		}
	}
	// One embedder unsharded; a partitioned set behind the router when
	// -shards asks for it (d stays nil then — every access below is
	// gated on the local workload, which sharded mode disables).
	var d *dyn.DynamicEmbedder
	if cfg.shards <= 1 {
		var err error
		d, err = dyn.New(cfg.n, y, opts)
		if err != nil {
			return err
		}
	}

	// Network front-end: serve the embedder while (and after) any local
	// workload runs. Listening happens synchronously so a bad -serve
	// address fails before minutes of workload, and the signal context
	// is installed up front so SIGINT/SIGTERM during the workload stops
	// it cleanly instead of killing the process mid-drain.
	var srv *server.Server
	srvErr := make(chan error, 1)
	ctx := context.Background()
	if cfg.serveAddr != "" {
		ln, err := net.Listen("tcp", cfg.serveAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# serving HTTP on %s\n", ln.Addr())
		serverOpts := server.Options{
			EnablePprof:          cfg.pprof,
			SlowRequestThreshold: cfg.slowReq,
			DisableTracing:       cfg.noTrace,
		}
		if cfg.shards > 1 {
			p, err := shard.NewPartition(cfg.n, cfg.shards)
			if err != nil {
				return err
			}
			shards, err := shard.NewShards(p, y, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "# sharded serving: %d shards over [0,%d)\n", p.Shards(), p.N)
			srv = server.NewSharded(p, shards, serverOpts)
		} else {
			srv = server.New(d, serverOpts)
		}
		go func() { srvErr <- srv.Serve(ln) }()
		var stopSignals context.CancelFunc
		ctx, stopSignals = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
	}

	// Local workload (if any), with its query readers.
	var workloadErr error
	ranWorkload := (cfg.stdin || cfg.rounds > 0) && cfg.shards <= 1
	switch {
	case !ranWorkload:
		// HTTP service only (sharded mode, or -rounds 0).
	case cfg.stdin:
		stop := startReaders(d, cfg.readers)
		if srv == nil {
			workloadErr = serveOps(ctx, d, os.Stdin, cfg.batch, os.Stdout, os.Stderr)
		} else {
			// A signal must not be held up by a blocked stdin read.
			// Closing stdin unblocks pollable inputs (the scan loop then
			// sees the cancelled ctx); a non-pollable blocking fd (e.g. a
			// quiet fifo) cannot be unblocked from outside, so after a
			// grace period the reader goroutine is abandoned and process
			// exit reaps it — shutdown must not hang on silent input.
			defer context.AfterFunc(ctx, func() { os.Stdin.Close() })()
			done := make(chan error, 1)
			go func() { done <- serveOps(ctx, d, os.Stdin, cfg.batch, os.Stdout, os.Stderr) }()
			select {
			case workloadErr = <-done:
			case <-ctx.Done():
				select {
				case workloadErr = <-done:
				case <-time.After(500 * time.Millisecond):
					fmt.Fprintln(os.Stderr, "geeserve: stdin reader still blocked; abandoning it for shutdown")
				}
			}
		}
		stop()
	default: // generated churn (cfg.rounds > 0)
		stop := startReaders(d, cfg.readers)
		workloadErr = serveChurn(ctx, d, el, yTrue, cfg)
		stop()
	}
	if workloadErr != nil && srv == nil {
		return workloadErr
	}
	if workloadErr != nil {
		fmt.Fprintln(os.Stderr, "geeserve: workload:", workloadErr)
	}

	if srv == nil {
		return nil
	}
	// Serve until interrupted, then drain gracefully.
	select {
	case <-ctx.Done():
	case err := <-srvErr:
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintln(os.Stderr, "# shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-srvErr; err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// The workload modes print their own summaries; repeating one here
	// would give scripts two near-identical epoch lines to mis-grep.
	// The sharded tier's aggregate lives in /statsz while it runs.
	if !ranWorkload && d != nil {
		st := d.Stats()
		fmt.Printf("epoch %d: %d live edges, %d inserts, %d deletes, %d label moves\n",
			st.Epoch, st.LiveEdges, st.Inserts, st.Deletes, st.LabelMoves)
	}
	fmt.Println("graceful shutdown complete")
	return workloadErr
}

// startReaders launches query goroutines hammering the published
// snapshot and returns a stop function reporting their total count.
func startReaders(d *dyn.DynamicEmbedder, readers int) func() {
	if readers <= 0 {
		return func() {}
	}
	var queries atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.New(uint64(1000 + id))
			n := d.N()
			for {
				select {
				case <-done:
					return
				default:
				}
				if row := d.Query(graph.NodeID(r.Intn(n))); row == nil {
					panic("geeserve: nil query row")
				}
				queries.Add(1)
			}
		}(i)
	}
	return func() {
		close(done)
		wg.Wait()
		secs := time.Since(start).Seconds()
		fmt.Printf("served %d queries from %d readers (%.0f queries/s)\n",
			queries.Load(), readers, rate.PerSec(queries.Load(), secs))
	}
}

// serveChurn runs the generated ingest loop; a cancelled ctx (the
// -serve signal handler) ends it cleanly between rounds.
func serveChurn(ctx context.Context, d *dyn.DynamicEmbedder, el *graph.EdgeList, yTrue []int32, cfg config) error {
	n := d.N()
	k := d.K()
	batch := cfg.batch
	r := xrand.New(cfg.seed + 2)
	pool := el.Edges
	if batch > len(pool) {
		fmt.Fprintf(os.Stderr, "# pool has %d edges; clamping -batch from %d\n", len(pool), batch)
		batch = len(pool)
	}
	var live [][]graph.Edge // FIFO of inserted batches
	off := 0
	next := func() []graph.Edge {
		if off+batch > len(pool) {
			off = 0
		}
		b := pool[off : off+batch]
		off += batch
		return b
	}
	windowStart := time.Now()
	var windowEdges int64
	for round := 1; round <= cfg.rounds; round++ {
		select {
		case <-ctx.Done():
			fmt.Fprintf(os.Stderr, "# workload interrupted at round %d\n", round)
			return nil
		default:
		}
		var b dyn.Batch
		b.Insert = next()
		if len(live) >= cfg.window {
			b.Delete = live[0]
			live = live[1:]
		}
		for i := 0; i < cfg.relabel; i++ {
			v := graph.NodeID(r.Intn(n))
			// Mostly reveal true labels (quality climbs), sometimes
			// perturb (exercises the subtract/re-add path).
			class := yTrue[v]
			if r.Intn(5) == 0 {
				class = int32(r.Intn(k))
			}
			b.Labels = append(b.Labels, dyn.LabelUpdate{V: v, Class: class})
		}
		if err := d.Apply(b); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		live = append(live, b.Insert)
		windowEdges += int64(len(b.Insert) + len(b.Delete))
		if cfg.evalEvery > 0 && round%cfg.evalEvery == 0 {
			snap := d.Version()
			pred := classify(snap)
			secs := time.Since(windowStart).Seconds()
			fmt.Printf("round %4d  epoch %4d  live %9d  ingest %10.0f edges/s  ARI %.3f  NMI %.3f\n",
				round, snap.Epoch, snap.Edges, rate.PerSec(windowEdges, secs),
				cluster.ARI(pred, yTrue), cluster.NMI(pred, yTrue))
			windowStart = time.Now()
			windowEdges = 0
		}
	}
	st := d.Stats()
	fmt.Printf("ingested %d inserts, %d deletes, %d label moves over %d batches (folds: %d sharded, %d atomic, %d serial)\n",
		st.Inserts, st.Deletes, st.LabelMoves, st.Batches,
		st.ShardedFolds, st.AtomicFolds, st.SerialFolds)
	return nil
}

// classify assigns each vertex its arg-max embedding coordinate (the
// GEE semi-supervised read-out); all-zero rows stay unlabeled so they
// are skipped by the metrics.
func classify(s *dyn.Version) []int32 {
	pred := make([]int32, s.Z.R)
	row := make([]float64, s.Z.C)
	for v := 0; v < s.Z.R; v++ {
		s.Z.Row(v, row)
		best, bv := labels.Unknown, 0.0
		for c, x := range row {
			if x > bv {
				best, bv = int32(c), x
			}
		}
		pred[v] = best
	}
	return pred
}

// op is one parsed stdin operation.
type op struct {
	kind  byte // 'a' insert, 'd' delete, 'l' label
	edge  graph.Edge
	label dyn.LabelUpdate
}

// parseOpLine parses one stdin line. skip is true for blank and
// comment lines; a non-nil error describes a malformed line (the
// caller decides whether that is fatal).
func parseOpLine(line string) (o op, skip bool, err error) {
	f := strings.Fields(line)
	if len(f) == 0 || strings.HasPrefix(f[0], "#") {
		return op{}, true, nil
	}
	switch f[0] {
	case "a", "d":
		if len(f) < 3 || len(f) > 4 {
			return op{}, false, fmt.Errorf("want '%s u v [w]', got %q", f[0], line)
		}
		u, err1 := strconv.ParseUint(f[1], 10, 32)
		v, err2 := strconv.ParseUint(f[2], 10, 32)
		w := 1.0
		var err3 error
		if len(f) == 4 {
			w, err3 = strconv.ParseFloat(f[3], 32)
		}
		if err1 != nil || err2 != nil || err3 != nil {
			return op{}, false, fmt.Errorf("bad edge op %q", line)
		}
		o.kind = f[0][0]
		o.edge = graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: float32(w)}
		return o, false, nil
	case "l":
		if len(f) != 3 {
			return op{}, false, fmt.Errorf("want 'l v class', got %q", line)
		}
		v, err1 := strconv.ParseUint(f[1], 10, 32)
		c, err2 := strconv.ParseInt(f[2], 10, 32)
		if err1 != nil || err2 != nil {
			return op{}, false, fmt.Errorf("bad label op %q", line)
		}
		o.kind = 'l'
		o.label = dyn.LabelUpdate{V: graph.NodeID(v), Class: int32(c)}
		return o, false, nil
	default:
		return op{}, false, fmt.Errorf("unknown op %q", f[0])
	}
}

// serveOps folds line ops from r into batches. Malformed lines are
// reported to errw with their line number and skipped; only stream and
// apply errors abort. A cancelled ctx ends the run cleanly at the next
// line (flushing what was read). The final tallies go to out.
func serveOps(ctx context.Context, d *dyn.DynamicEmbedder, r io.Reader, batch int, out, errw io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var b dyn.Batch
	ops := 0
	line := 0
	malformed := 0
	flush := func() error {
		if ops == 0 {
			return nil
		}
		if err := d.Apply(b); err != nil {
			return err
		}
		b = dyn.Batch{}
		ops = 0
		return nil
	}
	for sc.Scan() {
		select {
		case <-ctx.Done():
			fmt.Fprintf(errw, "geeserve: interrupted after %d lines\n", line)
			return flush()
		default:
		}
		line++
		o, skip, err := parseOpLine(sc.Text())
		if err != nil {
			malformed++
			fmt.Fprintf(errw, "geeserve: line %d: %v (skipped)\n", line, err)
			continue
		}
		if skip {
			continue
		}
		switch o.kind {
		case 'a':
			b.Insert = append(b.Insert, o.edge)
		case 'd':
			b.Delete = append(b.Delete, o.edge)
		case 'l':
			b.Labels = append(b.Labels, o.label)
		}
		ops++
		if ops >= batch {
			if err := flush(); err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		// A cancelled ctx surfaces as a read error when the caller
		// closed the input to unblock the scan; that's an interrupt,
		// not a stream failure.
		if ctx.Err() == nil {
			return err
		}
		fmt.Fprintf(errw, "geeserve: interrupted after %d lines\n", line)
	}
	if err := flush(); err != nil {
		return err
	}
	st := d.Stats()
	fmt.Fprintf(out, "epoch %d: %d live edges, %d inserts, %d deletes, %d label moves",
		st.Epoch, st.LiveEdges, st.Inserts, st.Deletes, st.LabelMoves)
	if malformed > 0 {
		fmt.Fprintf(out, " (%d malformed lines skipped)", malformed)
	}
	fmt.Fprintln(out)
	return nil
}
