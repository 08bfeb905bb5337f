// Command geeserve serves a dynamic GEE embedding (internal/dyn) over
// the HTTP serving API (internal/server) until SIGINT/SIGTERM triggers
// a graceful shutdown. Every vertex starts unlabeled and every graph
// starts empty; writes arrive through POST/DELETE /v1/edges and POST
// /v1/labels (cmd/geeload drives them), reads through the query,
// snapshot and delta routes.
//
//	geeserve                          # 100k vertices on 127.0.0.1:8080
//	geeserve -serve :8080 -shards 4   # four vertex-partitioned embedders
//
// One shard is the N=1 case of the partitioned server: the same router,
// wire contract and metrics labels as any other shard count.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dyn"
	"repro/internal/labels"
	"repro/internal/server"
	"repro/internal/shard"
)

// config is the parsed flag set.
type config struct {
	serveAddr string
	shards    int
	n, k      int
	workers   int
	pprof     bool
	noTrace   bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.serveAddr, "serve", "127.0.0.1:8080", "serve the HTTP API on this address (\":0\" picks a free port)")
	flag.IntVar(&cfg.shards, "shards", 1, "vertex-partitioned embedder shards behind the serving API")
	flag.IntVar(&cfg.n, "n", 100_000, "vertex count")
	flag.IntVar(&cfg.k, "k", 10, "classes (embedding width)")
	flag.IntVar(&cfg.workers, "workers", 0, "fold parallelism per shard (0 = GOMAXPROCS)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.BoolVar(&cfg.noTrace, "no-trace", false, "disable request tracing (/debug/traces, per-stage write histograms); measurement escape hatch")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "geeserve:", err)
		os.Exit(1)
	}
}

// run builds the shard set, serves it on cfg.serveAddr until ctx is
// done, then drains gracefully.
func run(ctx context.Context, cfg config) error {
	p, err := shard.NewPartition(cfg.n, cfg.shards)
	if err != nil {
		return err
	}
	y := make([]int32, cfg.n)
	for i := range y {
		y[i] = labels.Unknown
	}
	shards, err := shard.NewShards(p, y, dyn.Options{K: cfg.k, Workers: cfg.workers})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.serveAddr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# serving HTTP on %s\n", ln.Addr())
	if p.Shards() > 1 {
		fmt.Fprintf(os.Stderr, "# sharded serving: %d shards over [0,%d)\n", p.Shards(), p.N)
	}
	srv := server.NewSharded(p, shards, server.Options{
		EnablePprof:    cfg.pprof,
		DisableTracing: cfg.noTrace,
	})
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-srvErr:
		srv.Close()
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
	fmt.Println("graceful shutdown complete")
	return nil
}
