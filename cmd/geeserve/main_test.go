package main

import (
	"context"
	"net"
	"testing"
	"time"
)

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRunErrors checks every refused configuration returns an error
// (no panic) and leaves its address free to bind again.
func TestRunErrors(t *testing.T) {
	ok := config{n: 100, k: 4, shards: 1}
	for _, tc := range []struct {
		name string
		edit func(*config)
	}{
		{"zero vertices", func(c *config) { c.n = 0 }},
		{"zero classes", func(c *config) { c.k = 0 }},
		{"zero shards", func(c *config) { c.shards = 0 }},
		{"more shards than vertices", func(c *config) { c.shards = c.n + 1 }},
		{"bad address", func(c *config) { c.serveAddr = "127.0.0.1:notaport" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := freeAddr(t)
			cfg := ok
			cfg.serveAddr = addr
			tc.edit(&cfg)
			// A run that wrongly accepted the config serves until the
			// deadline and then returns nil.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := run(ctx, cfg); err == nil {
				t.Fatalf("run(%+v) = nil, want an error", cfg)
			}
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("address %s still bound after a refused run: %v", addr, err)
			}
			ln.Close()
		})
	}
}

// TestRunServesAndShutsDown drives the whole build, serve and graceful
// shutdown path for one shard and for several: with ctx already done,
// run must drain and return nil.
func TestRunServesAndShutsDown(t *testing.T) {
	for _, shards := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		cfg := config{serveAddr: "127.0.0.1:0", n: 100, k: 4, shards: shards}
		if err := run(ctx, cfg); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}
