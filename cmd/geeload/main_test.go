package main

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dyn"
	"repro/internal/labels"
	"repro/internal/server"
	"repro/internal/xrand"
)

func TestNormalizeBase(t *testing.T) {
	for in, want := range map[string]string{
		"http://127.0.0.1:8080": "http://127.0.0.1:8080",
		"https://gee.example":   "https://gee.example",
		"127.0.0.1:8080":        "http://127.0.0.1:8080",
		"localhost:9":           "http://localhost:9",
	} {
		if got := normalizeBase(in); got != want {
			t.Errorf("normalizeBase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRandEdges(t *testing.T) {
	r := xrand.New(7)
	edges := randEdges(r, 50, 4, 200, 0)
	if len(edges) != 200 {
		t.Fatalf("%d edges", len(edges))
	}
	for i, e := range edges {
		if e.U >= 50 || e.V >= 50 {
			t.Fatalf("edge %d out of range: %+v", i, e)
		}
		if e.W < 1 || e.W > 4 {
			t.Fatalf("edge %d weight %v outside [1,4]", i, e.W)
		}
	}
	// blockFrac 1: every edge stays within its planted block (u ≡ v
	// mod k), the structure the recall workload relies on.
	for i, e := range randEdges(r, 50, 4, 200, 1) {
		if e.U >= 50 || e.V >= 50 || e.U%4 != e.V%4 {
			t.Fatalf("block edge %d escapes its block: %+v", i, e)
		}
	}
}

// TestLoadAgainstServer runs the whole closed loop against an
// in-process serving stack: the run must acknowledge inserts, complete
// queries, and leave the server with a consistent live-edge count.
// TestPerSec pins the throughput-report clamp: a degenerate (zero or
// negative) duration reports 0 instead of +Inf or NaN.
func TestPerSec(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count int64
		secs  float64
		want  float64
	}{
		{"normal", 100, 2, 50},
		{"zero count", 0, 2, 0},
		{"zero duration", 100, 0, 0},
		{"negative duration", 100, -1, 0},
		{"zero over zero", 0, 0, 0},
		{"tiny duration", 3, 0.5, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := perSec(tc.count, tc.secs)
			if got != tc.want {
				t.Fatalf("perSec(%d, %v) = %v, want %v", tc.count, tc.secs, got, tc.want)
			}
			if math.IsInf(got, 0) || math.IsNaN(got) {
				t.Fatalf("perSec(%d, %v) = %v (not finite)", tc.count, tc.secs, got)
			}
		})
	}
}

func TestLoadAgainstServer(t *testing.T) {
	for _, wire := range []string{"json", "binary"} {
		t.Run(wire, func(t *testing.T) { testLoadAgainstServer(t, wire) })
	}
}

func testLoadAgainstServer(t *testing.T, wire string) {
	const n, k = 500, 4
	y := make([]int32, n)
	for i := range y {
		y[i] = labels.Unknown
	}
	d, err := dyn.New(n, y, dyn.Options{K: k, ManualPublish: true})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(d, server.Options{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	}()

	var out strings.Builder
	cfg := config{
		addr:          ts.URL,
		duration:      400 * time.Millisecond,
		writers:       3,
		readers:       2,
		batchReaders:  1,
		readBatch:     8,
		nbrReaders:    1,
		nbrK:          5,
		nbrMetric:     "l2",
		nbrMode:       "approx",
		recallQueries: 4,
		replicas:      1,
		replicaSync:   10 * time.Millisecond,
		replicaVerify: true,
		wireFmt:       wire,
		batch:         16,
		deleteFrac:    0.3,
		labelFrac:     0.5,
		seed:          42,
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("load run failed: %v\noutput:\n%s", err, out.String())
	}
	st := d.Stats()
	if st.Inserts == 0 {
		t.Fatal("no inserts reached the embedder")
	}
	if st.LiveEdges != st.Inserts-st.Deletes {
		t.Fatalf("live edges %d != %d inserts - %d deletes", st.LiveEdges, st.Inserts, st.Deletes)
	}
	for _, want := range []string{
		"acked ops/s", "queries/s", "requests/fold",
		"batched reads:", "neighbor queries:", "replica 0:", "replica verify OK",
		"wire=" + wire, "B/sync",
		// Every server indexes, n=500 included, and an indexed answer
		// is the exact top-k.
		"approx neighbor recall@5: 1.000 over 4 queries",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
}
