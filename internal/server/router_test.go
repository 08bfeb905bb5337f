package server

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/dyn"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// TestMaxRetryAfter pins the sharded backoff hint: a scattered write is
// admitted only when every target shard has room, so the hint must
// outwait the slowest shard — the max of the per-shard estimates, never
// below the 1-second floor, clamped at the 30-second ceiling, and 30
// for any shard with backlog but no observed drain.
func TestMaxRetryAfter(t *testing.T) {
	cases := []struct {
		name   string
		depths []int
		rates  []float64
		want   int
	}{
		{"no shards", nil, nil, 1},
		{"all empty", []int{0, 0, 0, 0}, []float64{10, 10, 10, 10}, 1},
		{"one hot", []int{0, 30, 0, 0}, []float64{10, 10, 10, 10}, 3},
		{"all full takes the max", []int{50, 80, 20, 10}, []float64{10, 10, 10, 10}, 8},
		{"cold shard with backlog", []int{0, 5, 0, 0}, []float64{10, 0, 10, 10}, 30},
		{"cold shards all idle", []int{0, 0}, []float64{0, 0}, 1},
		{"clamped at ceiling", []int{1000, 0}, []float64{1, 10}, 30},
		{"rounds up", []int{11, 0}, []float64{10, 10}, 2},
	}
	for _, tc := range cases {
		if got := maxRetryAfter(tc.depths, tc.rates); got != tc.want {
			t.Errorf("%s: maxRetryAfter(%v, %v) = %d, want %d", tc.name, tc.depths, tc.rates, got, tc.want)
		}
	}
}

// TestShardedInstrumentDistinctSeries pins the shard-label dimension:
// four shards registering the same instrument names against ONE
// registry must yield four distinct labeled series
// (gee_coalescer_queue_depth{shard="2"} and so on). The registry
// silently aliases a duplicate name+labels registration instead of
// panicking, so without the shard label every shard would write the
// first shard's cells and this test would see one series, not four.
func TestShardedInstrumentDistinctSeries(t *testing.T) {
	const n, k, nShards = 64, 4, 4
	y := make([]int32, n)
	for v := range y {
		y[v] = int32(v % k)
	}
	p, err := shard.NewPartition(n, nShards)
	if err != nil {
		t.Fatal(err)
	}
	shs, err := shard.NewShards(p, y, dyn.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharded(p, shs, Options{})
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	var buf bytes.Buffer
	if err := s.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	perShard := []string{"gee_coalescer_queue_depth", "gee_index_epoch"}
	seen := map[string]map[string]bool{}
	routerShards := -1.0
	for _, smp := range samples {
		for _, name := range perShard {
			if smp.Name == name {
				if seen[name] == nil {
					seen[name] = map[string]bool{}
				}
				seen[name][smp.Labels["shard"]] = true
			}
		}
		if smp.Name == "gee_router_shards" {
			routerShards = smp.Value
		}
	}
	for _, name := range perShard {
		got := seen[name]
		if len(got) != nShards {
			t.Errorf("%s: %d distinct shard-label series %v, want %d", name, len(got), got, nShards)
			continue
		}
		for i := 0; i < nShards; i++ {
			if !got[strconv.Itoa(i)] {
				t.Errorf("%s: missing shard=%q series", name, strconv.Itoa(i))
			}
		}
	}
	if routerShards != nShards {
		t.Errorf("gee_router_shards = %v, want %d", routerShards, nShards)
	}
}
