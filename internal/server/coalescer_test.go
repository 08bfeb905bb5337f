package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/shard"
)

func newEmbedder(t *testing.T, n, k int, opts dyn.Options) *dyn.DynamicEmbedder {
	t.Helper()
	if opts.K == 0 {
		opts.K = k
	}
	d, err := dyn.New(n, labels.Full(n, k, 11), opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCoalescerBackpressure fills the bounded queue of an idle
// coalescer and checks the overflow is rejected, then starts the loop
// and checks the queued requests drain with published acks.
func TestCoalescerBackpressure(t *testing.T) {
	d := newEmbedder(t, 10, 2, dyn.Options{})
	c := NewCoalescer(d, CoalescerOptions{QueueCap: 2, MaxDelay: time.Millisecond})
	mk := func(u, v uint32) dyn.Batch {
		return dyn.Batch{Insert: []graph.Edge{{U: u, V: v, W: 1}}}
	}
	ack1, err := c.Submit(mk(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	ack2, err := c.Submit(mk(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(mk(4, 5)); err != ErrBacklog {
		t.Fatalf("overflow submit: %v, want ErrBacklog", err)
	}
	if st := c.Stats(); st.Rejected != 1 || st.Requests != 2 {
		t.Fatalf("stats before start: %+v", st)
	}
	c.Start()
	for i, ack := range []<-chan Ack{ack1, ack2} {
		a := <-ack
		if a.Err != nil {
			t.Fatalf("ack %d: %v", i, a.Err)
		}
		if a.Epoch == 0 {
			t.Fatalf("ack %d carries the unpublished epoch 0", i)
		}
	}
	if got := d.Snapshot().Edges; got != 2 {
		t.Fatalf("%d live edges after drain, want 2", got)
	}
	c.Close()
	if _, err := c.Submit(mk(6, 7)); err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestCoalescerReplayIsolatesOffenders merges a bad request (deleting
// an edge that is not live) with good ones; the merged batch fails and
// the replay must fail only the offender.
func TestCoalescerReplayIsolatesOffenders(t *testing.T) {
	d := newEmbedder(t, 10, 2, dyn.Options{})
	c := NewCoalescer(d, CoalescerOptions{MaxDelay: 50 * time.Millisecond})
	good1, err := c.Submit(dyn.Batch{Insert: []graph.Edge{{U: 0, V: 1, W: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := c.Submit(dyn.Batch{Delete: []graph.Edge{{U: 8, V: 9, W: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	good2, err := c.Submit(dyn.Batch{Insert: []graph.Edge{{U: 2, V: 3, W: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if a := <-good1; a.Err != nil {
		t.Fatalf("good1 failed: %v", a.Err)
	}
	if a := <-bad; a.Err == nil {
		t.Fatal("bad delete acked")
	}
	if a := <-good2; a.Err != nil {
		t.Fatalf("good2 failed: %v", a.Err)
	}
	if st := c.Stats(); st.Replays != 3 {
		t.Fatalf("replays = %d, want 3", st.Replays)
	}
	if got := d.Snapshot().Edges; got != 2 {
		t.Fatalf("%d live edges, want 2", got)
	}
	c.Close()
}

// TestCoalescerAllReplaysFail covers the settle path when an entire
// merged micro-batch is invalid: every replay fails, every requester
// gets an error ack (nobody hangs waiting for a publish that will
// never cover them), and the coalescer keeps serving afterwards.
func TestCoalescerAllReplaysFail(t *testing.T) {
	d := newEmbedder(t, 10, 2, dyn.Options{})
	c := NewCoalescer(d, CoalescerOptions{MaxDelay: 50 * time.Millisecond})
	// Three deletes of never-inserted edges, queued while idle so they
	// merge into one batch.
	var acks []<-chan Ack
	for i := uint32(0); i < 3; i++ {
		ack, err := c.Submit(dyn.Batch{Delete: []graph.Edge{{U: 2 * i, V: 2*i + 1, W: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}
	c.Start()
	for i, ack := range acks {
		if a := <-ack; a.Err == nil {
			t.Fatalf("bad delete %d acked without error", i)
		}
	}
	if st := c.Stats(); st.Replays != 3 || st.Flushes != 1 {
		t.Fatalf("stats after all-fail batch: %+v", st)
	}
	if got := d.Snapshot().Edges; got != 0 {
		t.Fatalf("failed batch left %d live edges", got)
	}
	// The loop is healthy: a good request still lands and acks.
	ack, err := c.Submit(dyn.Batch{Insert: []graph.Edge{{U: 0, V: 1, W: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if a := <-ack; a.Err != nil || a.Epoch == 0 {
		t.Fatalf("good request after all-fail batch: %+v", a)
	}
	c.Close()
}

// TestCoalescerSubmitCloseRace races concurrent Submits against Close
// (run with -race): every accepted request must receive exactly one
// ack — Close drains the queue, never strands a caller — and Submits
// losing the race fail with ErrClosed, not a panic on a closed
// channel.
func TestCoalescerSubmitCloseRace(t *testing.T) {
	d := newEmbedder(t, 100, 2, dyn.Options{ManualPublish: true})
	c := NewCoalescer(d, CoalescerOptions{MaxDelay: time.Millisecond, QueueCap: 64})
	c.Start()
	const writers = 8
	var accepted, acked, refused atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				u := uint32((id*200 + i) % 99)
				ack, err := c.Submit(dyn.Batch{Insert: []graph.Edge{{U: u, V: u + 1, W: 1}}})
				switch err {
				case nil:
					accepted.Add(1)
					if a := <-ack; a.Err != nil {
						t.Errorf("accepted insert failed: %v", a.Err)
					}
					acked.Add(1)
				case ErrClosed, ErrBacklog:
					refused.Add(1)
				default:
					t.Errorf("submit: %v", err)
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	c.Close()
	wg.Wait()
	if accepted.Load() != acked.Load() {
		t.Fatalf("%d accepted but %d acked: Close stranded callers", accepted.Load(), acked.Load())
	}
	if accepted.Load() != d.Stats().Inserts {
		t.Fatalf("%d accepted inserts but embedder applied %d", accepted.Load(), d.Stats().Inserts)
	}
	if _, err := c.Submit(dyn.Batch{Insert: []graph.Edge{{U: 0, V: 1, W: 1}}}); err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	t.Logf("accepted %d, refused %d", accepted.Load(), refused.Load())
}

// TestCoalescerAckEpochMonotonic locks in the invariant epoch deltas
// (and every replica riding on ack epochs) depend on: across
// sequential requests, ack epochs never go backwards, are never the
// unpublished epoch 0, and the final published epoch covers the last
// ack — under both the per-Apply publish (publishes from inside Apply)
// and the settle-on-idle policy (publishes from the coalescer).
func TestCoalescerAckEpochMonotonic(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts dyn.Options
	}{
		{"settle-only", dyn.Options{ManualPublish: true}},
		{"publish-per-batch", dyn.Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newEmbedder(t, 200, 2, tc.opts)
			c := NewCoalescer(d, CoalescerOptions{MaxDelay: time.Millisecond})
			c.Start()
			defer c.Close()
			var last uint64
			for i := 0; i < 60; i++ {
				u := uint32(i % 99)
				ack, err := c.Submit(dyn.Batch{Insert: []graph.Edge{{U: 2 * u, V: 2*u + 1, W: 1}}})
				if err != nil {
					t.Fatal(err)
				}
				a := <-ack
				if a.Err != nil {
					t.Fatal(a.Err)
				}
				if a.Epoch == 0 {
					t.Fatalf("request %d acked at the unpublished epoch 0", i)
				}
				if a.Epoch < last {
					t.Fatalf("ack epoch went backwards: %d after %d", a.Epoch, last)
				}
				// Read-your-writes: the published snapshot at or after
				// the ack epoch reflects the insert (edge count grows
				// monotonically in this workload).
				if snap := d.Snapshot(); snap.Epoch < a.Epoch || snap.Edges < int64(i+1) {
					t.Fatalf("request %d: ack epoch %d not covered by snapshot (%d, %d edges)",
						i, a.Epoch, snap.Epoch, snap.Edges)
				}
				last = a.Epoch
			}
			if d.Epoch() < last {
				t.Fatalf("final epoch %d below last ack %d", d.Epoch(), last)
			}
		})
	}
}

// newIdleServer wires an nShards-way server whose coalescers are not
// started: requests queue up (to QueueCap) but nothing is applied until
// the test starts the router.
func newIdleServer(t *testing.T, n, k, nShards int, opts Options) *Server {
	t.Helper()
	p, err := shard.NewPartition(n, nShards)
	if err != nil {
		t.Fatal(err)
	}
	shs, err := shard.NewShards(p, labels.Full(n, k, 11), dyn.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return newServer(p, shs, opts)
}

// TestServerBackpressureHTTP drives the 429 path end to end at one and
// two shards: with idle coalescers and QueueCap 1, a write occupies
// shard 0's only slot, and a second write that also needs shard 0 — a
// cut edge on the two-shard server, whose other owner has room — is
// refused with Too Many Requests and a Retry-After header. Admission is
// all-or-nothing: no queue's depth moves (the shard with room must not
// keep half a write), and the refusal is counted once, on the shard
// that refused.
func TestServerBackpressureHTTP(t *testing.T) {
	for _, nShards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			const n = 10
			s := newIdleServer(t, n, 2, nShards, Options{Coalescer: CoalescerOptions{QueueCap: 1}})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			post := func(body string) *http.Response {
				resp, err := http.Post(ts.URL+"/v1/edges", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return nil
				}
				return resp
			}
			depths := func() []int {
				out := make([]int, len(s.rt.units))
				for i, u := range s.rt.units {
					out[i], _ = u.co.backlog()
				}
				return out
			}
			first := make(chan *http.Response, 1)
			go func() { first <- post(`{"edges":[{"u":0,"v":1}]}`) }() // both endpoints on shard 0
			// Wait until the first request occupies shard 0's queue slot.
			for i := 0; s.rt.units[0].co.Stats().Requests != 1; i++ {
				if i > 2000 {
					t.Fatal("first request never queued")
				}
				time.Sleep(time.Millisecond)
			}
			before := depths()
			// Vertex n-1 lives on the last shard: a cut edge when there are two.
			resp := post(fmt.Sprintf(`{"edges":[{"u":0,"v":%d}]}`, n-1))
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("overflow POST: status %d, want 429", resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("429 body: %v %+v", err, e)
			}
			resp.Body.Close()
			if after := depths(); !slices.Equal(before, after) {
				t.Fatalf("refused write moved queue depths %v -> %v (admission must be all-or-nothing)", before, after)
			}
			for i, u := range s.rt.units {
				want := int64(0)
				if i == 0 {
					want = 1
				}
				if got := u.co.Stats().Rejected; got != want {
					t.Fatalf("shard %d Rejected = %d, want %d", i, got, want)
				}
			}
			if st := s.rt.stats(); st.Coalescer.Rejected != 1 {
				t.Fatalf("aggregate Rejected = %d, want 1", st.Coalescer.Rejected)
			}

			s.rt.start()
			if resp := <-first; resp != nil {
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("queued POST: status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// After shutdown the router refuses: the handler answers 503.
			resp = post(`{"edges":[{"u":0,"v":1}]}`)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("post after shutdown: status %d, want 503", resp.StatusCode)
			}
			resp.Body.Close()
		})
	}
}
