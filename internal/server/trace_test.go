package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dyn"
	"repro/internal/trace"
)

// writeStages are the stages every acked write's trace must decompose
// into: the handler-side "decode" before the pipeline, the pipeline's
// three, and the handler-side "ack" hop after it.
var writeStages = []string{"decode", "queue", "fold", "publish", "ack"}

// TestWriteTracePropagation is the tentpole acceptance test, run under
// -race in CI: 200 concurrent writes, each under its own client-minted
// trace id. Every ack's retained trace must carry all pipeline stages,
// closed, in order, and the stage durations must sum to within the
// wrapper-measured end-to-end latency (the stages are contiguous
// sub-intervals of the request, so overshooting it means double
// counting).
func TestWriteTracePropagation(t *testing.T) {
	d := newEmbedder(t, 512, 4, dyn.Options{})
	s := New(d, Options{Coalescer: CoalescerOptions{MaxDelay: time.Millisecond}, TraceBuffer: 512})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const writers = 200
	ids := make([]trace.ID, writers)
	e2e := make([]time.Duration, writers)
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := trace.NewID()
			ids[i] = id
			body := fmt.Sprintf(`{"edges":[{"u":%d,"v":%d}]}`, i, (i+1)%512)
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/edges", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set(trace.Header, id.String())
			t0 := time.Now()
			resp, err := http.DefaultClient.Do(req)
			e2e[i] = time.Since(t0)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				failed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d writes not acked 200", n)
	}

	for i, id := range ids {
		tr := s.sm.rec.Find(id)
		if tr == nil {
			t.Fatalf("write %d: trace %v not retained (recorder too small for the test?)", i, id)
		}
		if tr.Duration() <= 0 {
			t.Fatalf("write %d: trace not finished", i)
		}
		var sum time.Duration
		prevEnd := time.Duration(-1)
		for _, stage := range writeStages {
			sp, ok := tr.Span(stage)
			if !ok {
				t.Fatalf("write %d: trace %v missing stage %q (spans: %v)", i, id, stage, tr.Spans())
			}
			if sp.End < sp.Start {
				t.Fatalf("write %d: stage %q not closed: [%v,%v]", i, stage, sp.Start, sp.End)
			}
			if sp.Start < prevEnd {
				t.Fatalf("write %d: stage %q starts at %v before previous stage ended (%v)",
					i, stage, sp.Start, prevEnd)
			}
			prevEnd = sp.End
			sum += sp.Duration()
		}
		// The stages are disjoint sub-intervals of the request, so their
		// sum is bounded by the trace duration, which in turn is inside
		// the client-measured round trip.
		if sum > tr.Duration() {
			t.Errorf("write %d: stage sum %v exceeds trace duration %v", i, sum, tr.Duration())
		}
		if tr.Duration() > e2e[i] {
			t.Errorf("write %d: trace duration %v exceeds client-measured %v", i, tr.Duration(), e2e[i])
		}
	}

	// The per-stage histograms saw every stage of every write.
	var b strings.Builder
	if err := s.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, stage := range writeStages {
		want := fmt.Sprintf(`gee_write_stage_seconds_count{stage=%q} %d`, stage, writers)
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTraceStageSumMatchesAckWait pins the 5%-decomposition acceptance
// criterion on a write slow enough to measure: with a deliberately
// large MaxDelay the queue span dominates, and the stage durations must
// sum to within 5% of the wall time from handler entry to ack.
func TestTraceStageSumMatchesAckWait(t *testing.T) {
	d := newEmbedder(t, 256, 4, dyn.Options{})
	s := New(d, Options{Coalescer: CoalescerOptions{MaxDelay: 60 * time.Millisecond}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := trace.NewID()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/edges",
		strings.NewReader(`{"edges":[{"u":1,"v":2}]}`))
	req.Header.Set(trace.Header, id.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	tr := s.sm.rec.Find(id)
	if tr == nil {
		t.Fatal("trace not retained")
	}
	decode, _ := tr.Span("decode")
	ack, ok := tr.Span("ack")
	if !ok {
		t.Fatalf("spans: %v", tr.Spans())
	}
	wall := ack.End - decode.Start // handler entry → ack received
	var sum time.Duration
	for _, stage := range writeStages {
		sp, ok := tr.Span(stage)
		if !ok {
			t.Fatalf("missing stage %q", stage)
		}
		sum += sp.Duration()
	}
	if wall < 50*time.Millisecond {
		t.Fatalf("write completed in %v, too fast for a meaningful decomposition check", wall)
	}
	lo, hi := wall*95/100, wall*105/100
	if sum < lo || sum > hi {
		t.Fatalf("stage sum %v outside 5%% of wall %v (spans: %v)", sum, wall, tr.Spans())
	}
}

// TestReadyz: readiness requires a started, accepting coalescer — a
// wired-but-idle server (newServer) and a closed one must both answer
// 503 while /healthz still answers 200.
func TestReadyz(t *testing.T) {
	idle := newIdleServer(t, 64, 4, 1, Options{})
	get := func(s *Server, path string) (int, string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		s.Handler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	if code, body := get(idle, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("idle coalescer: /readyz = %d %s, want 503", code, body)
	}
	if code, _ := get(idle, "/healthz"); code != http.StatusOK {
		t.Fatalf("idle coalescer: /healthz must stay 200 (liveness != readiness)")
	}

	d2 := newEmbedder(t, 64, 4, dyn.Options{})
	live := New(d2, Options{})
	code, body := get(live, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("started server: /readyz = %d %s, want 200", code, body)
	}
	var ready ReadyResponse
	if err := json.Unmarshal([]byte(body), &ready); err != nil || !ready.Ready {
		t.Fatalf("started server: body %q not ready", body)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(live, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("closed server: /readyz = %d, want 503", code)
	}
}

// failAfterWriter errors every write after the first n bytes — a
// client that departs mid-stream, from the handler's point of view.
type failAfterWriter struct {
	httptest.ResponseRecorder
	remaining int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if len(p) > f.remaining {
		n, _ := f.ResponseRecorder.Write(p[:f.remaining])
		f.remaining = 0
		// The error must ride on the truncating call itself: a bare
		// short write would become bufio's private ErrShortWrite, which
		// the server's error tracker never observes.
		return n, fmt.Errorf("client went away")
	}
	f.remaining -= len(p)
	return f.ResponseRecorder.Write(p)
}

// TestAbortedStreamCounted: a snapshot stream cut off mid-body must
// increment gee_http_aborted_streams_total for the route and tag the
// recorded trace aborted, while a completed stream must not.
func TestAbortedStreamCounted(t *testing.T) {
	d := newEmbedder(t, 2048, 4, dyn.Options{})
	s := New(d, Options{})
	defer s.Close()

	// Complete stream first: no abort counted.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot status %d", rec.Code)
	}

	fw := &failAfterWriter{ResponseRecorder: *httptest.NewRecorder(), remaining: 1 << 10}
	s.Handler().ServeHTTP(fw, httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil))

	var b strings.Builder
	if err := s.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `gee_http_aborted_streams_total{route="GET /v1/snapshot"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition missing %q after one aborted and one complete stream", want)
	}

	var aborted, clean bool
	for _, tr := range s.sm.rec.Recent() {
		if tr.Name() != "GET /v1/snapshot" {
			continue
		}
		has := false
		for _, tag := range tr.Tags() {
			if tag.Key == "aborted" && tag.Value == "true" {
				has = true
			}
		}
		if has {
			aborted = true
		} else {
			clean = true
		}
	}
	if !aborted || !clean {
		t.Fatalf("recorded traces: aborted=%v clean=%v, want one of each", aborted, clean)
	}
}

// TestDebugTracesEndpoint covers the dump's shape and the ?name=
// filter: after one write and one health read, the filtered dump
// carries only the write route, stages included, and ids stay stable
// through the JSON round trip.
func TestDebugTracesEndpoint(t *testing.T) {
	d := newEmbedder(t, 128, 4, dyn.Options{})
	s := New(d, Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := trace.NewID()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/edges",
		strings.NewReader(`{"edges":[{"u":3,"v":4}]}`))
	req.Header.Set(trace.Header, id.String())
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("write status %d", resp.StatusCode)
		}
	}
	if _, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/debug/traces?name=POST%20/v1/edges")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Recent) == 0 {
		t.Fatal("filtered dump has no recent traces")
	}
	found := false
	for _, tw := range dump.Recent {
		if tw.Name != "POST /v1/edges" {
			t.Fatalf("?name filter leaked trace %q", tw.Name)
		}
		if tw.ID == id.String() {
			found = true
			stages := map[string]bool{}
			for _, sp := range tw.Spans {
				stages[sp.Name] = true
			}
			for _, stage := range writeStages {
				if !stages[stage] {
					t.Fatalf("dumped trace missing stage %q: %+v", stage, tw.Spans)
				}
			}
		}
	}
	if !found {
		t.Fatalf("adopted id %v not in dump", id)
	}
}

// TestTracingDisabled: DisableTracing must 404 the dump endpoint, keep
// the per-stage histograms out of the exposition, and leave writes
// fully functional.
func TestTracingDisabled(t *testing.T) {
	d := newEmbedder(t, 64, 4, dyn.Options{})
	s := New(d, Options{DisableTracing: true})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/edges", "application/json",
		strings.NewReader(`{"edges":[{"u":1,"v":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write with tracing disabled: status %d", resp.StatusCode)
	}
	dumpResp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dumpResp.Body)
	dumpResp.Body.Close()
	if dumpResp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/traces with tracing disabled: status %d, want 404", dumpResp.StatusCode)
	}
	var b strings.Builder
	if err := s.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "gee_write_stage_seconds") {
		t.Fatal("stage histograms registered despite DisableTracing")
	}
}

// TestSlowLogCarriesTrace: with a zero-ish threshold every request is
// "slow"; the log line must carry trace=<the adopted id> and be
// followed by the span dump line.
func TestSlowLogCarriesTrace(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	safe := &lockedWriter{mu: &mu, w: &buf}
	d := newEmbedder(t, 64, 4, dyn.Options{})
	s := New(d, Options{
		SlowRequestThreshold: time.Nanosecond,
		SlowRequestLog:       log.New(safe, "", 0),
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := trace.NewID()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/edges",
		strings.NewReader(`{"edges":[{"u":5,"v":6}]}`))
	req.Header.Set(trace.Header, id.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "trace="+id.String()) {
		t.Fatalf("slow log missing trace=%s:\n%s", id, out)
	}
	if !strings.Contains(out, "spans:") || !strings.Contains(out, "fold=") {
		t.Fatalf("slow log missing span dump:\n%s", out)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestRuntimeGaugesExposed: the server registry carries the process
// health instruments after construction.
func TestRuntimeGaugesExposed(t *testing.T) {
	d := newEmbedder(t, 64, 4, dyn.Options{})
	s := New(d, Options{})
	defer s.Close()
	var b strings.Builder
	if err := s.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gee_go_goroutines", "gee_go_heap_alloc_bytes", "gee_go_gc_cycles_total"} {
		if !strings.Contains(b.String(), "\n"+name+" ") {
			t.Errorf("server exposition missing %s", name)
		}
	}
}
