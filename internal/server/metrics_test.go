package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// TestRetryAfterSeconds pins the derived-backoff contract at the three
// interesting queue states: an empty queue advises the minimum, a
// half-full queue scales with the observed drain rate, and a full queue
// against a slow drain clamps at the maximum.
func TestRetryAfterSeconds(t *testing.T) {
	const cap = 1024
	cases := []struct {
		name  string
		depth int
		rate  float64
		want  int
	}{
		{"empty queue", 0, 100, 1},
		{"empty queue, no rate yet", 0, 0, 1},
		{"half queue", cap / 2, 100, 6}, // ceil(512/100)
		{"half queue, fast drain", cap / 2, 10_000, 1},
		{"full queue", cap, 100, 11}, // ceil(1024/100)
		{"full queue, slow drain", cap, 10, 30},
		{"full queue, no rate yet", cap, 0, 30},
		{"full queue, stalled", cap, -1, 30},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.depth, c.rate); got != c.want {
			t.Errorf("%s: retryAfterSeconds(%d, %g) = %d, want %d",
				c.name, c.depth, c.rate, got, c.want)
		}
	}
}

// TestCoalescerRetryAfterLive checks the wired path: a cold coalescer
// advises conservatively for a non-empty queue, and after real traffic
// the drain-rate EWMA is populated so the hint derives from it.
func TestCoalescerRetryAfterLive(t *testing.T) {
	d := newEmbedder(t, 64, 4, dyn.Options{})
	co := NewCoalescer(d, CoalescerOptions{MaxDelay: time.Millisecond})
	if got := retryAfterSeconds(co.backlog()); got != 1 {
		t.Fatalf("idle cold coalescer advises %d, want 1", got)
	}
	co.Start()
	for i := 0; i < 8; i++ {
		ack, err := co.Submit(dyn.Batch{Insert: []graph.Edge{{U: graph.NodeID(i), V: graph.NodeID(i + 1), W: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		<-ack
	}
	co.Close()
	if _, rate := co.backlog(); rate <= 0 {
		t.Fatalf("drain rate %g after live traffic, want the EWMA populated", rate)
	}
	if hint := retryAfterSeconds(co.backlog()); hint < 1 || hint > 30 {
		t.Fatalf("retry hint %d outside [1,30]", hint)
	}
}

// TestStatsConsistentUnderConcurrentScrape is the /statsz regression
// test (run under -race in CI): counters scraped while writers hammer
// Submit must always satisfy the cross-counter invariants — Ops ≥
// Requests (every accepted request carries at least one op), and
// Coalesced/Flushes never exceed Requests. The seed code incremented
// requests before ops and loaded the counters in an order that let a
// scrape observe a request without its ops.
func TestStatsConsistentUnderConcurrentScrape(t *testing.T) {
	d := newEmbedder(t, 4096, 4, dyn.Options{ManualPublish: true})
	co := NewCoalescer(d, CoalescerOptions{MaxBatch: 512, MaxDelay: 500 * time.Microsecond})
	co.Start()
	defer co.Close()

	const writers, perWriter = 4, 200
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := co.Stats()
				if st.Ops < st.Requests {
					t.Errorf("scrape saw Ops %d < Requests %d", st.Ops, st.Requests)
					return
				}
				if st.Coalesced > st.Requests {
					t.Errorf("scrape saw Coalesced %d > Requests %d", st.Coalesced, st.Requests)
					return
				}
				if st.Flushes > st.Requests {
					t.Errorf("scrape saw Flushes %d > Requests %d", st.Flushes, st.Requests)
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				u := graph.NodeID((w*perWriter + i) * 2 % 4094)
				ack, err := co.Submit(dyn.Batch{Insert: []graph.Edge{{U: u, V: u + 1, W: 1}}})
				if err == ErrBacklog {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				<-ack
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()
}

// TestStatszContentType pins the /statsz response header: the seed's
// handler went through writeJSON, but the header is part of the
// endpoint's contract and deserves its own assertion.
func TestStatszContentType(t *testing.T) {
	d := newEmbedder(t, 16, 2, dyn.Options{})
	s := New(d, Options{})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/statsz status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/statsz Content-Type %q, want application/json", ct)
	}
}

// TestMetricsEndpoint drives real traffic through the server and then
// checks the exposition: parseable text format, request counters for
// the exercised routes, latency histogram children, and the coalescer
// queue-depth gauge.
func TestMetricsEndpoint(t *testing.T) {
	d := newEmbedder(t, 64, 4, dyn.Options{})
	s := New(d, Options{})
	defer s.Close()
	h := s.Handler()

	post := func(path, body string) int {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post("/v1/edges", `{"edges":[{"u":1,"v":2}]}`); code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}
	if code := post("/v1/neighbors", `{"v":1,"k":3}`); code != http.StatusOK {
		t.Fatalf("neighbors status %d", code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/embedding/1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("embedding status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	samples, err := metrics.ParseText(rec.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	find := func(name string, match map[string]string) (float64, bool) {
	next:
		for _, sm := range samples {
			if sm.Name != name {
				continue
			}
			for k, v := range match {
				if sm.Labels[k] != v {
					continue next
				}
			}
			return sm.Value, true
		}
		return 0, false
	}
	for _, route := range []string{"POST /v1/edges", "POST /v1/neighbors", "GET /v1/embedding/{v}"} {
		v, ok := find("gee_http_requests_total", map[string]string{"route": route, "code": "200"})
		if !ok || v < 1 {
			t.Errorf("no 200 request counter for route %q (found=%v value=%g)", route, ok, v)
		}
		v, ok = find("gee_http_request_seconds_count", map[string]string{"route": route})
		if !ok || v < 1 {
			t.Errorf("no latency histogram for route %q (found=%v value=%g)", route, ok, v)
		}
	}
	if _, ok := find("gee_coalescer_queue_depth", nil); !ok {
		t.Error("gee_coalescer_queue_depth gauge missing")
	}
	if v, ok := find("gee_coalescer_requests_total", nil); !ok || v < 1 {
		t.Errorf("gee_coalescer_requests_total = %g (found=%v), want >= 1", v, ok)
	}
	if v, ok := find("gee_dyn_publish_seconds_count", nil); !ok || v < 1 {
		t.Errorf("gee_dyn_publish_seconds_count = %g (found=%v), want >= 1", v, ok)
	}
	// The mutation wrote one micro-batch: the wire-format split must
	// attribute its JSON response bytes to wire="json".
	if v, ok := find("gee_http_response_bytes_count", map[string]string{"route": "POST /v1/edges", "wire": "json"}); !ok || v < 1 {
		t.Errorf("response bytes by wire format missing (found=%v value=%g)", ok, v)
	}
}

// TestPprofGating checks the default-off contract: /debug/pprof/ serves
// nothing unless Options.EnablePprof is set.
func TestPprofGating(t *testing.T) {
	d := newEmbedder(t, 16, 2, dyn.Options{})
	off := New(d, Options{})
	defer off.Close()
	rec := httptest.NewRecorder()
	off.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pprof served %d with EnablePprof unset, want 404", rec.Code)
	}

	d2 := newEmbedder(t, 16, 2, dyn.Options{})
	on := New(d2, Options{EnablePprof: true})
	defer on.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		rec := httptest.NewRecorder()
		on.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("pprof %s served %d with EnablePprof set, want 200", path, rec.Code)
		}
		if b, _ := io.ReadAll(rec.Body); len(b) == 0 {
			t.Fatalf("pprof %s served an empty body", path)
		}
	}
}

// TestSlowRequestTrace: a slow request is found in the flight
// recorder, so a write's retained trace in /debug/traces must carry
// everything a log line about it would: the route, the status and ack
// epoch tags, its duration, and the span tree of all five write stages.
func TestSlowRequestTrace(t *testing.T) {
	d := newEmbedder(t, 16, 2, dyn.Options{})
	s := New(d, Options{})
	defer s.Close()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/edges", strings.NewReader(`{"edges":[{"u":1,"v":2}]}`))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert status %d", rec.Code)
	}
	var ack MutationResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?name=POST%20/v1/edges", nil))
	var dump TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Recent) != 1 {
		t.Fatalf("recorder holds %d write traces, want 1", len(dump.Recent))
	}
	tw := dump.Recent[0]
	if tw.Name != "POST /v1/edges" {
		t.Errorf("trace named %q, want the route", tw.Name)
	}
	if tw.Tags["status"] != "200" {
		t.Errorf("status tag %q, want 200", tw.Tags["status"])
	}
	if want := strconv.FormatUint(ack.Epoch, 10); tw.Tags["epoch"] != want {
		t.Errorf("epoch tag %q, want the ack epoch %s", tw.Tags["epoch"], want)
	}
	if tw.DurUS <= 0 {
		t.Errorf("trace carries no duration: %+v", tw)
	}
	stages := map[string]bool{}
	for _, sp := range tw.Spans {
		stages[sp.Name] = true
	}
	for _, stage := range stageNames {
		if !stages[stage] {
			t.Errorf("trace missing stage %q: %+v", stage, tw.Spans)
		}
	}
}

// TestWritePathNeverGathers pins who may ask a version for its
// contiguous form (an O(nK) gather once a publish has patched pages):
// only the neighbor scans. A write, its ack, and every other read
// route — single row, batch, section snapshot, delta, partition,
// readiness, stats, metrics — answer from the pages or from the epoch
// number alone.
func TestWritePathNeverGathers(t *testing.T) {
	d := newEmbedder(t, 2000, 4, dyn.Options{})
	s := New(d, Options{})
	defer s.Close()
	h := s.Handler()
	do := func(method, path, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if strings.HasPrefix(path, "/v1/delta") {
			req.Header.Set("Accept", wire.ContentType) // a delta is only ever a frame
		}
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
	}
	for i := 0; i < 3; i++ {
		do("POST", "/v1/edges", `{"edges":[{"u":1,"v":900}]}`)
		do("GET", "/v1/embedding/900", "")
		do("POST", "/v1/embeddings", `{"vs":[1,900,1999]}`)
		do("GET", "/v1/snapshot", "")
		do("GET", "/v1/delta?from=0", "")
		do("GET", "/v1/partition", "")
		do("GET", "/readyz", "")
		do("GET", "/healthz", "")
		do("GET", "/statsz", "")
		do("GET", "/metrics", "")
	}
	if got := d.Stats().DenseViews; got != 0 {
		t.Fatalf("writes and row reads derived %d contiguous views, want 0", got)
	}
	// The exact scan is the reader that needs one — once per version.
	do("POST", "/v1/neighbors", `{"v":1,"k":3}`)
	do("POST", "/v1/neighbors", `{"v":900,"k":3}`)
	if got := d.Stats().DenseViews; got != 1 {
		t.Fatalf("two scans of one version derived %d contiguous views, want 1", got)
	}
}
