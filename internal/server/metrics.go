// The HTTP measurement surface: every registered route is wrapped with
// a per-endpoint latency histogram, a status counter, and a
// response-bytes histogram split by negotiated wire format, all
// resolved at registration time so the per-request cost is a few
// atomic adds. The same wrapper finishes each request's trace into the
// flight recorder, whose duration shelves are where a slow request is
// found (GET /debug/traces), and /statsz's wire split reads the
// response-bytes histograms: one counter path, one trace path.

package server

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// serverMetrics owns the server's registry, per-route instruments, and
// the request-trace flight recorder.
type serverMetrics struct {
	reg *metrics.Registry

	// rec retains finished request traces (nil when tracing is
	// disabled; every trace call site is nil-safe).
	rec *trace.Recorder
	// Per-stage write latency histograms, fed from finished traces'
	// stageNames spans.
	stages map[string]*metrics.Histogram
}

// stageNames are the spans a write request's trace decomposes into,
// in the order they happen: decode (handler entry → the batch is handed
// to the router: body read and parse), queue, fold, publish, ack.
var stageNames = []string{"decode", "queue", "fold", "publish", "ack"}

func newServerMetrics(disableTracing bool) *serverMetrics {
	reg := metrics.NewRegistry()
	sm := &serverMetrics{reg: reg}
	if !disableTracing {
		sm.rec = trace.NewRecorder(trace.DefRecent)
		sm.stages = make(map[string]*metrics.Histogram, len(stageNames))
		for _, stage := range stageNames {
			sm.stages[stage] = reg.Histogram("gee_write_stage_seconds",
				"Write-path latency decomposed by pipeline stage (from request traces).",
				metrics.DefLatencyBuckets, metrics.L("stage", stage))
		}
	}
	return sm
}

// routeMetrics is one endpoint's instrument set, resolved once when the
// route is registered.
type routeMetrics struct {
	sm      *serverMetrics
	route   string
	latency *metrics.Histogram
	// Response-body bytes by negotiated wire format. Per-request sizes
	// go through a histogram (the _sum doubles as the total).
	bytesJSON   *metrics.Histogram
	bytesBinary *metrics.Histogram
	// aborted counts streamed responses cut short by client departure
	// (already-committed 200s whose body never completed).
	aborted *metrics.Counter

	mu     sync.RWMutex
	status map[int]*metrics.Counter // guarded by mu; lazily populated per status code
}

func (sm *serverMetrics) route(pattern string) *routeMetrics {
	return &routeMetrics{
		sm:    sm,
		route: pattern,
		latency: sm.reg.Histogram("gee_http_request_seconds",
			"End-to-end request latency by route (mutations include the publish ack wait).",
			metrics.DefLatencyBuckets, metrics.L("route", pattern)),
		bytesJSON: sm.reg.Histogram("gee_http_response_bytes",
			"Response body bytes by route and negotiated wire format.",
			metrics.DefSizeBuckets, metrics.L("route", pattern), metrics.L("wire", "json")),
		bytesBinary: sm.reg.Histogram("gee_http_response_bytes",
			"Response body bytes by route and negotiated wire format.",
			metrics.DefSizeBuckets, metrics.L("route", pattern), metrics.L("wire", "binary")),
		aborted: sm.reg.Counter("gee_http_aborted_streams_total",
			"Streamed responses aborted mid-body by client departure (status was already committed).",
			metrics.L("route", pattern)),
		status: make(map[int]*metrics.Counter),
	}
}

// statusCounter resolves the counter for one status code, registering
// it on first sight (the per-route code set is tiny, so after warmup
// this is one RLock and a map read).
func (rm *routeMetrics) statusCounter(code int) *metrics.Counter {
	rm.mu.RLock()
	c := rm.status[code]
	rm.mu.RUnlock()
	if c != nil {
		return c
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if c = rm.status[code]; c == nil {
		c = rm.sm.reg.Counter("gee_http_requests_total",
			"Requests served by route and status code.",
			metrics.L("route", rm.route), metrics.L("code", strconv.Itoa(code)))
		rm.status[code] = c
	}
	return c
}

// meteredWriter wraps the ResponseWriter to capture status and bytes,
// and carries the request's trace to the handler.
type meteredWriter struct {
	http.ResponseWriter
	status int
	bytes  int64

	// tr is this request's trace (nil when tracing is disabled);
	// handlers reach it through traceOf.
	tr *trace.Trace
	// aborted marks a streamed response the client abandoned mid-body,
	// set by handlers via annotateAborted.
	aborted bool
}

func (m *meteredWriter) WriteHeader(code int) {
	if m.status == 0 {
		m.status = code
	}
	m.ResponseWriter.WriteHeader(code)
}

func (m *meteredWriter) Write(p []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	n, err := m.ResponseWriter.Write(p)
	m.bytes += int64(n)
	return n, err
}

// Flush passes through so the streaming endpoints keep their
// incremental delivery.
func (m *meteredWriter) Flush() {
	if f, ok := m.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// annotate tags the request's trace with the snapshot or ack epoch it
// was served against. A no-op without a trace (tracing disabled, or a
// handler called with a bare httptest recorder).
func annotate(w http.ResponseWriter, epoch uint64) {
	if tr := traceOf(w); tr != nil {
		tr.Tag("epoch", strconv.FormatUint(epoch, 10))
	}
}

// annotateAborted marks a streamed response that the client abandoned
// mid-body — the committed status (usually 200) no longer describes
// what was delivered. The wrapper counts it and tags the trace.
func annotateAborted(w http.ResponseWriter) {
	if m, ok := w.(*meteredWriter); ok {
		m.aborted = true
	}
}

// traceOf returns the request's trace for handlers wanting to record
// spans. Nil (a universal no-op) on unwrapped writers or with tracing
// disabled.
func traceOf(w http.ResponseWriter) *trace.Trace {
	if m, ok := w.(*meteredWriter); ok {
		return m.tr
	}
	return nil
}

// wrap instruments one route handler. The instruments are captured in
// the closure — no per-request lookups beyond the status-code map.
func (sm *serverMetrics) wrap(rm *routeMetrics, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var tr *trace.Trace
		if sm.rec != nil {
			// Adopt the client's id when the header carries one, so one
			// id names the request on both sides of the wire.
			if tid, ok := trace.ParseID(r.Header.Get(trace.Header)); ok {
				tr = trace.Adopt(tid, rm.route)
			} else {
				tr = trace.New(rm.route)
			}
		}
		t0 := time.Now()
		mw := &meteredWriter{ResponseWriter: w, tr: tr}
		h(mw, r)
		if mw.status == 0 {
			// Handler wrote nothing (e.g. a streamed response that
			// aborted before the first byte): the status on the wire is
			// whatever the http server defaulted to.
			mw.status = http.StatusOK
		}
		rm.latency.ObserveSince(t0)
		rm.statusCounter(mw.status).Inc()
		if w.Header().Get("Content-Type") == wire.ContentType {
			rm.bytesBinary.Observe(float64(mw.bytes))
		} else {
			rm.bytesJSON.Observe(float64(mw.bytes))
		}
		if mw.aborted {
			rm.aborted.Inc()
		}
		if tr != nil {
			tr.Tag("status", strconv.Itoa(mw.status))
			if mw.aborted {
				tr.Tag("aborted", "true")
			}
			tr.Finish()
			sm.observeStages(tr)
			sm.rec.Record(tr)
		}
	}
}

// observeStages feeds the per-stage histograms from a finished trace's
// pipeline spans, so /metrics separates what the aggregate ack-wait
// histogram lumps together.
func (sm *serverMetrics) observeStages(tr *trace.Trace) {
	for _, sp := range tr.Spans() {
		if h := sm.stages[sp.Name]; h != nil {
			h.Observe(sp.Duration().Seconds())
		}
	}
}

// handleMetrics serves the Prometheus text exposition.
func (sm *serverMetrics) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := sm.reg.WriteText(w); err != nil {
		// Headers are gone; all we can do is cut the stream short.
		fmt.Fprintf(os.Stderr, "metrics exposition: %v\n", err)
	}
}
