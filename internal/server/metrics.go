// The HTTP measurement surface: every registered route is wrapped with
// a per-endpoint latency histogram, a status counter, and a
// response-bytes histogram split by negotiated wire format, all
// resolved at registration time so the per-request cost is a few
// atomic adds. The same wrapper drives the slow-request trace log:
// requests over Options.SlowRequestThreshold log their method, path,
// status, vertex count, epoch, and duration under a monotonically
// increasing per-request id.

package server

import (
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// serverMetrics owns the server's registry, per-route instruments, and
// the request-trace flight recorder.
type serverMetrics struct {
	reg     *metrics.Registry
	slow    time.Duration
	slowLog *log.Logger
	reqID   atomic.Int64 // per-request ids for the slow-request trace

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

func newServerMetrics(opts Options) *serverMetrics {
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	lg := opts.SlowRequestLog
	if lg == nil {
		lg = log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	}
	sm := &serverMetrics{reg: reg, slow: opts.SlowRequestThreshold, slowLog: lg}
	if !opts.DisableTracing {
		sm.rec = trace.NewRecorder(opts.TraceBuffer)
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
// and carries the handler's trace annotations (vertex count, epoch)
// back to the wrapper.
type meteredWriter struct {
	http.ResponseWriter
	status int
	bytes  int64

	// Slow-trace annotations, set by handlers via annotate/annotateOps.
	ops      int
	epoch    uint64
	hasEpoch bool

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

// annotate records the vertex/op count and snapshot epoch a request
// touched, for the slow-request trace. Safe on any writer (tests call
// handlers with a bare httptest recorder).
func annotate(w http.ResponseWriter, ops int, epoch uint64) {
	if m, ok := w.(*meteredWriter); ok {
		m.ops = ops
		m.epoch = epoch
		m.hasEpoch = true
	}
}

// annotateOps records only the op count (for requests rejected before
// any snapshot was loaded).
func annotateOps(w http.ResponseWriter, ops int) {
	if m, ok := w.(*meteredWriter); ok {
		m.ops = ops
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
		id := sm.reqID.Add(1)
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
		dur := time.Since(t0)
		rm.latency.Observe(dur.Seconds())
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
			if mw.hasEpoch {
				tr.Tag("epoch", strconv.FormatUint(mw.epoch, 10))
			}
			if mw.aborted {
				tr.Tag("aborted", "true")
			}
			tr.Finish()
			sm.observeStages(tr)
			sm.rec.Record(tr)
		}
		if sm.slow > 0 && dur >= sm.slow {
			sm.traceSlow(id, rm.route, r, mw, dur)
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

// traceSlow emits one slow-request line. The format is stable (keyed
// fields, one line) so log scrapers can parse it:
//
//	slow-request id=17 method=POST path=/v1/edges status=200 vertices=128 epoch=42 dur=153.2ms trace=00c27e5a93f1b204
//
// When tracing is on, a second line dumps the trace's span tree so the
// latency decomposition is in the log next to the event:
//
//	slow-request id=17 trace=00c27e5a93f1b204 spans: queue=1.2ms fold=3.4ms{batch_requests=7,batch_ops=224} publish=9.1ms ack=0.1ms
func (sm *serverMetrics) traceSlow(id int64, route string, r *http.Request, mw *meteredWriter, dur time.Duration) {
	epoch := "-"
	if mw.hasEpoch {
		epoch = strconv.FormatUint(mw.epoch, 10)
	}
	traceID := "-"
	if mw.tr != nil {
		traceID = mw.tr.ID().String()
	}
	sm.slowLog.Printf("slow-request id=%d method=%s path=%s route=%q status=%d vertices=%d epoch=%s dur=%s trace=%s",
		id, r.Method, r.URL.Path, route, mw.status, mw.ops, epoch, dur.Round(100*time.Microsecond), traceID)
	if mw.tr != nil && len(mw.tr.Spans()) > 0 {
		sm.slowLog.Printf("slow-request id=%d trace=%s spans: %s", id, traceID, formatSpans(mw.tr))
	}
}

// formatSpans renders a finished trace's spans on one line, in
// recorded order: name=duration{tag=v,...} separated by spaces.
func formatSpans(tr *trace.Trace) string {
	var b strings.Builder
	for i, sp := range tr.Spans() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sp.Name)
		b.WriteByte('=')
		b.WriteString(sp.Duration().Round(10 * time.Microsecond).String())
		if len(sp.Tags) > 0 {
			b.WriteByte('{')
			for j, tag := range sp.Tags {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(tag.Key)
				b.WriteByte('=')
				b.WriteString(tag.Value)
			}
			b.WriteByte('}')
		}
	}
	return b.String()
}

// handleMetrics serves the Prometheus text exposition.
func (sm *serverMetrics) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := sm.reg.WriteText(w); err != nil {
		// Headers are gone; all we can do is cut the stream short.
		fmt.Fprintf(os.Stderr, "metrics exposition: %v\n", err)
	}
}
